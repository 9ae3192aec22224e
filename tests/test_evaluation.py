"""Precision-recall machinery against literal sweep and integration oracles."""

import numpy as np
import pytest

from vprfuse import (
    Dataset,
    EvalRecord,
    GroundTruth,
    Method,
    PRCurve,
    ReferenceSet,
    ScoreMatrix,
    bench_query,
    distance_stack,
    evaluate_method,
    expand_methods,
    generate_synthetic,
    match_correct,
    pr_curve,
    resolve_method,
    score_matrix,
    sequence_aggregate,
)
from vprfuse.errors import ValidationError

from oracles import (
    auc_dense_oracle,
    explicit_distances,
    fused_rows_oracle,
    log_ratio_oracle,
    pr_sweep_oracle,
    records_oracle,
)
from records import records_curve


def record(q, place, conf, correct):
    return EvalRecord(query=q, place=place, confidence=conf, correct=correct)


def random_records(rng, n, no_match_rate=0.0, tie_rate=0.0):
    out = []
    pool = np.round(rng.uniform(0, 1, size=max(2, n // 3)), 3)
    for q in range(n):
        if rng.random() < no_match_rate:
            out.append(EvalRecord(query=q, place=None, confidence=float("nan"), correct=None))
            continue
        conf = float(rng.choice(pool)) if rng.random() < tie_rate else float(rng.uniform(0, 1))
        out.append(record(q, int(rng.integers(0, 50)), conf, bool(rng.random() < 0.6)))
    return out


class TestMatchCorrect:
    def test_within_band(self):
        assert match_correct(100, 101, 2)

    def test_outside_band(self):
        assert not match_correct(100, 103, 2)

    def test_wide_tolerance(self):
        # ten-index band, e.g. +-10 one-meter-spaced places
        assert match_correct(50, 60, 10)
        assert not match_correct(50, 61, 10)

    def test_zero_tolerance(self):
        assert match_correct(5, 5, 0)
        assert not match_correct(5, 6, 0)


class TestPRCurve:
    def test_perfect_matcher(self):
        records = [record(q, q, 1.0 - q * 0.1, True) for q in range(5)]
        curve = records_curve(records)
        assert all(p == 1.0 for _, p in curve.points)
        assert curve.points[-1][0] == 1.0
        assert curve.auc == 1.0

    def test_all_wrong(self):
        records = [record(q, q, 1.0 - q * 0.1, False) for q in range(5)]
        curve = records_curve(records)
        assert all(p == 0.0 for _, p in curve.points)
        assert curve.auc == 0.0

    def test_hand_example(self):
        records = [
            record(0, 1, 0.9, True),
            record(1, 2, 0.8, False),
            record(2, 3, 0.7, True),
            record(3, 4, 0.6, True),
        ]
        curve = records_curve(records)
        assert curve.points[0] == (0.25, 1.0)
        assert curve.points[1] == (0.25, 0.5)
        assert curve.points[2] == (0.5, 2 / 3)
        assert curve.points[3] == (0.75, 0.75)

    def test_recall_non_decreasing(self, rng):
        for _ in range(30):
            curve = records_curve(random_records(rng, 60, tie_rate=0.4))
            recalls = [r for r, _ in curve.points]
            assert recalls == sorted(recalls)

    def test_matches_literal_sweep_oracle(self, rng):
        for _ in range(40):
            records = random_records(rng, int(rng.integers(1, 120)),
                                     no_match_rate=0.2, tie_rate=0.3)
            if all(r.place is None for r in records):
                continue
            curve = records_curve(records)
            want = pr_sweep_oracle(records)
            assert len(curve.points) == len(want)
            for (thr, (rec, prec)), (othr, orec, oprec) in zip(
                zip(curve.thresholds, curve.points), want
            ):
                assert thr == othr
                assert rec == pytest.approx(orec, abs=1e-12)
                assert prec == pytest.approx(oprec, abs=1e-12)

    def test_no_match_records_never_count_as_decided(self):
        records = [
            record(0, 3, 0.9, True),
            EvalRecord(query=1, place=None, confidence=float("-inf"), correct=None),
        ]
        curve = records_curve(records)
        assert curve.points == [(0.5, 1.0)]  # recall denominator still counts both

    def test_all_no_match(self):
        records = [
            EvalRecord(query=q, place=None, confidence=float("nan"), correct=None)
            for q in range(4)
        ]
        curve = records_curve(records)
        assert curve.points == [(0.0, 0.0)]
        assert curve.auc == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            records_curve([])

    @pytest.mark.parametrize(
        "confidences, decided, correct",
        [
            ([0.5, 0.4], [True], [True]),
            ([0.5], [True, False], [True]),
            ([0.5], [True], [True, False]),
            ([[0.5]], [[True]], [[True]]),
            ([0.5, np.nan], [True, True], [True, False]),
            ([-np.inf], [True], [True]),
            (["a"], [True], [True]),
            ([0.5], ["no"], [True]),
            ([0.5], [True], ["yes"]),
            ([[0.5], [0.4, 0.3]], [True, True], [True, True]),
            ([0.5j], [True], [True]),
        ],
    )
    def test_bad_arrays_rejected(self, confidences, decided, correct):
        with pytest.raises(ValidationError):
            pr_curve(confidences, decided, correct)

    def test_rank_and_length_messages(self):
        with pytest.raises(ValidationError, match=r"confidences must be a non-empty 1-D "
                           r"array, got shape \(1, 1\)"):
            pr_curve([[0.5]], [True], [True])
        with pytest.raises(ValidationError, match=r"decided flags must be a non-empty 1-D "
                           r"array, got shape \(0,\)"):
            pr_curve([0.5], [], [True])
        with pytest.raises(ValidationError, match="^need one decided and one correct flag "
                           "per confidence$"):
            pr_curve([0.5, 0.4], [True, True], [True])

    def test_undecided_entries_are_not_read(self):
        curve = pr_curve([np.nan, 0.5, -np.inf], [False, True, False], [True, True, True])
        assert curve.points == [(1 / 3, 1.0)]
        np.testing.assert_array_equal(curve.thresholds, [0.5])

    def test_record_consistency_enforced(self):
        with pytest.raises(ValidationError):
            EvalRecord(query=0, place=None, confidence=0.5, correct=True)
        with pytest.raises(ValidationError):
            EvalRecord(query=0, place=3, confidence=0.5, correct=None)
        with pytest.raises(ValidationError):
            EvalRecord(query=0, place=3, confidence=float("nan"), correct=True)


class TestAUC:
    def _curve(self, points):
        return PRCurve(thresholds=np.arange(len(points), 0, -1, dtype=float),
                       points=list(points))

    def test_flat_one(self):
        assert self._curve([(0.0, 1.0), (1.0, 1.0)]).auc == 1.0

    def test_triangle(self):
        assert self._curve([(0.0, 1.0), (1.0, 0.0)]).auc == 0.5

    def test_matches_dense_integration(self, rng):
        for _ in range(20):
            records = random_records(rng, int(rng.integers(2, 200)), tie_rate=0.3)
            curve = records_curve(records)
            assert curve.auc == pytest.approx(auc_dense_oracle(curve.points), abs=1e-6)

    def test_in_unit_interval(self, rng):
        for _ in range(30):
            curve = records_curve(random_records(rng, 50, no_match_rate=0.3))
            assert 0.0 <= curve.auc <= 1.0

    def test_dominating_curve_has_larger_auc(self):
        lo = self._curve([(0.0, 0.4), (0.5, 0.4), (1.0, 0.2)])
        hi = self._curve([(0.0, 0.8), (0.5, 0.6), (1.0, 0.5)])
        assert hi.auc >= lo.auc

    def test_raising_cutoff_never_increases_recall(self, rng):
        records = random_records(rng, 80, tie_rate=0.2)
        curve = records_curve(records)
        # thresholds are strictest-first, so recall along them is non-decreasing;
        # equivalently raising the cutoff moves recall down
        recalls = [r for r, _ in curve.points]
        for stricter, looser in zip(recalls, recalls[1:]):
            assert stricter <= looser


class TestEvaluateMethod:
    def test_records_cover_every_query(self):
        ds = generate_synthetic(seed=3, n_places=40, n_conditions=2, dim=8)
        result = evaluate_method(ds, "bayes-selective")
        for values in (result.places, result.confidences, result.decided, result.correct):
            assert values.shape == (40,)
        assert score_matrix(ds, "bayes-selective").n_queries == 40

    def test_information_free_queries_abstain(self, rng):
        """Sets whose rows are all identical score every place alike."""
        refs = [
            ReferenceSet(label, np.tile(rng.standard_normal(6), (4, 1)))
            for label in ("a", "b")
        ]
        ds = Dataset(refs, rng.standard_normal((4, 6)), GroundTruth(np.arange(4), 0))
        for method in expand_methods("all", ds.labels):
            result = evaluate_method(ds, method)
            assert not result.decided.any() and not result.correct.any()
            assert result.curve.auc == 0.0

    @pytest.mark.parametrize("seq_len, checks", [(1, 0), (5, 1)])
    def test_no_records_and_score_matrices_checked_once_at_most(
        self, monkeypatch, seq_len, checks
    ):
        """Kernel rows are finite by construction; only window means are checked."""
        synth = generate_synthetic(seed=3, n_places=40, n_conditions=2, dim=8)
        ds = Dataset(synth.refs, synth.queries[:30], GroundTruth(np.arange(30), 0))
        # Blocks of 7 queries, so that only a whole score matrix has 30 x 40 entries.
        monkeypatch.setattr("vprfuse.evaluation._BLOCK_BYTES", 7 * 8 * 2 * 40)
        isfinite = np.isfinite
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        def no_record(self):
            raise AssertionError("evaluate_method built an EvalRecord")

        monkeypatch.setattr(np, "isfinite", spy)
        monkeypatch.setattr(EvalRecord, "__post_init__", no_record)
        for method in expand_methods("all", ds.labels):
            shapes.clear()
            evaluate_method(ds, method, seq_len=seq_len)
            assert shapes.count((30, 40)) == checks, method.name

    def test_sequence_length_one_identical(self):
        ds = generate_synthetic(seed=5, n_places=25, n_conditions=2, dim=8)
        # Length 1 ignores the velocity, even one no window would accept.
        single = evaluate_method(ds, "bayes-selective", seq_len=1, seq_velocity=-1.0)
        explicit = evaluate_method(ds, "bayes-selective")
        np.testing.assert_array_equal(
            score_matrix(ds, "bayes-selective", seq_len=1, seq_velocity=-1.0).scores,
            score_matrix(ds, "bayes-selective").scores,
        )
        assert single.curve.auc == explicit.curve.auc

    @pytest.mark.parametrize(
        "seq_len, velocity, message",
        [
            (0, 1.0, "sequence length"),
            (-3, 1.0, "sequence length"),
            (2.5, 1.0, "sequence length must be an integer"),
            (2.0, 1.0, "sequence length must be an integer"),
            ("3", 1.0, "sequence length must be an integer"),
            (True, 1.0, "sequence length must be an integer"),
            (26, 1.0, "exceeds query count"),
            (2, 0.0, "velocity"),
            (2, float("inf"), "velocity"),
            (2, float("nan"), "velocity"),
        ],
    )
    def test_bad_window_rejected_before_scoring(self, monkeypatch, seq_len, velocity, message):
        ds = generate_synthetic(seed=5, n_places=25, n_conditions=2, dim=8)

        def no_stack(*args):
            raise AssertionError("distance_stack called before the window check")

        monkeypatch.setattr("vprfuse.evaluation.distance_stack", no_stack)
        with pytest.raises(ValidationError, match=message):
            evaluate_method(ds, "bayes-selective", seq_len=seq_len, seq_velocity=velocity)

    def test_tolerance_applied(self):
        ds = generate_synthetic(
            seed=5, n_places=25, n_conditions=1, dim=8, gt_tolerance=25
        )
        result = evaluate_method(ds, "min-value:0")
        assert result.correct.all()  # everything within band
        assert result.curve.auc == 1.0

    def test_every_method_keeps_its_decisions_at_every_descriptor_scale(self):
        """Scaling references and queries alike by 10**k changes no decision.

        The 200-place protocol's distance variance is about 1 at k = 0 and so
        about 1e-12 at k = -6: only a floor relative to the squared mean keeps
        belief methods deciding at every k.
        """
        ds = generate_synthetic(seed=0, n_places=200, mixture=(0.5, 0.5, 0.0))
        methods = expand_methods("all", ds.labels)
        base = [evaluate_method(ds, m) for m in methods]
        for k in (-150, -100, -6, -3, 0, 3, 100, 150):
            c = 10.0**k
            scaled = Dataset([ReferenceSet(r.label, c * r.descriptors) for r in ds.refs],
                             c * ds.queries, ds.ground_truth)
            for m, want in zip(methods, base):
                got = evaluate_method(scaled, m)
                np.testing.assert_array_equal(got.places, want.places, err_msg=f"{m.name} {k}")
                np.testing.assert_array_equal(got.decided, want.decided, err_msg=f"{m.name} {k}")
                assert got.curve.auc == pytest.approx(want.curve.auc, rel=0, abs=1e-9)


def decisions(result):
    """evaluate_method's (place, confidence, correct) per query, as records_oracle
    gives them: (None, confidence, None) where the query abstained."""
    assert not result.correct[~result.decided].any()
    return [
        (place, confidence, ok) if issued else (None, confidence, None)
        for place, confidence, issued, ok in zip(
            result.places.tolist(),
            result.confidences.tolist(),
            result.decided.tolist(),
            result.correct.tolist(),
        )
    ]


class TestRecordPass:
    """Queries are decided in one array pass; a per-row loop is the reference."""

    def _records(self, monkeypatch, rng, scores, tolerance=0):
        """evaluate_method's (place, confidence, correct) per query, None where
        it abstained, when every query's score row is given."""
        n_q, n_p = scores.shape
        truth = GroundTruth(rng.integers(0, n_p, size=n_q), tolerance)
        ds = Dataset(
            [ReferenceSet("a", rng.standard_normal((n_p, 3)))],
            rng.standard_normal((n_q, 3)),
            truth,
        )
        monkeypatch.setattr(Method, "fuse_rows", lambda self, values, selected: (scores, selected))
        monkeypatch.setattr("vprfuse.evaluation._BLOCK_BYTES", 8 * n_q * n_p)  # one block
        got = decisions(evaluate_method(ds, "bayes-full"))
        assert got == records_oracle(scores, truth.true_place, tolerance)
        return got, truth

    def test_ties_go_to_the_lowest_place_and_constant_rows_abstain(self, monkeypatch, rng):
        scores = np.array(
            [
                [0.1, 0.7, 0.2, 0.7, 0.7],
                [-0.0, 0.0, -1.0, 0.0, -0.0],
                [0.3, 0.3, 0.3, 0.3, 0.3],
                [-0.0, -0.0, 0.0, -0.0, 0.0],
                [2.0, 1.0, 0.0, -1.0, 2.0],
            ]
        )
        got, _ = self._records(monkeypatch, rng, scores)
        assert [place for place, _, _ in got] == [1, 0, None, None, 0]
        assert np.signbit(got[1][1])  # the score at the argmax, -0.0
        assert got[2][1:] == (0.3, None)

    def test_a_single_place_never_abstains(self, monkeypatch, rng):
        got, _ = self._records(monkeypatch, rng, np.array([[0.5], [-2.0], [0.0]]))
        assert [(place, ok) for place, _, ok in got] == [(0, True)] * 3

    @pytest.mark.parametrize("tolerance", [0, 1, 3, 29])
    def test_correct_within_the_tolerance_band(self, monkeypatch, rng, tolerance):
        scores = rng.standard_normal((60, 30))
        got, truth = self._records(monkeypatch, rng, scores, tolerance)
        for t, (place, _, ok) in enumerate(got):
            assert ok is match_correct(place, truth.true_place[t], tolerance)


# The README protocol at condition scale 0.15, where fusion fuses: of the 500
# queries, 380, 100 and 20 select 1, 2 and 3 sets under gamma 0.04.
_FUSING = dict(seed=0, condition_scale=0.15, mixture=(0.5, 0.5, 0.0))
# Each method's oracle kind and fusion rule, and its frozen AUC.
_FUSING_METHODS = {
    "bayes-selective": ("belief", "gamma", 0.9959107245730086),
    "bayes-full": ("belief", "all", 1.0),
    "baseline-fusion": ("distance", "all", 1.0),
    "baseline-selective": ("distance", "gamma", 0.9952849309538918),
    "bayes-single:cond0": ("belief", 0, 0.9745870303706853),
    "bayes-single:cond1": ("belief", 1, 0.9816212840606916),
    "bayes-single:cond2": ("belief", 2, 0.9717215334508867),
    "min-value:cond0": ("distance", 0, 0.968609062097421),
    "min-value:cond1": ("distance", 1, 0.9792376830577928),
    "min-value:cond2": ("distance", 2, 0.9681561444885726),
}


@pytest.fixture(scope="module")
def fusing():
    """The dataset, and every query's explicit distances and per-set log ratios."""
    ds = generate_synthetic(**_FUSING)
    distances = np.array(
        [[explicit_distances(q, ref.descriptors) for ref in ds.refs] for q in ds.queries]
    )
    ratios = np.array([[log_ratio_oracle(d) for d in stack] for stack in distances])
    return ds, distances, ratios


class TestFusingRowOracle:
    """Every method's eval rows against log-domain rows from explicit distances."""

    def test_roster_is_covered(self, fusing):
        assert [m.name for m in expand_methods("all", fusing[0].labels)] == list(_FUSING_METHODS)

    @pytest.mark.parametrize("name", list(_FUSING_METHODS))
    def test_rows_match_the_oracle_and_the_auc_is_frozen(self, fusing, name):
        ds, distances, ratios = fusing
        kind, rule, frozen = _FUSING_METHODS[name]
        want = fused_rows_oracle(distances, ratios, kind, rule, gamma=0.04)
        np.testing.assert_allclose(score_matrix(ds, name).scores, want, rtol=1e-12, atol=1e-13)
        assert evaluate_method(ds, name).curve.auc == pytest.approx(frozen, abs=1e-6)


def test_tie_heavy_rows_match_the_oracle():
    """Integer descriptors: exact distances with many ties, so blocks take the tie pass."""
    synth = generate_synthetic(seed=2, n_places=80, dim=3, condition_scale=0.15)
    refs = [ReferenceSet(r.label, np.round(2 * r.descriptors)) for r in synth.refs]
    ds = Dataset(refs, np.round(2 * synth.queries), synth.ground_truth)
    distances = np.array(
        [[explicit_distances(q, ref.descriptors) for ref in ds.refs] for q in ds.queries]
    )
    assert min(len(np.unique(d)) for d in distances.reshape(-1, 80)) < 40
    ratios = np.array([[log_ratio_oracle(d) for d in stack] for stack in distances])
    for method in expand_methods("all", ds.labels):
        want = fused_rows_oracle(distances, ratios, method.kind, method.rule, gamma=0.04)
        result = evaluate_method(ds, method)
        np.testing.assert_array_equal(result.places, want.argmax(axis=1))
        np.testing.assert_allclose(result.confidences, want.max(axis=1), rtol=1e-12, atol=1e-13)
        assert result.decided.all()


@pytest.mark.parametrize("gamma", [-1.0, 0.0, float("nan")])
@pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion", "min-value:0", "bayes-single:1"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda ds, name, gamma: evaluate_method(ds, name, gamma=gamma),
        lambda ds, name, gamma: score_matrix(ds, name, gamma=gamma),
        lambda ds, name, gamma: bench_query(ds, name, repetitions=1, n_queries=1, gamma=gamma),
        lambda ds, name, gamma: resolve_method(name, ds.labels).score_row(
            distance_stack(ds.queries[0], ds.refs), gamma
        ),
    ],
    ids=["evaluate_method", "score_matrix", "bench_query", "score_row"],
)
def test_gamma_is_checked_by_every_library_entry(entry, name, gamma):
    """Also methods that never select by gamma refuse one that is not positive."""
    dataset = generate_synthetic(seed=0, n_places=10, dim=4)
    with pytest.raises(ValidationError, match="gamma must be positive"):
        entry(dataset, name, gamma)


class TestBenchQuery:
    def test_tiny_dataset_completes_with_nonzero_timing(self):
        ds = generate_synthetic(seed=1, n_places=1, n_conditions=1, dim=4)
        report = bench_query(ds, repetitions=2, n_queries=1)
        assert report.n_samples == 2
        assert report.phases["total"].mean_s > 0.0
        assert set(report.phases) == {"distance", "selection", "fusion", "total"}

    def test_phases_sum_to_total(self):
        ds = generate_synthetic(seed=1, n_places=50, n_conditions=2, dim=8)
        report = bench_query(ds, repetitions=3, n_queries=5)
        total = report.phases["total"].mean_s
        parts = sum(report.phases[p].mean_s for p in ("distance", "selection", "fusion"))
        assert parts == pytest.approx(total, rel=1e-9)

    def test_fuses_in_eval_blocks(self, monkeypatch):
        ds = generate_synthetic(seed=1, n_places=500, n_conditions=3, dim=8)
        blocks = []
        fuse_rows = Method.fuse_rows

        def spy(self, values, selected):
            blocks.append(values.shape[0])
            return fuse_rows(self, values, selected)

        def fuse(self, stack, selection):
            raise AssertionError("bench must not fuse one query at a time")

        monkeypatch.setattr(Method, "fuse_rows", spy)
        monkeypatch.setattr(Method, "fuse", fuse)
        bench_query(ds, "bayes-selective", repetitions=1, n_queries=50)
        assert blocks == [1, 21, 21, 8]  # the warm-up query, then eval's blocks

    def test_invalid_parameters(self):
        ds = generate_synthetic(seed=1, n_places=5, n_conditions=1, dim=4)
        with pytest.raises(ValidationError):
            bench_query(ds, repetitions=0)


class TestBlockScoring:
    @pytest.mark.parametrize("seq_len", [1, 3])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, seq_len):
        ds = generate_synthetic(seed=7, n_places=30, n_conditions=3, dim=6, condition_scale=0.15)
        per_query = 8 * ds.n_refs * ds.n_places
        results, rows = {}, {}
        # Blocks of 1, 2, 7 (30 = 4 x 7 + 2, a remainder) and all 30 queries.
        for queries in (1, 2, 7, 30):
            monkeypatch.setattr("vprfuse.evaluation._BLOCK_BYTES", queries * per_query)
            methods = expand_methods("all", ds.labels)
            results[queries] = [
                evaluate_method(ds, m, gamma=0.1, seq_len=seq_len) for m in methods
            ]
            rows[queries] = [
                score_matrix(ds, m, gamma=0.1, seq_len=seq_len).scores for m in methods
            ]
        for queries in (2, 7, 30):
            for got_rows, want_rows in zip(rows[queries], rows[1]):
                np.testing.assert_array_equal(got_rows, want_rows)
            for got, want in zip(results[queries], results[1]):
                for field in ("places", "confidences", "decided", "correct"):
                    np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
                np.testing.assert_array_equal(got.curve.thresholds, want.curve.thresholds)
                assert got.curve.points == want.curve.points

    @pytest.mark.parametrize("seq_len", [1, 3])
    @pytest.mark.parametrize("queries", [1, 2, 7, 30])
    def test_decisions_equal_the_records_oracle_on_the_rows(self, monkeypatch, queries, seq_len):
        """Blocks are decided as they are scored; the whole rows are the reference."""
        synth = generate_synthetic(
            seed=7, n_places=30, n_conditions=3, dim=6, condition_scale=0.15, gt_tolerance=1
        )
        # A set whose rows are all alike is degenerate for every query: its
        # single-set methods abstain, and selections that hold it alone fall
        # back to the prior.
        flat = ReferenceSet("flat", np.tile(synth.refs[0].descriptors[0], (30, 1)))
        ds = Dataset([*synth.refs, flat], synth.queries, synth.ground_truth)
        per_query = 8 * ds.n_refs * ds.n_places
        monkeypatch.setattr("vprfuse.evaluation._BLOCK_BYTES", queries * per_query)
        truth = ds.ground_truth
        abstained = 0
        for method in expand_methods("all", ds.labels):
            rows = score_matrix(ds, method, gamma=0.1, seq_len=seq_len).scores
            result = evaluate_method(ds, method, gamma=0.1, seq_len=seq_len)
            want = records_oracle(rows, truth.true_place, truth.tolerance)
            assert decisions(result) == want, method.name
            abstained += sum(place is None for place, _, _ in want)
        # The flat set's two single-set methods abstain on every query, until
        # windows average rows of different queries.
        assert abstained >= (60 if seq_len == 1 else 1)


def _stack_spy(monkeypatch):
    """Record the number of sets in every stack that evaluation builds."""
    sets = []

    def spy(query, refs):
        sets.append(len(refs))
        return distance_stack(query, refs)

    monkeypatch.setattr("vprfuse.evaluation.distance_stack", spy)
    return sets


def test_only_the_gamma_rule_selects_per_query(monkeypatch):
    ds = generate_synthetic(seed=4, n_places=30, dim=6)
    calls = []
    select = Method.select

    def spy(self, stack, gamma=0.04):
        calls.append(self.name)
        return select(self, stack, gamma)

    monkeypatch.setattr(Method, "select", spy)
    for method in expand_methods("all", ds.labels):
        calls.clear()
        evaluate_method(ds, method)
        want = 30 if method.name in ("bayes-selective", "baseline-selective") else 0
        assert calls == [method.name] * want


class TestNarrowing:
    @pytest.fixture
    def ds(self):
        # 37 places leave a GEMV tail that is not a multiple of 4.  Query 5
        # equals a stored descriptor, so its stacks take the cancellation
        # re-check.
        synth = generate_synthetic(
            seed=11, n_places=37, n_conditions=3, dim=6, condition_scale=0.15
        )
        queries = synth.queries.copy()
        queries[5] = synth.refs[1].descriptors[5]
        return Dataset(synth.refs, queries, synth.ground_truth)

    @pytest.mark.parametrize("seq_len", [1, 3])
    def test_single_set_rows_equal_full_stack_rows(self, ds, seq_len):
        singles = [m for m in expand_methods("all", ds.labels) if isinstance(m.rule, int)]
        assert len(singles) == 6
        for method in singles:
            want = ScoreMatrix(
                np.stack([method.score_row(distance_stack(q, ds.refs)) for q in ds.queries]),
                method=method.name,
            )
            if seq_len != 1:
                want = sequence_aggregate(want, seq_len, 1.0)
            got = score_matrix(ds, method, seq_len=seq_len)
            assert got.method == method.name
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_single_set_methods_stack_their_own_set(self, ds, monkeypatch):
        sets = _stack_spy(monkeypatch)
        n = ds.queries.shape[0]
        for method in expand_methods("all", ds.labels):
            before = len(sets)
            evaluate_method(ds, method)
            want = 1 if isinstance(method.rule, int) else 3
            assert sets[before:] == [want] * n, method.name
        assert len(sets) == 10 * n

    def test_bench_query_narrows(self, ds, monkeypatch):
        sets = _stack_spy(monkeypatch)
        bench_query(ds, "min-value:2", repetitions=2, n_queries=3)
        assert sets == [1] * 7  # the warm-up query, then 2 x 3
        sets.clear()
        bench_query(ds, "bayes-selective", repetitions=1, n_queries=3)
        assert sets == [3] * 4

    def test_bool_set_index_rejected(self, ds):
        method = Method(name="min-value:x", kind="distance", rule=True)
        with pytest.raises(ValidationError, match="reference index must be an integer"):
            evaluate_method(ds, method)

    @pytest.mark.parametrize("entry", [evaluate_method, score_matrix, bench_query])
    def test_non_string_method_name_rejected(self, ds, entry):
        with pytest.raises(ValidationError, match="unknown method None"):
            entry(ds, None)

    @pytest.mark.parametrize("rule", [-1, 3])
    def test_out_of_range_set_rejected(self, ds, rule):
        method = Method(name="min-value:x", kind="distance", rule=rule)
        with pytest.raises(ValidationError, match="out of range"):
            evaluate_method(ds, method)
        with pytest.raises(ValidationError, match="out of range"):
            bench_query(ds, method, repetitions=1, n_queries=1)
