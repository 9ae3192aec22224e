"""Precision-recall machinery against literal sweep and integration oracles."""

import numpy as np
import pytest

from vprfuse import (
    Dataset,
    EvalRecord,
    GroundTruth,
    PRCurve,
    ReferenceSet,
    bench_query,
    evaluate_method,
    expand_methods,
    generate_synthetic,
    match_correct,
    pr_curve,
)
from vprfuse.errors import ValidationError

from oracles import auc_dense_oracle, pr_sweep_oracle


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
        curve = pr_curve(records)
        assert all(p == 1.0 for _, p in curve.points)
        assert curve.points[-1][0] == 1.0
        assert curve.auc == 1.0

    def test_all_wrong(self):
        records = [record(q, q, 1.0 - q * 0.1, False) for q in range(5)]
        curve = pr_curve(records)
        assert all(p == 0.0 for _, p in curve.points)
        assert curve.auc == 0.0

    def test_hand_example(self):
        records = [
            record(0, 1, 0.9, True),
            record(1, 2, 0.8, False),
            record(2, 3, 0.7, True),
            record(3, 4, 0.6, True),
        ]
        curve = pr_curve(records)
        assert curve.points[0] == (0.25, 1.0)
        assert curve.points[1] == (0.25, 0.5)
        assert curve.points[2] == (0.5, 2 / 3)
        assert curve.points[3] == (0.75, 0.75)

    def test_recall_non_decreasing(self, rng):
        for _ in range(30):
            curve = pr_curve(random_records(rng, 60, tie_rate=0.4))
            recalls = [r for r, _ in curve.points]
            assert recalls == sorted(recalls)

    def test_matches_literal_sweep_oracle(self, rng):
        for _ in range(40):
            records = random_records(rng, int(rng.integers(1, 120)),
                                     no_match_rate=0.2, tie_rate=0.3)
            if all(r.place is None for r in records):
                continue
            curve = pr_curve(records)
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
        curve = pr_curve(records)
        assert curve.points == [(0.5, 1.0)]  # recall denominator still counts both

    def test_all_no_match(self):
        records = [
            EvalRecord(query=q, place=None, confidence=float("nan"), correct=None)
            for q in range(4)
        ]
        curve = pr_curve(records)
        assert curve.points == [(0.0, 0.0)]
        assert curve.auc == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pr_curve([])

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
            curve = pr_curve(records)
            assert curve.auc == pytest.approx(auc_dense_oracle(curve.points), abs=1e-6)

    def test_in_unit_interval(self, rng):
        for _ in range(30):
            curve = pr_curve(random_records(rng, 50, no_match_rate=0.3))
            assert 0.0 <= curve.auc <= 1.0

    def test_dominating_curve_has_larger_auc(self):
        lo = self._curve([(0.0, 0.4), (0.5, 0.4), (1.0, 0.2)])
        hi = self._curve([(0.0, 0.8), (0.5, 0.6), (1.0, 0.5)])
        assert hi.auc >= lo.auc

    def test_raising_cutoff_never_increases_recall(self, rng):
        records = random_records(rng, 80, tie_rate=0.2)
        curve = pr_curve(records)
        # thresholds are strictest-first, so recall along them is non-decreasing;
        # equivalently raising the cutoff moves recall down
        recalls = [r for r, _ in curve.points]
        for stricter, looser in zip(recalls, recalls[1:]):
            assert stricter <= looser


class TestEvaluateMethod:
    def test_records_cover_every_query(self):
        ds = generate_synthetic(seed=3, n_places=40, n_conditions=2, dim=8)
        result = evaluate_method(ds, "bayes-selective")
        assert [r.query for r in result.records] == list(range(40))
        assert result.scores.n_queries == 40

    def test_information_free_queries_abstain(self, rng):
        """Sets whose rows are all identical score every place alike."""
        refs = [
            ReferenceSet(label, np.tile(rng.standard_normal(6), (4, 1)))
            for label in ("a", "b")
        ]
        ds = Dataset(refs, rng.standard_normal((4, 6)), GroundTruth(np.arange(4), 0))
        for method in expand_methods("all", ds.labels):
            result = evaluate_method(ds, method)
            assert all(r.place is None and r.correct is None for r in result.records)
            assert result.curve.auc == 0.0

    def test_sequence_length_one_identical(self):
        ds = generate_synthetic(seed=5, n_places=25, n_conditions=2, dim=8)
        # Length 1 ignores the velocity, even one no window would accept.
        single = evaluate_method(ds, "bayes-selective", seq_len=1, seq_velocity=-1.0)
        explicit = evaluate_method(ds, "bayes-selective")
        np.testing.assert_array_equal(single.scores.scores, explicit.scores.scores)
        assert single.curve.auc == explicit.curve.auc

    @pytest.mark.parametrize(
        "seq_len, velocity, message",
        [
            (0, 1.0, "sequence length"),
            (-3, 1.0, "sequence length"),
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
        assert all(r.correct for r in result.records)  # everything within band
        assert result.curve.auc == 1.0


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
        assert parts == pytest.approx(total, rel=0.05)

    def test_invalid_parameters(self):
        ds = generate_synthetic(seed=1, n_places=5, n_conditions=1, dim=4)
        with pytest.raises(ValidationError):
            bench_query(ds, repetitions=0)


class TestBlockScoring:
    @pytest.mark.parametrize("seq_len", [1, 3])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, seq_len):
        ds = generate_synthetic(seed=7, n_places=30, n_conditions=3, dim=6, condition_scale=0.15)
        per_query = 8 * ds.n_refs * ds.n_places
        results = {}
        # Blocks of 1, 2, 7 (30 = 4 x 7 + 2, a remainder) and all 30 queries.
        for queries in (1, 2, 7, 30):
            monkeypatch.setattr("vprfuse.evaluation._BLOCK_BYTES", queries * per_query)
            results[queries] = [
                evaluate_method(ds, m, gamma=0.1, seq_len=seq_len)
                for m in expand_methods("all", ds.labels)
            ]
        for queries in (2, 7, 30):
            for got, want in zip(results[queries], results[1]):
                np.testing.assert_array_equal(got.scores.scores, want.scores.scores)
                assert got.records == want.records
                np.testing.assert_array_equal(got.curve.thresholds, want.curve.thresholds)
                assert got.curve.points == want.curve.points
