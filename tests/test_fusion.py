"""Posterior fusion against a linear-space brute-force oracle, plus decisions."""

import numpy as np
import pytest

from vprfuse import (
    DistanceStack,
    SelectionResult,
    decide,
    expand_methods,
    log_likelihood_ratio,
    posterior,
    resolve_method,
    select_all,
    select_references,
    select_single,
    uniform_prior,
)
from vprfuse.errors import NoInformationError, ValidationError
from vprfuse.fusion import Belief, _normalize_log_scores, fused_log_scores

from oracles import posterior_linear_oracle


def softmax(x):
    z = np.exp(x - np.max(x))
    return z / z.sum()


def random_stack(rng, n_refs=3, n_places=30):
    return DistanceStack(rng.uniform(0.5, 2.0, size=(n_refs, n_places)))


def belief_from(values):
    arr = np.asarray(values, dtype=float)
    return Belief(log_scores=np.log(arr), normalized=arr)


class TestPosterior:
    def test_single_set_equals_normalized_single_likelihood(self, rng):
        stack = random_stack(rng, n_refs=1, n_places=12)
        belief = posterior(stack, select_single(stack, 0), uniform_prior(12))
        np.testing.assert_allclose(
            belief.normalized, softmax(log_likelihood_ratio(stack.values[0])),
            rtol=0, atol=1e-12,
        )

    def test_duplicated_set_doubles_evidence(self, rng):
        row = rng.uniform(0.5, 2.0, size=20)
        stack = DistanceStack(np.stack([row, row]))
        prior = uniform_prior(20)
        log_prior = np.log(prior)
        single = posterior(stack, select_single(stack, 0), prior)
        double = posterior(stack, select_all(stack), prior)
        np.testing.assert_allclose(
            double.log_scores - log_prior,
            2.0 * (single.log_scores - log_prior),
            rtol=1e-12, atol=1e-12,
        )
        assert np.argmax(double.normalized) == np.argmax(single.normalized)

    def test_matches_linear_space_oracle(self, rng):
        stack = random_stack(rng, n_refs=3, n_places=30)
        sel = select_references(stack, gamma=0.2)
        belief = posterior(stack, sel, uniform_prior(30))
        want = posterior_linear_oracle(stack.values, sel.selected, uniform_prior(30))
        np.testing.assert_allclose(belief.normalized, want, rtol=0, atol=1e-9)

    def test_matches_oracle_with_nonuniform_prior(self, rng):
        stack = random_stack(rng, n_refs=2, n_places=15)
        prior = rng.uniform(0.1, 1.0, size=15)
        prior /= prior.sum()
        sel = select_all(stack)
        belief = posterior(stack, sel, prior)
        want = posterior_linear_oracle(stack.values, sel.selected, prior)
        np.testing.assert_allclose(belief.normalized, want, rtol=0, atol=1e-9)

    def test_normalized_sums_to_one(self, rng):
        stack = random_stack(rng)
        belief = posterior(stack, select_all(stack), uniform_prior(30))
        assert belief.normalized.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(belief.normalized >= 0)

    def test_prior_validation(self, rng):
        stack = random_stack(rng, n_places=4)
        with pytest.raises(ValidationError):
            posterior(stack, select_all(stack), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            posterior(stack, select_all(stack), np.array([0.7, 0.2, 0.2, 0.2]))
        with pytest.raises(ValidationError):
            posterior(stack, select_all(stack), np.array([0.5, 0.5, 0.5, -0.5]))

    def test_one_hot_prior_forces_match(self, rng):
        stack = random_stack(rng, n_places=10)
        prior = np.zeros(10)
        prior[6] = 1.0
        belief = posterior(stack, select_all(stack), prior)
        decision = decide(belief, h=0.999)
        assert decision.matched and decision.place == 6
        assert belief.normalized[6] == pytest.approx(1.0)

    def test_degenerate_set_dropped(self, rng):
        good = rng.uniform(0.5, 2.0, size=10)
        stack = DistanceStack(np.stack([good, np.full(10, 1.0)]))
        belief = posterior(stack, select_all(stack), uniform_prior(10))
        assert belief.dropped == (1,)
        only_good = posterior(stack, select_single(stack, 0), uniform_prior(10))
        np.testing.assert_allclose(belief.normalized, only_good.normalized, atol=1e-12)

    def test_all_degenerate_raises(self):
        stack = DistanceStack(np.ones((2, 8)))
        with pytest.raises(NoInformationError):
            posterior(stack, select_all(stack), uniform_prior(8))

    def test_empty_selection_rejected(self, rng):
        stack = random_stack(rng)
        empty = SelectionResult(best=0, mask=np.zeros(stack.n_refs, bool), minima=stack.minima())
        with pytest.raises(ValidationError, match="every query must select at least one set"):
            posterior(stack, empty, uniform_prior(30))

    @pytest.mark.parametrize(
        "mask",
        [
            np.ones(3),  # floats, not a mask
            np.ones(3, dtype=np.int64),  # indices, not a mask
            np.ones((1, 3), dtype=bool),  # a block's mask, not one query's
        ],
        ids=["float", "int", "block"],
    )
    def test_mask_that_is_not_one_bool_per_set_rejected(self, rng, mask):
        stack = random_stack(rng)
        sel = SelectionResult(best=0, mask=mask, minima=stack.minima())
        with pytest.raises(
            ValidationError, match="need one selection over 3 sets per query, for 1 queries"
        ):
            posterior(stack, sel, uniform_prior(30))

    def test_list_mask_fuses_like_the_array_mask(self, rng):
        stack = random_stack(rng)
        mask = np.array([True, False, True])
        want = posterior(stack, SelectionResult(0, mask, stack.minima()), uniform_prior(30))
        got = posterior(stack, SelectionResult(0, mask.tolist(), stack.minima()), uniform_prior(30))
        assert got.log_scores.tobytes() == want.log_scores.tobytes()
        assert got.normalized.tobytes() == want.normalized.tobytes()
        assert got.dropped == want.dropped

    @pytest.mark.parametrize(
        "prior, match",
        [
            (np.full(4, 0.25 + 0j), "prior must hold real numbers"),
            (["0.25"] * 4, "prior must hold real numbers"),
            ([[0.25, 0.25], [0.5]], "prior is not a rectangular array"),
            (np.full((1, 4), 0.25), "prior must be a non-empty 1-D array"),
            (np.array([0.5, 0.5, np.nan, 0.0]), "prior contains non-finite values"),
        ],
        ids=["complex", "string", "ragged", "2-D", "nan"],
    )
    def test_prior_goes_through_the_array_check(self, rng, prior, match):
        stack = random_stack(rng, n_places=4)
        with pytest.raises(ValidationError, match=match):
            posterior(stack, select_all(stack), prior)

    def test_selection_from_other_stack_rejected(self, rng):
        stack = random_stack(rng, n_refs=3)
        other = random_stack(rng, n_refs=2)
        sel = select_all(other)
        with pytest.raises(ValidationError):
            posterior(stack, sel, uniform_prior(30))


class TestPosteriorInvariances:
    def test_scale_invariance_of_stack(self, rng):
        for _ in range(20):
            stack = random_stack(rng)
            sel = select_references(stack, gamma=0.1)
            base = posterior(stack, sel, uniform_prior(30)).normalized
            for c in (1e-3, 1e3):
                scaled_stack = DistanceStack(c * stack.values)
                scaled_sel = select_references(scaled_stack, gamma=0.1)
                assert scaled_sel.selected == sel.selected
                scaled = posterior(scaled_stack, scaled_sel, uniform_prior(30)).normalized
                np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    def test_normalization_shift_invariant(self, rng):
        from vprfuse.fusion import _normalize_log_scores

        scores = rng.standard_normal(40)
        base = _normalize_log_scores(scores)
        for shift in (-700.0, 123.456, 700.0):
            np.testing.assert_allclose(
                _normalize_log_scores(scores + shift), base, rtol=0, atol=1e-12
            )


class TestDecide:
    def test_match_above_threshold(self):
        d = decide(belief_from([0.7, 0.2, 0.1]), h=0.5)
        assert d.matched and d.place == 0 and d.confidence == 0.7

    def test_no_match_below_threshold(self):
        d = decide(belief_from([0.7, 0.2, 0.1]), h=0.8)
        assert not d.matched and d.place is None
        assert d.confidence == 0.7  # still reported for diagnostics

    def test_boundary_is_strict(self):
        d = decide(belief_from([0.25, 0.25, 0.25, 0.25]), h=0.25)
        assert not d.matched

    def test_belief_without_contrast_abstains(self):
        d = decide(belief_from([0.25, 0.25, 0.25, 0.25]), h=0.1)
        assert not d.matched and d.place is None and d.confidence == 0.25

    def test_argmax_tie_breaks_low(self):
        d = decide(belief_from([0.4, 0.4, 0.2]), h=0.1)
        assert d.place == 0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            decide(belief_from([1.0]), h=0.0)

    def test_monotone_in_threshold(self, rng):
        stack = random_stack(rng)
        belief = posterior(stack, select_all(stack), uniform_prior(30))
        matched = [decide(belief, h).matched for h in (0.01, 0.1, 0.3, 0.6, 0.9)]
        # once a threshold loses the match, stricter thresholds never regain it
        assert matched == sorted(matched, reverse=True)


class TestBayesianFullFusion:
    """Full fusion is the posterior over every set (select_all)."""

    def test_single_set_reduces_to_posterior(self, rng):
        stack = random_stack(rng, n_refs=1)
        full = posterior(stack, select_all(stack), uniform_prior(30))
        single = posterior(stack, select_single(stack, 0), uniform_prior(30))
        np.testing.assert_array_equal(full.normalized, single.normalized)

    def test_equals_posterior_with_huge_gamma_selection(self, rng):
        stack = random_stack(rng)
        sel = select_references(stack, gamma=1e6)
        via_selection = posterior(stack, sel, uniform_prior(30))
        full = posterior(stack, select_all(stack), uniform_prior(30))
        np.testing.assert_array_equal(full.normalized, via_selection.normalized)

    def test_matches_linear_space_oracle(self, rng):
        stack = random_stack(rng, n_refs=4, n_places=25)
        full = posterior(stack, select_all(stack), uniform_prior(25))
        want = posterior_linear_oracle(
            stack.values, tuple(range(4)), uniform_prior(25)
        )
        np.testing.assert_allclose(full.normalized, want, rtol=0, atol=1e-9)


class TestBlockFusion:
    """Rows fused as a block are bit-identical to each query fused alone."""

    @staticmethod
    def block(rng):
        values = rng.uniform(0.5, 2.0, size=(5, 3, 30))
        values[1, 2] = 1.0  # query 1: set 2 degenerate, sets 0 and 1 usable
        values[3, :2] = 0.75  # query 3: sets 0 and 1 degenerate
        values[4, :, 5] = -0.0  # a signed zero must survive the distance sums
        selected = np.array(
            [[1, 1, 1], [1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool
        )
        return values, selected

    def test_rows_equal_posterior_of_each_query(self, rng):
        values, selected = self.block(rng)
        prior = uniform_prior(30)
        log_scores, used = fused_log_scores(values, selected, np.log(prior))
        want = selected.copy()
        want[1, 2] = want[3, 0] = want[3, 1] = False  # the degenerate selected sets
        np.testing.assert_array_equal(used, want)
        for q in range(5):
            stack = DistanceStack(values[q])
            sel = SelectionResult(best=0, mask=selected[q], minima=stack.minima())
            if q == 3:
                with pytest.raises(NoInformationError):
                    posterior(stack, sel, prior)
                continue
            belief = posterior(stack, sel, prior)
            np.testing.assert_array_equal(log_scores[q], belief.log_scores)
            np.testing.assert_array_equal(_normalize_log_scores(log_scores)[q], belief.normalized)
            assert belief.dropped == ((2,) if q == 1 else ())

    def test_method_rows_equal_one_query_rows(self, rng):
        values, _ = self.block(rng)
        stacks = [DistanceStack(v) for v in values]
        labels = ["a", "b", "c"]
        for method in expand_methods("all", labels):
            selections = [method.select(stack, 0.3) for stack in stacks]
            rows, _ = method.fuse_rows(values, np.stack([s.mask for s in selections]))
            for stack, selection, row in zip(stacks, selections, rows):
                np.testing.assert_array_equal(row, method.fuse(stack, selection))
                if method.kind == "distance":  # the per-query formula, bit for bit
                    want = -stack.values[list(selection.selected)].mean(axis=0)
                    assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 30, 3001])
    def test_all_selected_sets_degenerate_gives_the_prior(self, rng, n):
        values = rng.uniform(0.5, 2.0, size=(3, 2, n))
        values[1, 0] = 0.75  # query 1: its one selected set is degenerate
        method = resolve_method("bayes-single:0", ["a", "b"])
        selected = np.stack([method.select(DistanceStack(v)).mask for v in values])
        rows, _ = method.fuse_rows(values, selected)
        np.testing.assert_array_equal(rows[1], uniform_prior(n))
        assert not np.array_equal(rows[0], uniform_prior(n))
