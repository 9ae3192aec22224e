"""Rank counts, the Gaussian background fit and the log likelihood ratio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from vprfuse import (
    SIGMA2_MIN,
    Dataset,
    GaussianParams,
    GroundTruth,
    ReferenceSet,
    distance_stack,
    evaluate_method,
    expand_methods,
    gaussian_params,
    log_likelihood_ratio,
    place_match_counts,
    posterior,
    select_references,
    uniform_prior,
)
from vprfuse.errors import DegenerateReferenceError, ValidationError

from oracles import counts_oracle, two_pass_mean_var


def softmax(x):
    z = np.exp(x - np.max(x))
    return z / z.sum()


class TestPlaceMatchCounts:
    def test_strictly_increasing_vector(self):
        np.testing.assert_array_equal(
            place_match_counts([0.1, 0.2, 0.3]), [3, 2, 1]
        )

    def test_tie_at_minimum(self):
        np.testing.assert_array_equal(
            place_match_counts([0.2, 0.2, 0.5]), [3, 3, 1]
        )

    def test_single_entry(self):
        np.testing.assert_array_equal(place_match_counts([0.7]), [1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            place_match_counts([])

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            d = rng.uniform(0.0, 3.0, size=n)
            if rng.random() < 0.5:
                # force ties
                d = np.round(d, 1)
            np.testing.assert_array_equal(place_match_counts(d), counts_oracle(d))

    def test_matches_rankdata_oracle(self, rng):
        # counts[i] = N - (min-rank of d[i]) + 1
        for _ in range(200):
            n = int(rng.integers(1, 200))
            d = np.round(rng.uniform(0.0, 3.0, size=n), 2)
            want = n - stats.rankdata(d, method="min") + 1
            np.testing.assert_array_equal(place_match_counts(d), want)

    def test_invariant_under_monotone_transform(self, rng):
        d = rng.uniform(0.1, 2.0, size=40)
        for transform in (np.exp, np.sqrt, lambda x: 3.0 * x + 1.0):
            np.testing.assert_array_equal(
                place_match_counts(transform(d)), place_match_counts(d)
            )

    def test_extremes(self, rng):
        d = rng.permutation(np.linspace(0.5, 2.0, 25))
        counts = place_match_counts(d)
        assert counts[np.argmin(d)] == 25
        assert counts[np.argmax(d)] == 1
        # all-distinct distances give a permutation of 1..N
        assert sorted(counts) == list(range(1, 26))


class TestGaussianParams:
    def test_hand_case(self):
        p = gaussian_params([0.0, 2.0])
        assert p.mu == 1.0
        assert p.sigma2 == 1.0  # population variance, not sample

    def test_constant_vector(self):
        p = gaussian_params(np.full(10, 3.5))
        assert p.mu == 3.5
        assert p.sigma2 == 0.0

    def test_single_entry_rejected(self):
        # One entry fits with zero variance, which the likelihood's floor rejects.
        assert gaussian_params([1.0]).sigma2 == 0.0
        with pytest.raises(DegenerateReferenceError):
            log_likelihood_ratio([1.0])

    def test_matches_two_pass_oracle(self, rng):
        d = rng.uniform(0.0, 10.0, size=1000)
        p = gaussian_params(d)
        mu, var = two_pass_mean_var(d)
        assert p.mu == pytest.approx(mu, rel=1e-12)
        assert p.sigma2 == pytest.approx(var, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 600),
            # A small pool of values makes ties common.
            elements=st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 3.25]),
                st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
            ),
        )
    )
    def test_bit_identical_to_numpy(self, d):
        # The eval CSVs are byte-identical across versions only if this holds.
        assert gaussian_params(d) == GaussianParams(float(d.mean()), float(d.var()))


class TestLogLikelihoodRatio:
    def test_matches_scalar_oracle(self):
        d = np.array([0.1, 0.9, 1.1, 0.9])
        got = log_likelihood_ratio(d)
        mu, var = two_pass_mean_var(d)
        counts = counts_oracle(d)
        want = np.array(
            [
                np.log(counts[i]) - stats.norm.logpdf(d[i], loc=mu, scale=np.sqrt(var))
                for i in range(len(d))
            ]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(DegenerateReferenceError):
            log_likelihood_ratio(np.full(6, 1.25))

    def test_variance_floor(self):
        d = np.full(6, 1.0)
        d[0] += 1e-9  # variance ~1.4e-19 at mean ~1, below the relative floor
        assert np.var(d) <= SIGMA2_MIN * np.mean(d) ** 2
        for c in (1e-150, 1e-7, 1.0, 1e150):  # the floor scales with the distances
            with pytest.raises(DegenerateReferenceError, match="times its square"):
                log_likelihood_ratio(c * d)

    def test_normalized_ratio_scale_invariant(self, rng):
        for _ in range(20):
            d = rng.uniform(0.5, 2.0, size=30)
            base = softmax(log_likelihood_ratio(d))
            for c in (1e-150, 1e-100, 1e-7, 1e-3, 7.0, 1e3, 1e100, 1e150):
                scaled = softmax(log_likelihood_ratio(c * d))
                np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    def test_finite_for_positive_variance(self, rng):
        d = rng.uniform(0.1, 4.0, size=100)
        assert np.all(np.isfinite(log_likelihood_ratio(d)))


def _tied_block(rng, rows, n):
    """Rows over a small pool of values, so that ties are common."""
    return rng.choice(np.round(rng.uniform(0.0, 3.0, size=max(1, n // 4)), 1), size=(rows, n))


class TestBlocks:
    """A (rows, N) block: every row is bit-identical to the row passed alone."""

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 3001])
    def test_rows_equal_one_row_calls(self, rng, n):
        block = _tied_block(rng, 5, n)
        block[1] = rng.uniform(0.5, 2.0, size=n)  # all distinct
        counts = place_match_counts(block)
        fit = gaussian_params(block)
        assert counts.shape == block.shape and counts.dtype == np.int64
        for r, row in enumerate(block):
            np.testing.assert_array_equal(counts[r], place_match_counts(row))
            alone = gaussian_params(row)
            assert (fit.mu[r], fit.sigma2[r]) == (alone.mu, alone.sigma2)

    @pytest.mark.parametrize("n", [500, 3000, 10000, 20000])
    def test_gaussian_rows_match_numpy(self, rng, n):
        block = rng.uniform(0.0, 1e3, size=(3, n))
        fit = gaussian_params(block)
        np.testing.assert_array_equal(fit.mu, [row.mean() for row in block])
        np.testing.assert_array_equal(fit.sigma2, [row.var() for row in block])

    def test_counts_match_quadratic_oracle(self, rng):
        for n in (1, 2, 3, 17, 60):
            block = _tied_block(rng, 8, n)
            counts = place_match_counts(block)
            for r, row in enumerate(block):
                np.testing.assert_array_equal(counts[r], counts_oracle(row))

    def test_ratio_rows_equal_one_row_calls(self, rng):
        block = _tied_block(rng, 6, 40)
        ratio = log_likelihood_ratio(block)
        for r, row in enumerate(block):
            np.testing.assert_array_equal(ratio[r], log_likelihood_ratio(row))

    def test_tied_and_tie_free_rows_in_one_block(self, rng):
        """A block with ties takes the run-start pass for every row, a tie-free one skips it."""
        block = rng.uniform(0.5, 2.0, size=(6, 50))  # rows 0 and 5 stay tie-free
        block[1, [4, 17, 30]] = block[1].min()  # tied at the minimum
        block[2, [0, 1, 49]] = block[2].max()  # tied at the maximum
        block[3] = np.round(block[3], 1)  # tied everywhere
        block[4] = rng.choice([0.5, 1.0, 1.5], size=50)
        for rows in (block, block[[0, 5]]):
            counts, ratio = place_match_counts(rows), log_likelihood_ratio(rows)
            for r, row in enumerate(rows):
                want = counts_oracle(row)
                np.testing.assert_array_equal(counts[r], want)
                np.testing.assert_array_equal(place_match_counts(row), want)
                assert ratio[r].tobytes() == log_likelihood_ratio(row).tobytes()

    def test_degenerate_row_is_nan_among_normal_rows(self, rng):
        block = rng.uniform(0.5, 2.0, size=(4, 30))
        block[2] = 1.25
        ratio = log_likelihood_ratio(block)
        assert np.isnan(ratio[2]).all()
        for r in (0, 1, 3):
            np.testing.assert_array_equal(ratio[r], log_likelihood_ratio(block[r]))
        with pytest.raises(DegenerateReferenceError):
            log_likelihood_ratio(block[2])

    def test_single_place_rows_are_degenerate(self):
        block = np.array([[0.5], [2.0]])
        np.testing.assert_array_equal(place_match_counts(block), [[1], [1]])
        assert np.isnan(log_likelihood_ratio(block)).all()

    def test_ratio_checks_each_block_twice(self, rng, monkeypatch):
        # Once at entry, in place_match_counts, and once in gaussian_params.
        block = rng.uniform(0.5, 2.0, size=(21, 500))
        isfinite = np.isfinite
        shapes = []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        log_likelihood_ratio(block)
        assert shapes.count((21, 500)) == 2

    @pytest.mark.parametrize("bad", [np.ones((2, 2, 2)), np.empty((0, 3)), [[1.0, np.nan]]])
    def test_bad_blocks_rejected(self, bad):
        for fn in (place_match_counts, gaussian_params, log_likelihood_ratio):
            with pytest.raises(ValidationError):
                fn(bad)

    def test_rank_message_names_both_ranks(self):
        for fn in (place_match_counts, gaussian_params, log_likelihood_ratio):
            with pytest.raises(ValidationError, match=r"distance vector must be a non-empty "
                               r"1-D or 2-D array, got shape \(2, 2, 2\)"):
                fn(np.ones((2, 2, 2)))


class TestVarianceOverflow:
    """Finite distances whose squared residuals overflow float64 are bad input.

    The distances below peak at 9.2e153, so the kernel accepts them, but the
    sum of their squared residuals overflows.  The likelihood's own check
    decides, whatever numpy's error settings.
    """

    @pytest.fixture
    def refs_and_query(self):
        rng = np.random.default_rng(0)
        refs = [ReferenceSet(label, 2e153 * rng.standard_normal((200, 2))) for label in "ab"]
        return refs, 2e153 * rng.standard_normal(2)

    def test_vector_and_block_rejected(self, rng, refs_and_query):
        stack = distance_stack(refs_and_query[1], refs_and_query[0])
        assert np.isfinite(stack.values).all()
        block = np.stack([rng.uniform(0.5, 2.0, size=200), stack.values[0]])
        for d in (stack.values[0], block):
            with pytest.raises(ValidationError, match="variance overflows"):
                log_likelihood_ratio(d)

    def test_rejected_when_numpy_raises(self):
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="variance overflows"):
                log_likelihood_ratio(np.array([0.0, 1e300, 1.0]))

    def test_squared_mean_beyond_float64_when_numpy_raises(self):
        # The variance (6.7e299) is finite, the relative floor's squared mean
        # (4e308) is not: the row reads as degenerate, whatever numpy's settings.
        d = np.array([2e154, 2.0001e154, 2.0002e154])
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateReferenceError, match="at mean 2.000e\\+154"):
                log_likelihood_ratio(d)
            assert np.isnan(log_likelihood_ratio(np.stack([d, [0.5, 1.0, 2.0]]))[0]).all()

    def test_posterior_and_belief_rows_rejected(self, refs_and_query):
        refs, query = refs_and_query
        stack = distance_stack(query, refs)
        with pytest.raises(ValidationError, match="variance overflows"):
            posterior(stack, select_references(stack), uniform_prior(200))
        for method in expand_methods("all", ["a", "b"]):
            if method.kind == "belief":
                with pytest.raises(ValidationError, match="variance overflows"):
                    method.score_row(stack)
            else:
                assert np.isfinite(method.score_row(stack)).all()

    def test_evaluation_rejected(self, refs_and_query):
        refs, query = refs_and_query
        ds = Dataset(refs, query[None], GroundTruth(np.array([0]), 0))
        with pytest.raises(ValidationError, match="variance overflows"):
            evaluate_method(ds, "bayes-selective")
