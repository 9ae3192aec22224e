"""Rank counts, the Gaussian background fit and the log likelihood ratio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from vprfuse import (
    SIGMA2_MIN,
    GaussianParams,
    gaussian_params,
    log_likelihood_ratio,
    place_match_counts,
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
        d[0] += 1e-9  # variance ~1.4e-19, below the floor
        assert np.var(d) <= SIGMA2_MIN
        with pytest.raises(DegenerateReferenceError):
            log_likelihood_ratio(d)

    def test_normalized_ratio_scale_invariant(self, rng):
        for _ in range(20):
            d = rng.uniform(0.5, 2.0, size=30)
            base = softmax(log_likelihood_ratio(d))
            for c in (1e-3, 7.0, 1e3):
                scaled = softmax(log_likelihood_ratio(c * d))
                np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    def test_finite_for_positive_variance(self, rng):
        d = rng.uniform(0.1, 4.0, size=100)
        assert np.all(np.isfinite(log_likelihood_ratio(d)))
