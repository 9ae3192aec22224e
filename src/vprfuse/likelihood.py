"""Training-free single-reference likelihood ratios.

For one distance vector D over N places, the place-match likelihood of place
i is proportional to the number of entries at least as large as D[i] (a rank
count encoding "small distance means likely match"), and the non-place-match
likelihood is a Gaussian fitted to all entries of D.  The log ratio

    log(counts[i]) - log N(D[i]; mu, sigma^2)

is returned up to per-vector additive constants, which downstream
normalization removes.  The mean and variance deliberately include the
true-match entry; with realistic N the bias is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReferenceError, InsufficientDataError, ValidationError

# Variance floor below which a distance vector carries no contrast.
SIGMA2_MIN = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


def _as_distances(d: np.ndarray) -> np.ndarray:
    arr = np.asarray(d, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValidationError(f"distance vector must be non-empty 1-D, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("distance vector contains non-finite entries")
    return arr


@dataclass(frozen=True)
class GaussianParams:
    """Mean and population variance of one distance vector."""

    mu: float
    sigma2: float


def place_match_counts(d: np.ndarray) -> np.ndarray:
    """counts[i] = number of entries j with d[i] <= d[j], ties counted.

    Every count is in 1..N (entry i always counts itself); with all-distinct
    distances the counts are a permutation of 1..N, and the maximum count
    lands on the minimum distance.  Computed in O(N log N) via sorting.
    """
    arr = _as_distances(d)
    order = np.sort(arr)
    strictly_below = np.searchsorted(order, arr, side="left")
    return (arr.shape[0] - strictly_below).astype(np.int64)


def gaussian_params(d: np.ndarray) -> GaussianParams:
    """Fit the background (non-match) distance model: mean and population variance."""
    arr = _as_distances(d)
    if arr.shape[0] < 2:
        raise InsufficientDataError(
            "background model needs at least 2 places, got 1"
        )
    return GaussianParams(mu=float(arr.mean()), sigma2=float(arr.var()))


def log_likelihood_ratio(d: np.ndarray) -> np.ndarray:
    """Per-place log likelihood ratio of one distance vector.

    Entry i is log(counts[i]) minus the Gaussian log-density of d[i] under
    the background model.  Raises DegenerateReferenceError when the vector
    has (numerically) zero variance: such a set offers no contrast between
    places and the ratio would be unbounded.
    """
    counts = place_match_counts(d)
    params = gaussian_params(d)
    if params.sigma2 <= SIGMA2_MIN:
        raise DegenerateReferenceError(
            f"distance variance {params.sigma2:.3e} below {SIGMA2_MIN:.0e}"
        )
    resid = np.asarray(d, dtype=np.float64) - params.mu
    log_pdf = -0.5 * (_LOG_2PI + math.log(params.sigma2)) - resid * resid / (
        2.0 * params.sigma2
    )
    return np.log(counts) - log_pdf
