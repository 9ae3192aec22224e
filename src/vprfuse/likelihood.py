"""Training-free single-reference likelihood ratios.

For one distance vector D over N places, the place-match likelihood of place
i is proportional to the number of entries at least as large as D[i] (a rank
count encoding "small distance means likely match"), and the non-place-match
likelihood is a Gaussian fitted to all entries of D.  The log ratio

    log(counts[i]) - log N(D[i]; mu, sigma^2)

is returned up to per-vector additive constants, which downstream
normalization removes.  The mean and variance deliberately include the
true-match entry; with realistic N the bias is negligible.

Every function takes one vector or a (rows, N) block of them and works
along the last axis; a vector is the one-row case, and each row of a block
is bit-identical to the same row passed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReferenceError, ValidationError, _real_array, checked_array

# Variance floor below which a distance vector carries no contrast.
SIGMA2_MIN = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianParams:
    """Mean and population variance of one distance vector (floats), or of
    each row of a block ((rows,) arrays)."""

    mu: float | np.ndarray
    sigma2: float | np.ndarray


def _distance_rows(d) -> np.ndarray:
    """``d`` as a checked float64 vector or (rows, N) block."""
    ndim = _real_array(d, "distance vector").ndim
    return checked_array(d, 2 if ndim == 2 else 1, "distance vector")


def place_match_counts(d: np.ndarray) -> np.ndarray:
    """counts[i] = number of entries j with d[i] <= d[j], ties counted.

    Every count is in 1..N (entry i always counts itself); with all-distinct
    distances the counts are a permutation of 1..N, and the maximum count
    lands on the minimum distance.  Computed in O(N log N) via sorting: in
    sorted order, an entry's count is N minus the index where its run of
    equal values starts.
    """
    arr = _distance_rows(d)
    n = arr.shape[-1]
    # Each row's sort order, as positions in the flattened block.
    flat = np.argsort(arr, axis=-1) + np.arange(0, arr.size, n).reshape(-1, 1)
    ranked = arr.reshape(-1)[flat]
    run_start = np.zeros(flat.shape, dtype=np.int64)
    run_start[:, 1:] = (ranked[:, 1:] != ranked[:, :-1]) * np.arange(1, n)
    np.maximum.accumulate(run_start, axis=-1, out=run_start)
    counts = np.empty(arr.shape, dtype=np.int64)
    counts.reshape(-1)[flat] = n - run_start
    return counts


def gaussian_params(d: np.ndarray) -> GaussianParams:
    """Fit the background (non-match) distance model: mean and population variance.

    Bit-identical to ``arr.mean()`` and ``arr.var()`` of each vector: the
    same ufunc reductions, row by row along the contiguous last axis.
    """
    arr = _distance_rows(d)
    n = arr.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by the caller
        mu = np.add.reduce(arr, axis=-1, keepdims=True) / n
        sigma2 = np.add.reduce(np.square(arr - mu), axis=-1) / n
    if arr.ndim == 1:
        return GaussianParams(mu=float(mu[0]), sigma2=float(sigma2))
    return GaussianParams(mu=mu[:, 0], sigma2=sigma2)


def log_likelihood_ratio(d: np.ndarray) -> np.ndarray:
    """Per-place log likelihood ratio of one distance vector, or of each row.

    Entry i is log(counts[i]) minus the Gaussian log-density of d[i] under
    the background model.  A row with (numerically) zero variance offers no
    contrast and its ratio would be unbounded: a vector raises
    DegenerateReferenceError, a block row comes back as NaN.  A variance
    that overflows float64 raises ValidationError.  Other rows are finite.
    """
    arr = _distance_rows(d)
    rows = arr.reshape(-1, arr.shape[-1])
    counts = place_match_counts(rows)
    fit = gaussian_params(rows)
    if not np.isfinite(fit.sigma2).all():
        raise ValidationError("distance variance overflows float64")
    usable = fit.sigma2 > SIGMA2_MIN
    if arr.ndim == 1 and not usable[0]:
        raise DegenerateReferenceError(
            f"distance variance {fit.sigma2[0]:.3e} below {SIGMA2_MIN:.0e}"
        )
    # Degenerate rows are computed with variance 1, then overwritten by NaN.
    sigma2 = np.where(usable, fit.sigma2, 1.0)
    # Each row's normalizer from its Python float, as for a vector alone.
    norm = np.array([-0.5 * (_LOG_2PI + math.log(s)) for s in sigma2.tolist()])
    resid = rows - fit.mu[:, None]
    log_pdf = norm[:, None] - resid * resid / (2.0 * sigma2[:, None])
    ratio = np.log(counts) - log_pdf
    ratio[~usable] = np.nan
    return ratio.reshape(arr.shape)
