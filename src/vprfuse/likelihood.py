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

from .errors import DegenerateReferenceError, ValidationError, checked_array

# Relative variance floor: a distance vector whose variance is at most
# SIGMA2_MIN times its squared mean carries no contrast, at any scale.
SIGMA2_MIN = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianParams:
    """Mean and population variance of one distance vector (floats), or of
    each row of a block ((rows,) arrays)."""

    mu: float | np.ndarray
    sigma2: float | np.ndarray


def place_match_counts(d: np.ndarray) -> np.ndarray:
    """counts[i] = number of entries j with d[i] <= d[j], ties counted.

    Every count is in 1..N (entry i always counts itself); with all-distinct
    distances the counts are a permutation of 1..N, and the maximum count
    lands on the minimum distance.  Computed in O(N log N) via sorting: in
    sorted order, an entry's count is N minus the index where its run of
    equal values starts; the run-start pass runs only for a block with ties.
    """
    arr = checked_array(d, (1, 2), "distance vector")
    n = arr.shape[-1]
    # Each row's sort order, as positions in the flattened block.
    flat = np.argsort(arr.reshape(-1, n), axis=-1)
    flat += np.arange(0, arr.size, n).reshape(-1, 1)
    ranked = arr.reshape(-1)[flat]
    starts = np.ones(flat.shape, dtype=bool)  # where each run of equal values starts
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run_start = np.arange(n)  # each entry's own position, unless the block has ties
    if not starts.all():
        run_start = np.maximum.accumulate(starts * run_start, axis=-1)
    counts = np.empty(arr.shape, dtype=np.int64)
    counts.reshape(-1)[flat] = n - run_start
    return counts


def gaussian_params(d: np.ndarray) -> GaussianParams:
    """Fit the background (non-match) distance model: mean and population variance.

    Bit-identical to ``arr.mean()`` and ``arr.var()`` of each vector: the
    same ufunc reductions, row by row along the contiguous last axis.
    """
    arr = checked_array(d, (1, 2), "distance vector")
    n = arr.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected by the caller
        mu = np.add.reduce(arr, axis=-1, keepdims=True) / n
        dev = arr - mu
        sigma2 = np.add.reduce(np.square(dev, out=dev), axis=-1) / n
    if arr.ndim == 1:
        return GaussianParams(mu=float(mu[0]), sigma2=float(sigma2))
    return GaussianParams(mu=mu[:, 0], sigma2=sigma2)


def log_likelihood_ratio(d: np.ndarray) -> np.ndarray:
    """Per-place log likelihood ratio of one distance vector, or of each row.

    Entry i is log(counts[i]) minus the Gaussian log-density of d[i] under
    the background model.  A row whose variance is at most SIGMA2_MIN times
    its squared mean offers no contrast and would be unbounded: a vector raises
    DegenerateReferenceError, a block row comes back as NaN.  A variance
    that overflows float64 raises ValidationError.  Other rows are finite.
    """
    counts = place_match_counts(d)  # also the entry check of ``d``
    rows = np.asarray(d, dtype=np.float64).reshape(-1, counts.shape[-1])
    fit = gaussian_params(rows)
    if not np.isfinite(fit.sigma2).all():
        raise ValidationError("distance variance overflows float64")
    with np.errstate(over="ignore"):  # a squared mean beyond float64 reads as no contrast
        usable = fit.sigma2 > SIGMA2_MIN * np.square(fit.mu)
    if counts.ndim == 1 and not usable[0]:
        raise DegenerateReferenceError(f"distance variance {fit.sigma2[0]:.3e} at mean "
                                       f"{fit.mu[0]:.3e} is at most {SIGMA2_MIN:.0e} times its square")
    # Degenerate rows are computed with variance 1, then overwritten by NaN.
    sigma2 = np.where(usable, fit.sigma2, 1.0)
    # Each row's normalizer from its Python float, as for a vector alone.
    norm = np.array([-0.5 * (_LOG_2PI + math.log(s)) for s in sigma2.tolist()])
    log_pdf = rows - fit.mu[:, None]  # then norm - resid**2 / (2 sigma2), in place
    log_pdf *= log_pdf
    log_pdf /= 2.0 * sigma2[:, None]
    np.subtract(norm[:, None], log_pdf, out=log_pdf)
    ratio = np.log(counts).reshape(log_pdf.shape)
    ratio -= log_pdf
    ratio[~usable] = np.nan
    return ratio.reshape(counts.shape)
