"""Bayesian fusion of selected reference sets into a place belief.

Selected sets contribute independent log-likelihood-ratio terms, which are
summed with the log prior and normalized (all in the log domain: the
equivalent product over sets underflows in linear space at realistic place
counts).  Degenerate sets are dropped from the sum rather than aborting the
query; a query where every selected set is degenerate raises
NoInformationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DistanceStack
from .errors import NoInformationError, ValidationError
from .likelihood import log_likelihood_ratio
from .selection import SelectionResult

_PRIOR_SUM_TOL = 1e-9


def uniform_prior(n_places: int) -> np.ndarray:
    if n_places < 1:
        raise ValidationError("prior needs at least one place")
    return np.full(n_places, 1.0 / n_places)


def _validated_prior(prior: np.ndarray, n_places: int) -> np.ndarray:
    arr = np.asarray(prior, dtype=np.float64)
    if arr.shape != (n_places,):
        raise ValidationError(f"prior must have shape ({n_places},), got {arr.shape}")
    if (arr < 0).any() or not np.isfinite(arr).all():
        raise ValidationError("prior entries must be finite and non-negative")
    total = arr.sum()
    if abs(total - 1.0) > _PRIOR_SUM_TOL:
        raise ValidationError(f"prior must sum to 1, got {total!r}")
    return arr


@dataclass(frozen=True)
class Belief:
    """Posterior over places: unnormalized log scores plus their normalization."""

    log_scores: np.ndarray
    normalized: np.ndarray
    dropped: tuple[int, ...] = ()  # selected sets excluded as degenerate


@dataclass(frozen=True)
class PlaceDecision:
    """Thresholded decision: a place match or an abstention.

    ``confidence`` always holds the maximum normalized belief, also for
    abstentions (it is the value the threshold was compared against).
    """

    place: int | None
    confidence: float

    @property
    def matched(self) -> bool:
        return self.place is not None


def _normalize_log_scores(log_scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of a score vector, or of each row of a block."""
    shifted = np.exp(log_scores - log_scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def fused_log_scores(
    values: np.ndarray, selected: np.ndarray, log_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Block kernel of ``posterior``: log prior plus the selected sets' log ratios.

    ``values`` holds a block of queries' (sets, places) distance stacks and
    ``selected`` their (queries, sets) selection mask.  Sets are added in
    ascending order, each as one block of the queries that selected it, so
    every row is bit-identical to its query fused alone.  Returns the
    (queries, places) log scores and the (queries, sets) mask of the sets
    that contributed; a selected set whose distances are degenerate for a
    query is left out of that query's sum.
    """
    log_scores = np.empty((values.shape[0], values.shape[2]))
    log_scores[:] = log_prior
    used = np.zeros(selected.shape, dtype=bool)
    for u in range(values.shape[1]):
        rows = np.flatnonzero(selected[:, u])
        if rows.size == 0:
            continue
        ratio = log_likelihood_ratio(values[rows, u])
        usable = ~np.isnan(ratio[:, 0])  # NaN marks a degenerate row
        if not usable.all():
            rows, ratio = rows[usable], ratio[usable]
        log_scores[rows] += ratio
        used[rows, u] = True
    return log_scores, used


def posterior(
    stack: DistanceStack,
    selection: SelectionResult,
    prior: np.ndarray,
) -> Belief:
    """Fuse the selected reference sets with the prior into a belief.

    log_scores[i] = sum of per-set log likelihood ratios at place i, plus
    log prior[i]; ``normalized`` is its max-shifted softmax.  Sets whose
    likelihood is degenerate are recorded in ``dropped`` and excluded.
    This is the one-query case of ``fused_log_scores``.
    """
    prior = _validated_prior(prior, stack.n_places)
    selected = selection.mask
    if selected.shape[0] != stack.n_refs:
        raise ValidationError(
            f"selection covers {selected.shape[0]} sets, stack has {stack.n_refs}"
        )
    with np.errstate(divide="ignore"):  # one-hot priors contain zeros
        log_prior = np.log(prior)
    log_scores, used = fused_log_scores(stack.values[None], selected[None], log_prior)
    if not used.any():
        raise NoInformationError(
            f"all {selection.n_selected} selected reference sets are degenerate"
        )
    return Belief(
        log_scores=log_scores[0],
        normalized=_normalize_log_scores(log_scores[0]),
        dropped=tuple(np.flatnonzero(selected & ~used[0]).tolist()),
    )


def decide(belief: Belief, h: float) -> PlaceDecision:
    """Match the maximum-belief place if its belief strictly exceeds h.

    Argmax ties break toward the lowest place index; a belief exactly equal
    to h abstains.
    """
    if not (h > 0):
        raise ValidationError(f"decision threshold must be positive, got {h}")
    place = int(np.argmax(belief.normalized))
    confidence = float(belief.normalized[place])
    return PlaceDecision(
        place=place if confidence > h else None,
        confidence=confidence,
    )
