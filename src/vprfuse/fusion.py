"""Bayesian fusion of selected reference sets into a place belief.

Selected sets contribute independent log-likelihood-ratio terms, which are
summed with the log prior and normalized (all in the log domain: the
equivalent product over sets underflows in linear space at realistic place
counts).  Degenerate sets are dropped from the sum rather than aborting the
query.  When every selected set of a query is degenerate, ``posterior``
raises NoInformationError, while ``Method`` falls back to the prior row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DistanceStack
from .errors import NoInformationError, ValidationError, _real_array, checked_array
from .likelihood import log_likelihood_ratio
from .selection import SelectionResult

_PRIOR_SUM_TOL = 1e-9


def uniform_prior(n_places: int) -> np.ndarray:
    if n_places < 1:
        raise ValidationError("prior needs at least one place")
    return np.full(n_places, 1.0 / n_places)


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
    """Max-shifted softmax of a vector or of each block row, in place over one new array."""
    shifted = log_scores - log_scores.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    return np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)


def _checked_selection(selected, values: np.ndarray) -> np.ndarray:
    """``selected`` as the bool (queries, sets) mask of ``values``, or ValidationError."""
    selected = _real_array(selected, "selection")
    if selected.dtype != bool or selected.shape != values.shape[:2]:
        raise ValidationError(
            f"need one selection over {values.shape[1]} sets per query, "
            f"for {values.shape[0]} queries"
        )
    if not selected.any(axis=1).all():
        raise ValidationError("every query must select at least one set")
    return selected


def fused_log_scores(
    values: np.ndarray, selected: np.ndarray, log_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Block kernel of ``posterior``: log prior plus the selected sets' log ratios.

    ``values`` holds a block of queries' (sets, places) distance stacks and
    ``selected`` their (queries, sets) selection mask.  Sets are added in
    ascending order, each as one block of the queries that selected it (a
    slice when all did), so every row is bit-identical to its query fused
    alone.  Returns the (queries, places) log scores and the (queries, sets)
    mask of the sets that contributed; a selected set whose distances are
    degenerate for a query is left out of that query's sum.
    """
    log_scores = np.tile(log_prior, (values.shape[0], 1))
    used = np.zeros(selected.shape, dtype=bool)
    for u in range(values.shape[1]):
        column = selected[:, u]
        if not column.any():
            continue
        rows = slice(None) if column.all() else np.flatnonzero(column)
        ratio = log_likelihood_ratio(values[rows, u])
        usable = ~np.isnan(ratio[:, 0])  # NaN marks a degenerate row
        if not usable.all():
            rows, ratio = np.flatnonzero(column)[usable], ratio[usable]
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
    prior = checked_array(prior, 1, "prior")
    if prior.shape != (stack.n_places,):
        raise ValidationError(f"prior must have shape ({stack.n_places},), got {prior.shape}")
    if (prior < 0).any():
        raise ValidationError("prior entries must be non-negative")
    total = prior.sum()
    if abs(total - 1.0) > _PRIOR_SUM_TOL:
        raise ValidationError(f"prior must sum to 1, got {total!r}")
    selected = _checked_selection([selection.mask], stack.values[None])
    with np.errstate(divide="ignore"):  # one-hot priors contain zeros
        log_prior = np.log(prior)
    log_scores, used = fused_log_scores(stack.values[None], selected, log_prior)
    if not used.any():
        raise NoInformationError(
            f"all {selection.n_selected} selected reference sets are degenerate"
        )
    return Belief(
        log_scores=log_scores[0],
        normalized=_normalize_log_scores(log_scores[0]),
        dropped=tuple(np.flatnonzero(selected[0] & ~used[0]).tolist()),
    )


def _decided(rows: np.ndarray):
    """Each score row's first argmax, its score there, and whether the row decides.

    The one decision rule of ``decide``, ``evaluate_method`` and ``match``.
    A row decides when it has contrast (its maximum exceeds its minimum) or
    when there is only one place: a row that scores every place alike
    carries no information.  Takes one row or a (rows, places) block.
    """
    places = rows.argmax(axis=-1)
    scores = np.take_along_axis(rows, np.expand_dims(places, -1), axis=-1)[..., 0]
    return places, scores, (scores != rows.min(axis=-1)) | (rows.shape[-1] == 1)


def decide(belief: Belief, h: float) -> PlaceDecision:
    """Match the maximum-belief place if its belief strictly exceeds h.

    Argmax ties break toward the lowest place index; a belief exactly equal
    to h, or a belief without contrast over several places, abstains.
    """
    if not (h > 0):
        raise ValidationError(f"decision threshold must be positive, got {h}")
    place, confidence, decides = _decided(belief.normalized)
    matched = bool(decides) and confidence > h
    return PlaceDecision(place=int(place) if matched else None, confidence=float(confidence))
