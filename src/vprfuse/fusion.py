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
from .errors import DegenerateReferenceError, NoInformationError, ValidationError
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
    shifted = np.exp(log_scores - log_scores.max())
    return shifted / shifted.sum()


def posterior(
    stack: DistanceStack,
    selection: SelectionResult,
    prior: np.ndarray,
) -> Belief:
    """Fuse the selected reference sets with the prior into a belief.

    log_scores[i] = sum of per-set log likelihood ratios at place i, plus
    log prior[i]; ``normalized`` is its max-shifted softmax.  Sets whose
    likelihood is degenerate are recorded in ``dropped`` and excluded.
    """
    prior = _validated_prior(prior, stack.n_places)
    if selection.minima.shape[0] != stack.n_refs:
        raise ValidationError(
            f"selection covers {selection.minima.shape[0]} sets, stack has {stack.n_refs}"
        )
    with np.errstate(divide="ignore"):  # one-hot priors contain zeros
        log_scores = np.log(prior)
    dropped: list[int] = []
    contributed = 0
    for u in selection.selected:
        try:
            log_scores = log_scores + log_likelihood_ratio(stack.values[u])
            contributed += 1
        except DegenerateReferenceError:
            dropped.append(u)
    if contributed == 0:
        raise NoInformationError(
            f"all {len(selection.selected)} selected reference sets are degenerate"
        )
    return Belief(
        log_scores=log_scores,
        normalized=_normalize_log_scores(log_scores),
        dropped=tuple(dropped),
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
