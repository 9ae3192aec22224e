"""Temporal aggregation of per-query place scores over a sliding window.

A deliberately simple sequence matcher: a trailing straight-line window of
length L at velocity v averages, for output cell (t, i), the input scores at
(t - k, i - round(v*k)) for k = 0..L-1.  Out-of-range terms are skipped and
the average renormalized by the number of included terms, so early queries
and edge places still receive scores.  There is no velocity search or local
contrast normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _integer, _real, checked_array


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-query, per-place scores (higher = better), rows in temporal order."""

    scores: np.ndarray  # (n_queries, n_places)
    method: str = ""

    def __post_init__(self):
        object.__setattr__(self, "scores", checked_array(self.scores, 2, "score matrix"))

    @property
    def n_queries(self) -> int:
        return self.scores.shape[0]


def _check_window(length: int, n_queries: int, velocity: float) -> float:
    """``velocity`` as a float; ValidationError unless the window fits ``n_queries`` queries."""
    if _integer(length, "sequence length", 1) > n_queries:
        raise ValidationError(f"sequence length {length} exceeds query count {n_queries}")
    return _real(velocity, "velocity", positive=True, below=np.inf)


def sequence_aggregate(
    matrix: ScoreMatrix, length: int, velocity: float = 1.0
) -> ScoreMatrix:
    """Average scores along trailing diagonal windows of the given length.

    ``length`` 1 returns the scores unchanged.  Place shifts are rounded to
    the nearest index (numpy rounding, ties to even).  Each cell sums its
    terms in k order from +0.0, then is divided in place by their count.
    """
    velocity = _check_window(length, matrix.n_queries, velocity)
    scores = matrix.scores
    n_t, n_p = scores.shape
    acc = np.zeros_like(scores)
    shifts = []
    for k in range(length):
        shift = np.rint(velocity * k)
        if shift >= n_p:
            break  # shifts only grow with k; compared as a float, so inf is safe
        shifts.append(int(shift))
        acc[k:, shifts[k] :] += scores[: n_t - k, : n_p - shifts[k]]
    # Shifts never decrease, so cell (t, i) summed min(t + 1, terms[i]) terms,
    # and terms[i] >= 1 because shift 0 always contributes.
    terms = np.searchsorted(shifts, np.arange(n_p), side="right")
    full = len(shifts) - 1
    acc[full:] /= terms
    acc[:full] /= np.minimum(np.arange(1, full + 1)[:, None], terms)
    return ScoreMatrix(acc, method=matrix.method)

