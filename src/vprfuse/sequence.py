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

from .errors import ValidationError, checked_array


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


def sequence_aggregate(
    matrix: ScoreMatrix, length: int, velocity: float = 1.0
) -> ScoreMatrix:
    """Average scores along trailing diagonal windows of the given length.

    ``length`` 1 returns the scores unchanged.  Place shifts are rounded to
    the nearest index (numpy rounding, ties to even).
    """
    if length < 1:
        raise ValidationError(f"sequence length must be >= 1, got {length}")
    if length > matrix.n_queries:
        raise ValidationError(
            f"sequence length {length} exceeds query count {matrix.n_queries}"
        )
    if not (0 < velocity < np.inf):
        raise ValidationError(f"velocity must be positive and finite, got {velocity}")
    scores = matrix.scores
    n_t, n_p = scores.shape
    acc = np.zeros_like(scores)
    count = np.zeros_like(scores)
    for k in range(length):
        shift = np.rint(velocity * k)
        if shift >= n_p:
            break  # shifts only grow with k; compared as a float, so inf is safe
        shift = int(shift)
        acc[k:, shift:] += scores[: n_t - k, : n_p - shift]
        count[k:, shift:] += 1.0
    # The k = 0 term always contributes, so count >= 1 everywhere.
    return ScoreMatrix(acc / count, method=matrix.method)

