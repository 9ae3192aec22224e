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

from .errors import ValidationError


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-query, per-place scores (higher = better), rows in temporal order."""

    scores: np.ndarray  # (n_queries, n_places)
    method: str = ""

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(
                f"score matrix must be a non-empty 2-D array, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("score matrix contains non-finite entries")
        object.__setattr__(self, "scores", arr)

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
    if not (velocity > 0):
        raise ValidationError(f"velocity must be positive, got {velocity}")
    scores = matrix.scores
    n_t, n_p = scores.shape
    acc = np.zeros_like(scores)
    count = np.zeros_like(scores)
    for k in range(length):
        shift = int(np.rint(velocity * k))
        if shift >= n_p:
            continue
        acc[k:, shift:] += scores[: n_t - k, : n_p - shift]
        count[k:, shift:] += 1.0
    # The k = 0 term always contributes, so count >= 1 everywhere.
    return ScoreMatrix(acc / count, method=matrix.method)

