"""Descriptor distances and per-query distance vectors.

All distances are accumulated in double precision regardless of the input
dtype, so vectorized and scalar code paths agree with independent summation
oracles to well under 1e-6 relative.

The distance is Euclidean.  Its batch kernel uses the expanded form
``|r|^2 - 2 r.q + |q|^2`` (a matrix-vector product, an order of magnitude
faster than forming explicit differences at realistic sizes) and re-evaluates
any entry subject to cancellation with the exact difference form, so a query
identical to a stored descriptor yields a distance of exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import ReferenceSet

# Squared distances below this fraction of their term magnitudes are
# recomputed with the exact difference form (cancellation guard).
_RECHECK_REL = 1e-10


@dataclass(frozen=True)
class DistanceStack:
    """One distance vector per reference set, rows ordered by set index."""

    values: np.ndarray  # (n_refs, n_places)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(
                f"distance stack must be a non-empty 2-D array, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("distance stack contains non-finite entries")
        if np.any(arr < 0):
            raise ValidationError("distance stack contains negative entries")
        object.__setattr__(self, "values", arr)

    @property
    def n_refs(self) -> int:
        return self.values.shape[0]

    @property
    def n_places(self) -> int:
        return self.values.shape[1]

    def minima(self) -> np.ndarray:
        """Per-reference-set minimum distance."""
        return self.values.min(axis=1)


def _as_query(query: np.ndarray) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] == 0:
        raise ValidationError(f"query must be a non-empty 1-D vector, got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValidationError("query contains non-finite values")
    return q


def _distances(q: np.ndarray, ref: ReferenceSet) -> np.ndarray:
    """Kernel: distances from a validated float64 query to every row of ``ref``."""
    rows, row_sq_norms = ref.descriptors, ref.sq_norms
    if rows.shape[1] != q.shape[0]:
        raise ValidationError(
            f"dimension mismatch: query {q.shape[0]}, reference {rows.shape[1]}"
        )
    q_sq = float(q @ q)
    d2 = row_sq_norms - 2.0 * (rows @ q) + q_sq
    np.maximum(d2, 0.0, out=d2)
    suspect = d2 <= _RECHECK_REL * (row_sq_norms + q_sq)
    if np.any(suspect):
        diff = rows[suspect] - q
        d2[suspect] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(d2)


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two descriptors (double-precision)."""
    a, b = _as_query(a), _as_query(b)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    return float(np.sqrt(d @ d))


def distance_vector(query: np.ndarray, ref: ReferenceSet | np.ndarray) -> np.ndarray:
    """Distances from one query to every place descriptor of one reference set.

    Entry ``i`` equals ``euclidean_distance(query, descriptors[i])`` (to within
    double-precision summation-order differences; exact matches give exactly 0).
    A raw array is wrapped in a ReferenceSet, so it is validated the same way.
    """
    if not isinstance(ref, ReferenceSet):
        ref = ReferenceSet("array", ref)
    return _distances(_as_query(query), ref)


def distance_stack(query: np.ndarray, refs: list[ReferenceSet]) -> DistanceStack:
    """Distance vectors for one query against every reference set, in order.

    The query is validated once for the whole stack.
    """
    if not refs:
        raise ValidationError("need at least one reference set")
    n = refs[0].n_places
    for ref in refs:
        if ref.n_places != n:
            raise ValidationError(
                f"reference set {ref.label!r} has {ref.n_places} places, expected {n}"
            )
    q = _as_query(query)
    return DistanceStack(np.stack([_distances(q, ref) for ref in refs]))
