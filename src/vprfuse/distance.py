"""Descriptor distances and per-query distance vectors.

All distances are accumulated in double precision regardless of the input
dtype, so vectorized and scalar code paths agree with independent summation
oracles to well under 1e-6 relative.

The distance is Euclidean.  One kernel computes a query's whole stack: one
matrix-vector product per set into a (sets, places) array, then the expanded
form ``|r|^2 - 2 r.q + |q|^2`` (an order of magnitude faster than explicit
differences at realistic sizes) on the whole array.  Entries subject to
cancellation are re-evaluated with the exact difference form, so a query
identical to a stored descriptor yields a distance of exactly zero.  Each
entry takes the same operations as for its set alone, so rows never depend
on which other sets share the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_array
from .ingest import ReferenceSet, _assembled, _reference_sets

# Squared distances below this fraction of their term magnitudes are
# recomputed with the exact difference form (cancellation guard).
_RECHECK_REL = 1e-10


@dataclass(frozen=True)
class DistanceStack:
    """One distance vector per reference set, rows ordered by set index."""

    values: np.ndarray  # (n_refs, n_places)

    def __post_init__(self):
        arr = checked_array(self.values, 2, "distance stack")
        if (arr < 0).any():
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


def _distances(q: np.ndarray, refs: list[ReferenceSet]) -> np.ndarray:
    """Kernel: (M, N) distances from a validated float64 query; checks every set first."""
    n, dim = _reference_sets(refs)
    if dim != q.shape[0]:
        raise ValidationError(f"dimension mismatch: query {q.shape[0]}, reference {dim}")
    # Finite inputs can overflow the expanded form (near 1e200); inf or NaN is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = np.empty((len(refs), n))
        row_sq_norms = np.empty((len(refs), n))
        for u, ref in enumerate(refs):
            np.matmul(ref.descriptors, q, out=d2[u])
            row_sq_norms[u] = ref.sq_norms
        q_sq = float(q @ q)
        d2 *= -2.0
        d2 += row_sq_norms
        d2 += q_sq
        np.maximum(d2, 0.0, out=d2)
        row_sq_norms += q_sq  # the bound, formed in place over this call's copy
        row_sq_norms *= _RECHECK_REL
        suspect = d2 <= row_sq_norms
        if suspect.any():
            for u in np.flatnonzero(suspect.any(axis=1)):
                diff = refs[u].descriptors[suspect[u]] - q
                d2[u, suspect[u]] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(d2, out=d2)
    if not np.isfinite(d2).all():
        raise ValidationError("distance stack contains non-finite values")
    return d2


def distance_vector(query: np.ndarray, ref: ReferenceSet | np.ndarray) -> np.ndarray:
    """Distances from one query to every place descriptor of one reference set.

    Entry ``i`` equals the Euclidean distance from ``query`` to row ``i`` (to
    within double-precision summation-order differences; exact matches give
    exactly 0).
    A raw array is wrapped in a ReferenceSet, so it is validated the same way.
    """
    if not isinstance(ref, ReferenceSet):
        ref = ReferenceSet("array", ref)
    return _distances(checked_array(query, 1, "query"), [ref])[0]


def distance_stack(query: np.ndarray, refs: list[ReferenceSet]) -> DistanceStack:
    """Distance vectors for one query against every reference set, in order.

    The query is validated once for the whole stack.
    """
    return _assembled(DistanceStack, values=_distances(checked_array(query, 1, "query"), refs))
