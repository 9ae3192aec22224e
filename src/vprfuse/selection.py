"""Per-query selection of informative reference sets.

A reference set is kept when its minimum distance to the query exceeds the
best set's minimum by at most a relative fraction gamma.  The criterion is a
ratio, so the selected subset is invariant under uniform scaling of all
distances.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceStack
from .errors import ValidationError

# Fixed default; values in roughly [0.04, 0.1] behave well across datasets.
DEFAULT_GAMMA = 0.04


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of reference-set selection for one query.

    ``mask`` holds one bool per set of the stack, True where selected;
    ``best`` is always selected.  ``zero_limit`` marks the limit
    interpretation used when the best minimum is exactly zero (the relative
    criterion is then undefined and exactly the zero-minimum sets are kept).
    """

    best: int
    mask: np.ndarray
    minima: np.ndarray = field(repr=False)
    zero_limit: bool = False

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask).tolist())

    @property
    def n_selected(self) -> int:
        return int(np.count_nonzero(self.mask))


def _check_gamma(gamma: float) -> None:
    if not (gamma > 0):
        raise ValidationError(f"gamma must be positive, got {gamma}")


def select_references(stack: DistanceStack, gamma: float = DEFAULT_GAMMA) -> SelectionResult:
    """Keep the sets whose minimum is within a relative fraction gamma of the best."""
    _check_gamma(gamma)
    minima = stack.minima()
    best = int(np.argmin(minima))
    floor = minima[best]
    zero_limit = bool(floor == 0.0)
    keep = minima == 0.0 if zero_limit else (minima - floor) / floor <= gamma
    return SelectionResult(
        best=best,
        mask=keep,
        minima=minima,
        zero_limit=zero_limit,
    )


def select_all(stack: DistanceStack) -> SelectionResult:
    """Forced selection of every reference set (full-fusion ablation)."""
    minima = stack.minima()
    return SelectionResult(
        best=int(np.argmin(minima)),
        mask=np.ones(stack.n_refs, dtype=bool),
        minima=minima,
    )


def select_single(stack: DistanceStack, index: int) -> SelectionResult:
    """Forced selection of one reference set (single-reference methods)."""
    try:  # a bool is no index: True would select set 1
        index = operator.index(None if isinstance(index, bool) else index)
    except TypeError:
        raise ValidationError(f"reference index must be an integer, got {index!r}") from None
    if not 0 <= index < stack.n_refs:
        raise ValidationError(
            f"reference index {index} out of range for {stack.n_refs} sets"
        )
    return SelectionResult(
        best=index,
        mask=np.arange(stack.n_refs) == index,
        minima=stack.minima(),
    )
