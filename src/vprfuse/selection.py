"""Per-query selection of informative reference sets.

A reference set is kept when its minimum distance to the query exceeds the
best set's minimum by at most a relative fraction gamma.  The criterion is a
ratio, so the selected subset is invariant under uniform scaling of all
distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import DistanceStack
from .errors import ValidationError

# Fixed default; values in roughly [0.04, 0.1] behave well across datasets.
DEFAULT_GAMMA = 0.04


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of reference-set selection for one query.

    ``best`` is always a member of ``selected``.  ``zero_limit`` marks the
    limit interpretation used when the best minimum is exactly zero (the
    relative criterion is then undefined and exactly the zero-minimum sets
    are kept).
    """

    best: int
    selected: tuple[int, ...]
    minima: np.ndarray = field(repr=False)
    zero_limit: bool = False

    def __post_init__(self):
        if not self.selected:
            raise ValidationError("selection must keep at least one reference set")
        if self.best not in self.selected:
            raise ValidationError("best reference set must be selected")

    @property
    def n_selected(self) -> int:
        return len(self.selected)


def best_reference(stack: DistanceStack) -> int:
    """Index of the reference set containing the overall minimum distance.

    Ties break toward the lowest set index.
    """
    return int(np.argmin(stack.minima()))


def select_references(stack: DistanceStack, gamma: float = DEFAULT_GAMMA) -> SelectionResult:
    """Keep the sets whose minimum is within a relative fraction gamma of the best."""
    if not (gamma > 0):
        raise ValidationError(f"gamma must be positive, got {gamma}")
    minima = stack.minima()
    best = int(np.argmin(minima))
    floor = minima[best]
    if floor == 0.0:
        selected = np.flatnonzero(minima == 0.0)
        return SelectionResult(
            best=best,
            selected=tuple(int(u) for u in selected),
            minima=minima,
            zero_limit=True,
        )
    excess = (minima - floor) / floor
    selected = np.flatnonzero(excess <= gamma)
    return SelectionResult(
        best=best,
        selected=tuple(int(u) for u in selected),
        minima=minima,
    )


def select_all(stack: DistanceStack) -> SelectionResult:
    """Forced selection of every reference set (full-fusion ablation)."""
    return SelectionResult(
        best=best_reference(stack),
        selected=tuple(range(stack.n_refs)),
        minima=stack.minima(),
    )


def select_single(stack: DistanceStack, index: int) -> SelectionResult:
    """Forced selection of one reference set (single-reference methods)."""
    if not 0 <= index < stack.n_refs:
        raise ValidationError(
            f"reference index {index} out of range for {stack.n_refs} sets"
        )
    return SelectionResult(
        best=index,
        selected=(index,),
        minima=stack.minima(),
    )
