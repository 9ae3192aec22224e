"""Registry of place-matching methods behind one scoring interface.

Every method maps a query's distance stack to a per-place score row (higher
is better).  The decision for a query is the row argmax and the row maximum
is its confidence for precision-recall sweeps.  Belief methods score with the
normalized posterior (their confidence is a probability, sweepable as the
decision threshold); distance methods score with negative mean distance.

Selector strings are the single roster of implemented methods:

    bayes-selective      selection + Bayesian fusion (default)
    bayes-full           Bayesian fusion of every reference set
    baseline-fusion      minimum mean distance over every reference set
    baseline-selective   minimum mean distance over the selected sets
    bayes-single:<u>     Bayesian fusion of reference set u alone
    min-value:<u>        minimum distance within reference set u alone

``<u>`` is a zero-based reference-set index or a condition label, and
``all`` expands to every method above (single-reference variants once per
reference set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distance import DistanceStack
from .errors import ValidationError, _real, _real_array
from .fusion import _checked_selection, _normalize_log_scores, fused_log_scores, uniform_prior
from .fusion import posterior  # noqa: F401  (not called here; perfbench/spans.py traces it)
from .selection import (
    DEFAULT_GAMMA,
    SelectionResult,
    select_all,
    select_references,
    select_single,
)

BELIEF = "belief"
DISTANCE = "distance"

# Selection rules besides a reference-set index.
GAMMA = "gamma"
ALL = "all"


@dataclass(frozen=True)
class Method:
    """A named selection rule plus a scoring convention, ``kind`` BELIEF or DISTANCE.

    ``rule`` is GAMMA (select_references), ALL (select_all) or the index of
    the one reference set the method uses (select_single).
    """

    name: str
    kind: str
    rule: str | int

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in (BELIEF, DISTANCE)):
            raise ValidationError(f"unknown method kind {self.kind!r}")

    def select(self, stack: DistanceStack, gamma: float = DEFAULT_GAMMA) -> SelectionResult:
        gamma = _real(gamma, "gamma", positive=True)  # for every rule: every scoring path checks it
        if self.rule == GAMMA:
            return select_references(stack, gamma)
        if self.rule == ALL:
            return select_all(stack)
        return select_single(stack, self.rule)

    def fuse_rows(self, values: np.ndarray, selected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score rows of a block of queries and the sets that contributed to them.

        ``values`` is the 3-D block of the queries' (sets, places) distances and
        ``selected`` their (queries, sets) bool selection mask, with at least one
        set per query.  Returns the (queries, places) rows, each bit-identical to
        the query scored alone, and the (queries, sets) mask of the sets used: a
        belief method leaves out each query's degenerate selected sets.  Either
        kind raises ValidationError on non-finite selected distances.
        """
        values = _real_array(values, "distance stacks")
        if values.ndim != 3:
            raise ValidationError(f"distance stacks must be a 3-D array, got shape {values.shape}")
        selected = _checked_selection(selected, values)
        if self.kind == BELIEF:
            log_prior = np.log(uniform_prior(values.shape[2]))
            # A query whose selected sets are all degenerate keeps the log
            # prior, a constant row whose softmax is exactly the uniform prior.
            log_scores, used = fused_log_scores(values, selected, log_prior)
            return _normalize_log_scores(log_scores), used
        # Selected sets are summed from 0.0 in ascending order, as ``mean`` sums them.
        total = np.zeros((values.shape[0], values.shape[2]))
        with np.errstate(over="ignore", invalid="ignore"):
            for u in range(values.shape[1]):
                np.add(total, values[:, u], out=total, where=selected[:, u, None])
        if not np.isfinite(total).all():
            raise ValidationError("selected distances must be finite, with a finite sum")
        return -(total / selected.sum(axis=1)[:, None]), selected

    def fuse(self, stack: DistanceStack, selection: SelectionResult) -> np.ndarray:
        """Score row for an already-computed selection: ``fuse_rows`` of one query."""
        return self.fuse_rows(stack.values[None], [selection.mask])[0][0]

    def score_row(self, stack: DistanceStack, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
        return self.fuse(stack, self.select(stack, gamma))


_FUSION_METHODS = {
    "bayes-selective": (BELIEF, GAMMA),
    "bayes-full": (BELIEF, ALL),
    "baseline-fusion": (DISTANCE, ALL),
    "baseline-selective": (DISTANCE, GAMMA),
}

_SINGLE_PREFIXES = {"bayes-single": BELIEF, "min-value": DISTANCE}


def _resolve_ref(token: str, labels: Sequence[str]) -> int:
    try:
        index = int(token)
    except ValueError:
        matches = [u for u, label in enumerate(labels) if label == token]
        if len(matches) != 1:
            raise ValidationError(
                f"reference {token!r} does not name exactly one of {list(labels)}"
            )
        return matches[0]
    if not 0 <= index < len(labels):
        raise ValidationError(
            f"reference index {index} out of range for {len(labels)} sets"
        )
    return index


def _single_name(prefix: str, index: int, labels: Sequence[str]) -> str:
    """Name set ``index`` by its label only if that label resolves back to it."""
    label = labels[index]
    try:
        named = bool(label) and _resolve_ref(label, labels) == index
    except ValidationError:  # a shared label, or a number out of range, names no set
        named = False
    return f"{prefix}:{label if named else index}"


def resolve_method(name: str, labels: Sequence[str]) -> Method:
    """Resolve one selector string against a dataset's reference labels."""
    prefix, sep, token = name.partition(":") if isinstance(name, str) else ("", "", "")
    if not sep and prefix in _FUSION_METHODS:  # no fusion method's name holds ":"
        kind, rule = _FUSION_METHODS[prefix]
        return Method(name=prefix, kind=kind, rule=rule)
    if sep and prefix in _SINGLE_PREFIXES:
        index = _resolve_ref(token, labels)
        return Method(
            name=_single_name(prefix, index, labels),
            kind=_SINGLE_PREFIXES[prefix],
            rule=index,
        )
    forms = [*_FUSION_METHODS, *(f"{prefix}:<set>" for prefix in _SINGLE_PREFIXES)]
    raise ValidationError(
        f"unknown method {name!r}; use one of {', '.join(forms)} ('all' is accepted by eval only)"
    )


def expand_methods(name: str, labels: Sequence[str]) -> list[Method]:
    """Resolve a selector string, expanding ``all`` to the full roster."""
    if name != "all":
        return [resolve_method(name, labels)]
    methods = [resolve_method(name, labels) for name in _FUSION_METHODS]
    for prefix in _SINGLE_PREFIXES:
        methods.extend(
            resolve_method(f"{prefix}:{u}", labels) for u in range(len(labels))
        )
    return methods
