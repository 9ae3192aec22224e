"""In-memory spans around vprfuse layer calls, installed from outside the package.

A traced run replaces each layer function at the name its caller looks it
up under (``vprfuse.evaluation.distance_stack``, ``vprfuse.methods.posterior``,
``vprfuse.cli._COMMANDS["eval"]``, ...) with a wrapper that records one span
per call: name, start, end, parent span and op id.  Spans stay in memory
until the run ends.  Untraced runs never call ``Tracer.installed``, so the
package runs unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

# (owner, attribute, span name).  The owner is a module, a class
# ("module:Class") or a dict ("module:dict_name"); each attribute is the
# name a caller looks up at call time.
PATCH_POINTS = (
    ("vprfuse.cli", "load_dataset", "ingest.load"),
    ("vprfuse.ingest", "load_dataset", "ingest.load"),
    ("vprfuse.ingest", "read_descriptor_file", "ingest.read"),
    ("vprfuse.evaluation", "distance_stack", "distance.stack"),
    ("vprfuse.distance", "distance_stack", "distance.stack"),
    ("vprfuse.methods:Method", "select", "selection.select"),
    ("vprfuse.methods:Method", "fuse", "methods.fuse"),
    ("vprfuse.methods", "posterior", "fusion.posterior"),
    ("vprfuse.fusion", "posterior", "fusion.posterior"),
    ("vprfuse.fusion", "log_likelihood_ratio", "likelihood.llr"),
    ("vprfuse.likelihood", "place_match_counts", "likelihood.rank_counts"),
    ("vprfuse.likelihood", "gaussian_params", "likelihood.gaussian_fit"),
    ("vprfuse.evaluation", "sequence_aggregate", "sequence.aggregate"),
    ("vprfuse.cli", "evaluate_method", "evaluation.records"),
    ("vprfuse.evaluation", "pr_curve", "evaluation.pr_curve"),
    ("vprfuse.cli:_COMMANDS", "eval", "cli.write"),
)

# Per-op self time of these spans, summed per op and reported as the median op.
SELF_TIME_METRICS = {
    "distance.stack_total_s": "distance.stack",
    "selection.select_s": "selection.select",
    "likelihood.rank_counts_s": "likelihood.rank_counts",
    "likelihood.gaussian_fit_s": "likelihood.gaussian_fit",
    "likelihood.llr_s": "likelihood.llr",
    "fusion.posterior_s": "fusion.posterior",
    "methods.fuse_s": "methods.fuse",
    "sequence.aggregate_s": "sequence.aggregate",
    "evaluation.records_s": "evaluation.records",
    "evaluation.pr_curve_s": "evaluation.pr_curve",
    "cli.write_s": "cli.write",
}

SETUP_OP = -1


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a root span
    op: int = SETUP_OP
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _selection_info(args, result) -> dict:
    return {"method": args[0].name, "n_selected": result.n_selected}


def _posterior_info(args, result) -> dict:
    return {"dropped": len(result.dropped)}


def _read_info(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


_INFO = {
    "selection.select": _selection_info,
    "fusion.posterior": _posterior_info,
    "ingest.read": _read_info,
}


def _resolve_owner(owner: str):
    module_name, _, member = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, member) if member else module


def _get(target, attr):
    return target[attr] if isinstance(target, dict) else getattr(target, attr)


def _set(target, attr, value) -> None:
    if isinstance(target, dict):
        target[attr] = value
    else:
        setattr(target, attr, value)


class Tracer:
    """Records spans; ``op`` is the id stamped on spans started from now on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        info = _INFO.get(name)
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=open_spans[-1] if open_spans else -1, op=self.op)
            open_spans.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_spans.pop()
            if info is not None:
                span.info.update(info(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, points=PATCH_POINTS):
        """Wrap every patch point for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr, name in points:
                target = _resolve_owner(owner)
                original = _get(target, attr)
                originals.append((target, attr, original))
                _set(target, attr, self.wrap(name, original))
            yield self
        finally:
            for target, attr, original in reversed(originals):
                _set(target, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def pass_counts(spans: list[Span], n_queries: int) -> dict[str, float]:
    """Counts over one traced pass that served ``n_queries`` queries.

    They depend only on the inputs, so two passes over the same queries must
    give the same counts.
    """
    selective = [
        s.info["n_selected"]
        for s in spans
        if s.name == "selection.select" and s.info.get("method") == "bayes-selective"
    ]
    posteriors = [s for s in spans if s.name == "fusion.posterior"]
    return {
        "distance.stacks_per_query": sum(s.name == "distance.stack" for s in spans) / n_queries,
        "selection.mean_selected": sum(selective) / len(selective) if selective else 0.0,
        "likelihood.calls": sum(s.name == "likelihood.llr" for s in spans),
        "fusion.dropped_sets": sum(s.info.get("dropped", 0) for s in posteriors),
        "fusion.prior_fallbacks": sum(
            s.info.get("raised") == "NoInformationError" for s in posteriors
        ),
    }


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times from every traced span.

    Ops are the spans' op ids at or above 0; spans stamped ``SETUP_OP`` feed
    only the load and first-stack figures.  Times are per-op sums of self
    time, reported as the median over ops; ``distance.stack_s`` is the median
    self time of one call.
    """
    own = self_times(spans)
    ops = sorted({s.op for s in spans if s.op >= 0})
    per_op = {name: dict.fromkeys(ops, 0.0) for name in SELF_TIME_METRICS.values()}
    stack_self = []
    for span, t in zip(spans, own):
        if span.op >= 0 and span.name in per_op:
            per_op[span.name][span.op] += t
        if span.name == "distance.stack":
            stack_self.append(t)

    loads = [i for i, s in enumerate(spans) if s.name == "ingest.load"]
    load_bytes = [
        sum(s.info["bytes"] for s in spans if s.name == "ingest.read" and s.parent == i)
        for i in loads
    ]
    first_stacks = []
    for i in loads:
        after = (s for s in spans[i + 1 :] if s.name == "distance.stack")
        first = next(after, None)
        if first is not None:
            first_stacks.append(first.duration)

    metrics = {
        "ingest.load_s": _median([spans[i].duration for i in loads]),
        "ingest.bytes_read": _median(load_bytes),
        "distance.first_stack_s": _median(first_stacks),
        "distance.stack_s": _median(stack_self),
    }
    for metric, name in SELF_TIME_METRICS.items():
        metrics[metric] = _median(list(per_op[name].values()))
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
