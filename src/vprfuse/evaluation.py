"""Scoring against ground truth: precision-recall curves, AUC and timing.

Precision is the fraction of issued matches that are correct; recall is the
fraction of queries answered correctly (every query has a true place, so the
recall denominator is the query count).  Curves sweep the per-method
confidence from strictest to loosest; abstentions (records without a decided
place) never count as issued matches at any threshold.

AUC is the trapezoidal integral of precision over the achieved recall range,
with the curve extended to recall 0 at the precision of its most confident
point.  Other toolchains may interpolate differently, so third-decimal
agreement with externally reported values is not guaranteed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Sequence

import numpy as np

from .distance import distance_stack
from .errors import ValidationError
from .ingest import Dataset
from .methods import Method, resolve_method
from .selection import DEFAULT_GAMMA
from .sequence import ScoreMatrix, _check_window, sequence_aggregate

# Stacked float64 distances scored per block: 21 queries at 500 places x 3
# sets, 3 queries at 3000 x 3.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class EvalRecord:
    """One query's outcome: decision, confidence and correctness.

    ``correct`` is None when no place was decided.
    """

    query: int
    place: int | None
    confidence: float
    correct: bool | None

    def __post_init__(self):
        if self.place is not None and not np.isfinite(self.confidence):
            raise ValidationError("decided records need a finite confidence")
        if (self.place is None) != (self.correct is None):
            raise ValidationError("correctness is defined exactly for decided records")


def match_correct(decided_place: int, true_place: int, tolerance: int) -> bool:
    """A decision counts as correct within the index tolerance band."""
    return abs(int(decided_place) - int(true_place)) <= int(tolerance)


@dataclass(frozen=True)
class PRCurve:
    """Precision-recall sweep, strictest threshold first.

    ``thresholds[k]`` is the confidence cutoff producing ``points[k]``
    (a record is an issued match when its confidence >= the cutoff).
    """

    thresholds: np.ndarray
    points: list[tuple[float, float]]  # (recall, precision)

    @property
    def auc(self) -> float:
        """Area under the curve, extended to recall 0 at its first precision."""
        if not self.points:
            raise ValidationError("curve needs at least one point")
        extended = [(0.0, self.points[0][1])]
        extended.extend(self.points)
        area = 0.0
        for (r0, p0), (r1, p1) in zip(extended, extended[1:]):
            area += (r1 - r0) * (p0 + p1) / 2.0
        return area


def pr_curve(records: Sequence[EvalRecord]) -> PRCurve:
    """Sweep confidence thresholds over the records.

    When no record decided a place at all, the curve degenerates to the
    single point (recall 0, precision 0) with AUC 0.
    """
    if not records:
        raise ValidationError("need at least one record")
    total = len(records)
    decided = [r for r in records if r.place is not None]
    if not decided:
        return PRCurve(thresholds=np.array([np.inf]), points=[(0.0, 0.0)])
    conf = np.array([r.confidence for r in decided])
    correct = np.array([bool(r.correct) for r in decided])
    order = np.argsort(-conf, kind="stable")
    conf, correct = conf[order], correct[order]
    cum_correct = np.cumsum(correct)
    boundary = np.empty(conf.shape[0], dtype=bool)
    boundary[:-1] = conf[:-1] != conf[1:]
    boundary[-1] = True
    cutoffs = np.flatnonzero(boundary)
    points = [
        (cum_correct[k] / total, cum_correct[k] / (k + 1)) for k in cutoffs
    ]
    return PRCurve(thresholds=conf[cutoffs], points=points)


@dataclass
class MethodEvaluation:
    method: str
    records: list[EvalRecord]
    curve: PRCurve
    scores: ScoreMatrix


def evaluate_method(
    dataset: Dataset,
    method: Method | str,
    gamma: float = DEFAULT_GAMMA,
    seq_len: int = 1,
    seq_velocity: float = 1.0,
) -> MethodEvaluation:
    """Run one method over every query and build its precision-recall curve.

    Queries are scored a block at a time: each query's distance stack and
    selection are computed one by one, then ``Method.fuse_rows`` scores the
    whole block with one likelihood pass per reference set.  Rows do not
    depend on the block size.  ``seq_len`` > 1 aggregates the score matrix
    over trailing windows before deciding; a window that
    ``sequence_aggregate`` would reject raises ValidationError before any
    query is scored.  A row without contrast (every place scored alike, e.g.
    the uniform prior when every selected set is degenerate) carries no
    information, so with more than one place that query abstains.
    """
    if isinstance(method, str):
        method = resolve_method(method, [r.label for r in dataset.refs])
    queries = dataset.queries
    if seq_len != 1:
        _check_window(seq_len, queries.shape[0], seq_velocity)
    step = max(1, _BLOCK_BYTES // (8 * dataset.n_refs * dataset.n_places))
    rows = np.empty((queries.shape[0], dataset.n_places))
    for start in range(0, queries.shape[0], step):
        stacks = [distance_stack(q, dataset.refs) for q in queries[start : start + step]]
        selections = [method.select(stack, gamma) for stack in stacks]
        rows[start : start + step] = method.fuse_rows(
            np.stack([stack.values for stack in stacks]), selections
        )
    matrix = ScoreMatrix(rows, method=method.name)
    if seq_len != 1:
        matrix = sequence_aggregate(matrix, seq_len, seq_velocity)
    truth = dataset.ground_truth
    records = []
    for t, row in enumerate(matrix.scores):
        place = int(np.argmax(row))
        confidence = float(row[place])
        if row.shape[0] > 1 and confidence == row.min():
            records.append(EvalRecord(t, None, confidence, None))
        else:
            correct = match_correct(place, truth.true_place[t], truth.tolerance)
            records.append(EvalRecord(t, place, confidence, correct))
    return MethodEvaluation(
        method=method.name,
        records=records,
        curve=pr_curve(records),
        scores=matrix,
    )


@dataclass(frozen=True)
class PhaseStats:
    mean_s: float
    median_s: float


@dataclass(frozen=True)
class TimingReport:
    method: str
    phases: dict[str, PhaseStats] = field(compare=False)
    n_samples: int = 0

    PHASE_ORDER = ("distance", "selection", "fusion", "total")


def bench_query(
    dataset: Dataset,
    method: Method | str = "bayes-selective",
    repetitions: int = 5,
    n_queries: int = 32,
    gamma: float = DEFAULT_GAMMA,
) -> TimingReport:
    """Wall-clock per-query cost, split into distance / selection / fusion.

    One warm-up query runs first; I/O is excluded.  Queries run one at a
    time, each scored by ``Method.fuse``.
    """
    if repetitions < 1 or n_queries < 1:
        raise ValidationError("repetitions and n_queries must be >= 1")
    if isinstance(method, str):
        method = resolve_method(method, [r.label for r in dataset.refs])
    queries = dataset.queries[: min(n_queries, dataset.queries.shape[0])]

    method.score_row(distance_stack(queries[0], dataset.refs), gamma)

    samples: dict[str, list[float]] = {k: [] for k in TimingReport.PHASE_ORDER}
    for _ in range(repetitions):
        for q in queries:
            t0 = time.perf_counter()
            stack = distance_stack(q, dataset.refs)
            t1 = time.perf_counter()
            selection = method.select(stack, gamma)
            t2 = time.perf_counter()
            method.fuse(stack, selection)
            t3 = time.perf_counter()
            samples["distance"].append(t1 - t0)
            samples["selection"].append(t2 - t1)
            samples["fusion"].append(t3 - t2)
            samples["total"].append(t3 - t0)
    phases = {
        name: PhaseStats(mean_s=sum(vals) / len(vals), median_s=median(vals))
        for name, vals in samples.items()
    }
    return TimingReport(
        method=method.name, phases=phases, n_samples=len(samples["total"])
    )
