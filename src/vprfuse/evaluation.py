"""Scoring against ground truth: precision-recall curves, AUC and timing.

Precision is the fraction of issued matches that are correct; recall is the
fraction of queries answered correctly (every query has a true place, so the
recall denominator is the query count).  Curves sweep the per-method
confidence from strictest to loosest; abstentions (queries without a decided
place) never count as issued matches at any threshold.

AUC is the trapezoidal integral of precision over the achieved recall range,
with the curve extended to recall 0 at the precision of its most confident
point.  Other toolchains may interpolate differently, so third-decimal
agreement with externally reported values is not guaranteed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import median

import numpy as np

from .distance import distance_stack
from .errors import ValidationError
from .ingest import Dataset, ReferenceSet, _assembled
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
    (a decided query is an issued match when its confidence >= the cutoff).
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


def pr_curve(confidences, decided, correct) -> PRCurve:
    """Sweep confidence thresholds over per-query arrays.

    Only decided queries are read: their confidences must be finite, and
    ``correct`` marks the right ones.  When no query decided a place, the
    curve degenerates to the single point (recall 0, precision 0) with AUC 0.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    decided, correct = np.asarray(decided, dtype=bool), np.asarray(correct, dtype=bool)
    if conf.ndim != 1 or conf.size == 0 or not decided.shape == correct.shape == conf.shape:
        raise ValidationError("need non-empty, equal-length 1-D arrays, one entry per query")
    total = conf.shape[0]
    conf, correct = conf[decided], correct[decided]
    if not np.isfinite(conf).all():
        raise ValidationError("decided queries need a finite confidence")
    if conf.size == 0:
        return PRCurve(thresholds=np.array([np.inf]), points=[(0.0, 0.0)])
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


def _narrowed(method: Method, refs: list[ReferenceSet]) -> tuple[Method, list[ReferenceSet]]:
    """The reference sets a method reads, and the method restated over them.

    A single-set method reads only its own set, as set 0 of a one-set stack;
    every other method reads every set.  The narrowed method's rows are
    bit-identical, because a set's distance row does not depend on which
    other sets share the stack.
    """
    if isinstance(method.rule, int) and 0 <= method.rule < len(refs):
        return replace(method, rule=0), [refs[method.rule]]
    return method, refs


@dataclass
class MethodEvaluation:
    places: np.ndarray  # (queries,) each score row's first argmax
    confidences: np.ndarray  # (queries,) the score there
    decided: np.ndarray  # (queries,) bool, False where the query abstained
    correct: np.ndarray  # (queries,) bool, decided within the ground-truth tolerance
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
    selection mask go into one preallocated block, then ``Method.fuse_rows``
    scores the whole block with one likelihood pass per reference set.  A single-set method's stacks cover its own set only.
    Rows do not depend on the block size.  ``seq_len`` > 1 aggregates the
    score matrix over trailing windows (one more matrix) before deciding; a
    window that ``sequence_aggregate`` would reject raises ValidationError
    before any query is scored.  Queries are decided in one array pass: each
    row's first argmax and its score there.  A row without contrast (every
    place scored alike, e.g. the uniform prior when every selected set is
    degenerate) carries no information, so with more than one place that
    query abstains.
    """
    if isinstance(method, str):
        method = resolve_method(method, [r.label for r in dataset.refs])
    queries = dataset.queries
    if seq_len != 1:
        _check_window(seq_len, queries.shape[0], seq_velocity)
    scorer, refs = _narrowed(method, dataset.refs)
    # Sized by every set, also when narrowed: larger blocks of one-set stacks
    # raise peak memory with their likelihood temporaries.
    step = max(1, _BLOCK_BYTES // (8 * dataset.n_refs * dataset.n_places))
    block = np.empty((min(step, queries.shape[0]), len(refs), dataset.n_places))
    selected = np.empty(block.shape[:2], dtype=bool)
    rows = np.empty((queries.shape[0], dataset.n_places))
    for start in range(0, queries.shape[0], step):
        for j, q in enumerate(queries[start : start + step]):
            stack = distance_stack(q, refs)
            block[j] = stack.values
            selected[j] = scorer.select(stack, gamma).mask
        rows[start : start + step] = scorer.fuse_rows(block[: j + 1], selected[: j + 1])
    # Finite by construction (fusion raises where a likelihood overflows), so unchecked.
    matrix = _assembled(ScoreMatrix, scores=rows, method=method.name)
    if seq_len != 1:
        matrix = sequence_aggregate(matrix, seq_len, seq_velocity)
    places = matrix.scores.argmax(axis=1)
    confidences = np.take_along_axis(matrix.scores, places[:, None], axis=1)[:, 0]
    decided = (confidences != matrix.scores.min(axis=1)) | (dataset.n_places == 1)
    truth = dataset.ground_truth
    correct = decided & (np.abs(places - truth.true_place) <= truth.tolerance)
    return MethodEvaluation(
        places=places, confidences=confidences, decided=decided, correct=correct,
        curve=pr_curve(confidences, decided, correct), scores=matrix,
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
    time, each scored by ``Method.fuse``.  As in ``evaluate_method``, a
    single-set method's distance phase covers its own set only.
    """
    if repetitions < 1 or n_queries < 1:
        raise ValidationError("repetitions and n_queries must be >= 1")
    if isinstance(method, str):
        method = resolve_method(method, [r.label for r in dataset.refs])
    queries = dataset.queries[: min(n_queries, dataset.queries.shape[0])]
    scorer, refs = _narrowed(method, dataset.refs)

    scorer.score_row(distance_stack(queries[0], refs), gamma)

    samples: dict[str, list[float]] = {k: [] for k in TimingReport.PHASE_ORDER}
    for _ in range(repetitions):
        for q in queries:
            t0 = time.perf_counter()
            stack = distance_stack(q, refs)
            t1 = time.perf_counter()
            selection = scorer.select(stack, gamma)
            t2 = time.perf_counter()
            scorer.fuse(stack, selection)
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
