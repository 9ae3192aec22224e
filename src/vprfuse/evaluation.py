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
from dataclasses import dataclass, field

import numpy as np

from .distance import distance_stack
from .errors import ValidationError, _integer, _real, _real_array
from .fusion import _decided
from .ingest import Dataset, ReferenceSet, _assembled
from .methods import ALL, Method, resolve_method
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
    offset = _integer(decided_place, "decided place") - _integer(true_place, "true place")
    return abs(offset) <= _integer(tolerance, "tolerance", 0)


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
    conf = _real_array(confidences, "confidences", 1).astype(np.float64, copy=False)
    decided = _real_array(decided, "decided flags", 1).astype(bool, copy=False)
    correct = _real_array(correct, "correct flags", 1).astype(bool, copy=False)
    if not decided.shape == correct.shape == conf.shape:
        raise ValidationError("need one decided and one correct flag per confidence")
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


@dataclass
class MethodEvaluation:
    places: np.ndarray  # (queries,) each score row's first argmax
    confidences: np.ndarray  # (queries,) the score there
    decided: np.ndarray  # (queries,) bool, False where the query abstained
    correct: np.ndarray  # (queries,) bool, decided within the ground-truth tolerance
    curve: PRCurve


def _scored_blocks(refs: list[ReferenceSet], queries: np.ndarray, method: Method,
                   gamma: float, phases: np.ndarray | None = None):
    """Yield ``(start, rows)``: the fused score rows of each block of queries.

    Each query's distance stack goes into one preallocated block, then
    ``Method.fuse_rows`` scores it with one likelihood pass per reference set;
    rows do not depend on the block size.  A single-set method's stacks cover
    its own set only.  Only the gamma rule calls ``Method.select`` per query;
    other masks stay all True.  ``phases``, a (queries, 3) array, gets each
    query's seconds in ``distance_stack``, in its block copy plus any
    ``select`` call (about zero without one), and its share of ``fuse_rows``.
    """
    gamma = _real(gamma, "gamma", positive=True)  # also for rules that never select by gamma
    # A set index out of range, or a bool, still selects: select_single raises.
    used, per_query = refs, method.rule != ALL
    if type(method.rule) is int and 0 <= method.rule < len(refs):
        # One-set stacks: a set's distance row does not depend on the other sets.
        used, per_query = [refs[method.rule]], False
    # Sized by every set, also when narrowed: larger blocks of one-set stacks
    # raise peak memory with their likelihood temporaries.
    step = max(1, _BLOCK_BYTES // (8 * len(refs) * refs[0].n_places))
    block = np.empty((min(step, queries.shape[0]), len(used), refs[0].n_places))
    selected = np.ones(block.shape[:2], dtype=bool)
    for start in range(0, queries.shape[0], step):
        for j, q in enumerate(queries[start : start + step]):
            t0 = time.perf_counter()
            stack = distance_stack(q, used)
            t1 = time.perf_counter()
            block[j] = stack.values
            if per_query:
                selected[j] = method.select(stack, gamma).mask
            if phases is not None:
                phases[start + j, :2] = t1 - t0, time.perf_counter() - t1
        t0 = time.perf_counter()
        rows, _ = method.fuse_rows(block[: j + 1], selected[: j + 1])
        if phases is not None:
            phases[start : start + j + 1, 2] = (time.perf_counter() - t0) / (j + 1)
        yield start, rows


def score_matrix(
    dataset: Dataset,
    method: Method | str,
    gamma: float = DEFAULT_GAMMA,
    seq_len: int = 1,
    seq_velocity: float = 1.0,
) -> ScoreMatrix:
    """One method's (queries x places) score rows, scored a block at a time.

    ``seq_len`` > 1 aggregates the rows over trailing windows (one more
    matrix); a window that ``sequence_aggregate`` would reject raises
    ValidationError before any query is scored.
    """
    method = resolve_method(method, dataset.labels)
    if _integer(seq_len, "sequence length", 1) != 1:
        _check_window(seq_len, dataset.queries.shape[0], seq_velocity)
    rows = np.empty((dataset.queries.shape[0], dataset.n_places))
    for start, block in _scored_blocks(dataset.refs, dataset.queries, method, gamma):
        rows[start : start + block.shape[0]] = block
    # Finite by construction (fusion raises where a likelihood overflows), so unchecked.
    matrix = _assembled(ScoreMatrix, scores=rows, method=method.name)
    if seq_len != 1:
        matrix = sequence_aggregate(matrix, seq_len, seq_velocity)
    return matrix


def evaluate_method(
    dataset: Dataset,
    method: Method | str,
    gamma: float = DEFAULT_GAMMA,
    seq_len: int = 1,
    seq_velocity: float = 1.0,
) -> MethodEvaluation:
    """Run one method over every query and build its precision-recall curve.

    Each query is decided from its score row by ``fusion._decided``: the
    row's first argmax and its score there.  A row without contrast (every
    place scored alike, e.g. the uniform prior when every selected set is
    degenerate) carries no information, so that query abstains.  At
    ``seq_len`` 1 each block of rows is decided as it is scored, so no
    (queries x places) matrix is held; at ``seq_len`` > 1 the rows of
    ``score_matrix`` are decided, since a window reads earlier rows.
    ``score_matrix`` returns the rows themselves.
    """
    method = resolve_method(method, dataset.labels)
    if _integer(seq_len, "sequence length", 1) == 1:
        blocks = _scored_blocks(dataset.refs, dataset.queries, method, gamma)
    else:
        blocks = [(0, score_matrix(dataset, method, gamma, seq_len, seq_velocity).scores)]
    n_queries = dataset.queries.shape[0]
    places = np.empty(n_queries, dtype=np.intp)
    confidences = np.empty(n_queries)
    decided = np.empty(n_queries, dtype=bool)
    for start, rows in blocks:
        at = slice(start, start + rows.shape[0])
        places[at], confidences[at], decided[at] = _decided(rows)
    truth = dataset.ground_truth
    correct = decided & (np.abs(places - truth.true_place) <= truth.tolerance)
    return MethodEvaluation(
        places=places, confidences=confidences, decided=decided, correct=correct,
        curve=pr_curve(confidences, decided, correct),
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

    The first ``n_queries`` queries run through ``evaluate_method``'s block
    loop after one warm-up query, without I/O.  A query's total is the sum
    of its phases, its fusion phase an equal share of its block's.
    """
    repetitions = _integer(repetitions, "repetitions", 1)
    n_queries = _integer(n_queries, "query count", 1)
    method = resolve_method(method, dataset.labels)
    queries = dataset.queries[:n_queries]
    next(_scored_blocks(dataset.refs, queries[:1], method, gamma))  # warm-up
    times = np.empty((repetitions, queries.shape[0], 3))
    for rep in times:
        for _ in _scored_blocks(dataset.refs, queries, method, gamma, rep):
            pass
    times = times.reshape(-1, 3)
    phases = {
        name: PhaseStats(mean_s=float(np.mean(v)), median_s=float(np.median(v)))
        for name, v in zip(TimingReport.PHASE_ORDER, [*times.T, times.sum(axis=1)])
    }
    return TimingReport(method=method.name, phases=phases, n_samples=times.shape[0])
