"""Independent brute-force oracles the tests compare the library against.

Everything here takes the literal, slow route: linear-space products with all
constants retained, quadratic double loops, dense numeric integration.  None
of it shares code with the library paths it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def counts_oracle(d: np.ndarray) -> np.ndarray:
    """Literal O(N^2) double loop for the rank counts."""
    n = len(d)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if d[i] <= d[j]:
                counts[i] += 1
    return counts


def two_pass_mean_var(d: np.ndarray) -> tuple[float, float]:
    """Compensated two-pass mean and population variance."""
    n = len(d)
    mu = math.fsum(d) / n
    var = math.fsum((x - mu) ** 2 for x in d) / n
    return mu, var


def single_reference_likelihood_oracle(d: np.ndarray) -> np.ndarray:
    """Linear-space per-place likelihood of one distance vector, constants kept.

    L[i] = P_match(d[i]) * prod_{j != i} P_background(d[j]) with the rank-count
    place-match model normalized into a pmf and a scipy Gaussian background.
    """
    d = np.asarray(d, dtype=np.float64)
    n = len(d)
    counts = counts_oracle(d).astype(np.float64)
    match_pmf = counts / counts.sum()
    mu, var = two_pass_mean_var(d)
    background = stats.norm.pdf(d, loc=mu, scale=math.sqrt(var))
    likelihood = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        likelihood[i] = match_pmf[i] * np.prod(background[mask])
    return likelihood


def posterior_linear_oracle(
    stack_values: np.ndarray, selected: tuple[int, ...], prior: np.ndarray
) -> np.ndarray:
    """Normalized posterior via the linear-space product over selected sets."""
    post = np.asarray(prior, dtype=np.float64).copy()
    for u in selected:
        post = post * single_reference_likelihood_oracle(stack_values[u])
    return post / post.sum()


def window_mean_oracle(scores: np.ndarray, length: int, velocity: float) -> np.ndarray:
    """Literal trailing-window mean, one cell at a time.

    Cell (t, i) sums, in k order from 0.0, the terms scores[t - k, i - shift]
    for k = 0..length-1 whose indices are in range, where shift is
    velocity * k rounded half to even; then it divides by their number.
    """
    n_t, n_p = scores.shape
    out = np.empty((n_t, n_p))
    for t in range(n_t):
        for i in range(n_p):
            total, terms = 0.0, 0
            for k in range(length):
                shift = velocity * k
                if k <= t and not math.isinf(shift) and round(shift) <= i:
                    total += float(scores[t - k, i - round(shift)])
                    terms += 1
            out[t, i] = total / terms
    return out


def records_oracle(scores: np.ndarray, true_place, tolerance: int) -> list[tuple]:
    """Literal per-row decisions: (place, confidence, correct) for each query.

    The place is the first place holding the row maximum.  A row with more
    than one place whose entries all equal its maximum abstains, giving
    (None, maximum, None).
    """
    out = []
    for t, row in enumerate(scores.tolist()):
        best = 0
        for i, value in enumerate(row):
            if value > row[best]:
                best = i
        if len(row) > 1 and all(value == row[best] for value in row):
            out.append((None, row[best], None))
        else:
            out.append((best, row[best], abs(best - int(true_place[t])) <= tolerance))
    return out


def pr_sweep_oracle(records) -> list[tuple[float, float, float]]:
    """Literal per-threshold sweep: (threshold, recall, precision) triples.

    For each distinct confidence among decided records (descending), count the
    records that would be issued at that cutoff and the correct ones among
    them.  Abstaining records only enlarge the recall denominator.
    """
    total = len(records)
    decided = [r for r in records if r.place is not None]
    cutoffs = sorted({r.confidence for r in decided}, reverse=True)
    out = []
    for c in cutoffs:
        issued = [r for r in decided if r.confidence >= c]
        correct = sum(1 for r in issued if r.correct)
        out.append((c, correct / total, correct / len(issued)))
    return out


def auc_dense_oracle(points, samples_per_segment: int = 20000) -> float:
    """Fine-grained numeric integration of the precision-over-recall polyline.

    The polyline is extended to recall 0 at the first point's precision, then
    each segment is integrated with a dense midpoint rule.
    """
    pts = [(0.0, points[0][1])] + list(points)
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pts, pts[1:]):
        width = r1 - r0
        if width == 0.0:
            continue
        ts = (np.arange(samples_per_segment) + 0.5) / samples_per_segment
        heights = p0 + (p1 - p0) * ts
        area += width * float(np.mean(heights))
    return area


def informed_single_reference_rows(
    queries: np.ndarray, refs: list[np.ndarray], conditions: np.ndarray, kind: str
) -> np.ndarray:
    """Score rows of a single-reference method told each query's condition.

    Query t is scored against ``refs[conditions[t]]`` alone, the prior
    (unfair) knowledge of the best reference set that the methods under test
    do not get.  ``kind`` "min-value" scores with the negated explicit
    distances; "bayes-single" with the softmax of log(rank count) minus the
    scipy Gaussian log-density of the two-pass mean and variance.
    """
    rows = []
    for q, u in zip(queries, conditions):
        diff = np.asarray(refs[u], dtype=np.float64) - np.asarray(q, dtype=np.float64)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if kind == "min-value":
            rows.append(-d)
            continue
        counts = (d[None, :] >= d[:, None]).sum(axis=1)
        mu, var = two_pass_mean_var(d)
        log_ratio = np.log(counts) - stats.norm.logpdf(d, loc=mu, scale=math.sqrt(var))
        z = np.exp(log_ratio - log_ratio.max())
        rows.append(z / z.sum())
    return np.array(rows)
