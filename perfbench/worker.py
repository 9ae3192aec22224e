"""One step of a benchmark run, in a fresh process: gen, check, setup, measure or recount.

    python3 perfbench/worker.py <step> <work_dir>

``work_dir/run.json`` holds the workload, seed, seconds and trace flag; the
step writes its result to ``work_dir/<step>.json``.  ``run.py`` starts these
processes with the BLAS thread count pinned in their environment.

* ``gen`` writes the workload's synthetic dataset as ``.vprd`` files, a
  ground-truth CSV and a manifest.  The program sees only these files.
* ``check`` sets up once (a ``setup_s`` sample), compares every query's
  distance stack with explicit float64 differences and sampled rank counts
  and Gaussian fits with the brute-force oracles in ``tests/oracles.py``, and
  computes the expected outputs: the reference decision of every online
  query, or, from the explicit stacks, the oracle PR sweeps and AUCs of
  every method for an eval workload.
* ``setup`` only sets up (another ``setup_s`` sample, from a fresh import).
* ``measure`` sets up, then runs the timed ops for the stated seconds and
  checks each op's output against the expected outputs.  With tracing on it
  first runs untraced for half the time, then installs the span wrappers and
  runs whole traced passes for the other half.
* ``recount`` runs one traced pass in a fresh process, whose counts must
  equal those of the first traced pass of ``measure``.

Numpy and vprfuse are imported only after a step starts its set-up clock, so
``setup_s`` includes importing them.
"""

from __future__ import annotations

import ast
import contextlib
import ctypes
import gc
import io
import json
import math
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    kind: str  # "eval": one `vprfuse eval` per op; "online": one query per op
    synthetic: dict  # generate_synthetic keyword arguments besides the seed
    queries: int  # leading queries, in ground-truth order, given to the program
    seq_len: int = 1


# The README protocol: 500 places x 24-d x 3 sets, queries drawn 50/50 from
# the first two conditions.  Seed 0 reproduces the frozen acceptance AUCs.
PROTOCOL = dict(
    n_places=500, n_conditions=3, dim=24, place_spread=1.0,
    condition_scale=0.9, query_noise=0.5, mixture=[0.5, 0.5, 0.0], gt_tolerance=0,
)
# Acceptance criterion 8's shape, 3000 places x 4096-d x 3 sets.  With the
# default condition_scale 0.9 every query selects one set; 0.15 makes
# bayes-selective select 1, 2 or 3 sets (mean |S| about 1.6).
FULLSCALE = dict(
    n_places=3000, n_conditions=3, dim=4096, place_spread=1.0,
    condition_scale=0.15, query_noise=0.5, mixture=None, gt_tolerance=0,
)

WORKLOADS = {
    "protocol-eval": Workload("eval", PROTOCOL, queries=500),
    "fullscale-online": Workload("online", FULLSCALE, queries=64),
    "fullscale-eval": Workload("eval", FULLSCALE, queries=8, seq_len=5),
}

THRESHOLD = 0.5  # decision threshold h of the online localizer
# Sampled rank-count checks: as many distance vectors as fit in this many
# oracle comparisons (N^2 each), and at least one.
ORACLE_COMPARISONS = 2_250_000
# Reference rows per block of explicit differences; a small block stays in
# cache while every query is subtracted from it.
EXPLICIT_BLOCK_ROWS = 16
# Tolerances of the repository's own tests for the same comparisons.
DISTANCE_RTOL = 1e-9
GAUSSIAN_RTOL = 1e-12
AUC_ABS = 1e-6
CONFIDENCE_TOL = 1e-9


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _pr_file(method: str) -> str:
    safe = "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in method)
    return f"pr_{safe}.csv"


def gen(run: dict, work: Path) -> dict:
    import numpy as np
    from vprfuse import ingest

    w = WORKLOADS[run["workload"]]
    data = ingest.generate_synthetic(seed=run["seed"], **w.synthetic)
    refs = []
    for ref in data.refs:
        path = work / f"ref_{ref.label}.vprd"
        ingest.write_descriptor_file(path, ref.descriptors)
        refs.append((ref.label, path))
    ingest.write_descriptor_file(work / "query.vprd", data.queries[: w.queries])
    truth = data.ground_truth
    ingest.write_ground_truth(
        work / "ground_truth.csv",
        ingest.GroundTruth(truth.true_place[: w.queries], truth.tolerance),
    )
    ingest.write_manifest(
        work / "manifest.txt",
        ingest.DatasetManifest(
            places=w.synthetic["n_places"],
            dim=w.synthetic["dim"],
            query_path=work / "query.vprd",
            gt_tolerance=truth.tolerance,
            refs=refs,
            gt_path=work / "ground_truth.csv",
        ),
    )
    conditions = np.bincount(data.query_conditions[: w.queries], minlength=len(refs))
    return {"query_conditions": conditions.tolist()}


def serve(dataset, method, q: int) -> list:
    """One online query: distance_stack -> Method.select -> posterior -> decide.

    Returns [place or None, confidence or None, |S|].  When every selected set
    is degenerate the localizer abstains, as ``vprfuse match`` does.
    """
    from vprfuse import distance, errors, fusion

    stack = distance.distance_stack(dataset.queries[q], dataset.refs)
    selection = method.select(stack)
    try:
        belief = fusion.posterior(stack, selection, fusion.uniform_prior(stack.n_places))
    except errors.NoInformationError:
        return [None, None, selection.n_selected]
    decision = fusion.decide(belief, THRESHOLD)
    return [decision.place, decision.confidence, selection.n_selected]


def set_up(work: Path):
    """Import, load the dataset and serve one query, which builds the float64 cache."""
    start = time.perf_counter()
    from vprfuse import ingest, methods

    dataset = ingest.load_dataset(work / "manifest.txt")
    method = methods.resolve_method("bayes-selective", dataset.labels)
    serve(dataset, method, 0)
    return time.perf_counter() - start, dataset, method


def frozen_auc() -> dict[str, float]:
    """The acceptance suite's frozen seed-0 protocol AUCs, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_FROZEN_AUC" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_acceptance.py defines no _FROZEN_AUC")


def explicit_stacks(dataset) -> list:
    """Every query's distance stack from explicit float64 differences."""
    import numpy as np
    from vprfuse import distance

    queries = dataset.queries.astype(np.float64)
    values = np.empty((queries.shape[0], dataset.n_refs, dataset.n_places))
    for u, ref in enumerate(dataset.refs):
        for a in range(0, dataset.n_places, EXPLICIT_BLOCK_ROWS):
            rows = ref.descriptors[a : a + EXPLICIT_BLOCK_ROWS].astype(np.float64)
            for q, query in enumerate(queries):
                diff = rows - query
                values[q, u, a : a + len(rows)] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return [distance.DistanceStack(v) for v in values]


def distance_failures(dataset, explicit, seed: int, oracles) -> list[str]:
    """Every program stack against explicit differences; sampled vectors against the oracles."""
    import numpy as np
    from vprfuse import distance, likelihood

    n = dataset.n_places
    rng = random.Random(seed)
    sampled = {
        (rng.randrange(len(explicit)), rng.randrange(dataset.n_refs))
        for _ in range(max(1, ORACLE_COMPARISONS // (n * n)))
    }
    failures = []
    for q, want in enumerate(explicit):
        got = distance.distance_stack(dataset.queries[q], dataset.refs).values
        for u, d in enumerate(got):
            where = f"query {q} set {u}"
            if not np.allclose(d, want.values[u], rtol=DISTANCE_RTOL, atol=0.0):
                failures.append(f"{where}: distances differ from explicit differences")
            if (q, u) not in sampled:
                continue
            if not np.array_equal(likelihood.place_match_counts(d), oracles.counts_oracle(d.tolist())):
                failures.append(f"{where}: rank counts differ from counts_oracle")
            fit = likelihood.gaussian_params(d)
            mu, var = oracles.two_pass_mean_var(d)
            if not (
                math.isclose(fit.mu, mu, rel_tol=GAUSSIAN_RTOL)
                and math.isclose(fit.sigma2, var, rel_tol=GAUSSIAN_RTOL)
            ):
                failures.append(f"{where}: Gaussian fit differs from two_pass_mean_var")
    return failures


def expected_eval(dataset, explicit, run: dict, oracles) -> dict:
    """Each method's oracle PR sweep and dense-oracle AUC, from the explicit stacks.

    The records are built here (score rows, sequence windows, argmax) rather
    than by ``evaluate_method``, so that the eval ops are checked against an
    independent path.
    """
    import numpy as np
    from vprfuse import evaluation, methods, sequence

    w = WORKLOADS[run["workload"]]
    truth = dataset.ground_truth
    frozen = frozen_auc() if w.synthetic is PROTOCOL and run["seed"] == 0 else {}
    sweeps, summary = {}, []
    for method in methods.expand_methods("all", dataset.labels):
        matrix = sequence.ScoreMatrix(
            np.stack([method.score_row(stack) for stack in explicit]), method=method.name
        )
        if w.seq_len > 1:
            matrix = sequence.sequence_aggregate(matrix, w.seq_len)
        records = []
        for t, row in enumerate(matrix.scores):
            place = int(np.argmax(row))
            correct = evaluation.match_correct(place, truth.true_place[t], truth.tolerance)
            records.append(evaluation.EvalRecord(t, place, float(row[place]), correct))
        sweep = oracles.pr_sweep_oracle(records)
        sweeps[_pr_file(method.name)] = sweep
        summary.append({
            "method": method.name,
            "auc": oracles.auc_dense_oracle([(r, p) for _, r, p in sweep]),
            "frozen_auc": frozen.get(method.name),
            "n_queries": len(records),
        })
    return {"sweeps": sweeps, "summary": summary}


def check(run: dict, work: Path) -> dict:
    setup_s, dataset, method = set_up(work)
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    explicit = explicit_stacks(dataset)
    failures = distance_failures(dataset, explicit, run["seed"], oracles)
    if WORKLOADS[run["workload"]].kind == "online":
        expected = [serve(dataset, method, q) for q in range(dataset.queries.shape[0])]
        sizes = [n_selected for _, _, n_selected in expected]
    else:
        expected = expected_eval(dataset, explicit, run, oracles)
        sizes = [method.select(stack).n_selected for stack in explicit]
    histogram = [sizes.count(k) for k in range(dataset.n_refs + 1)]
    return {
        "setup_s": setup_s,
        "failures": failures,
        "expected": expected,
        "selected_histogram": histogram,
        "mean_selected": statistics.fmean(sizes),
    }


def sweep_failures(name: str, text: str, want: list) -> list[str]:
    """One PR CSV against the oracle sweep.

    Recall and precision must print exactly as the oracle's; thresholds may
    differ by CONFIDENCE_TOL (absolute below 1, relative above), the
    tolerance of the repository's posterior and distance tests.
    """
    rows = text.splitlines()
    if rows[:1] != ["threshold,recall,precision"] or len(rows) != len(want) + 1:
        return [f"{name} has the wrong header or row count"]
    for row, (t, r, p) in zip(rows[1:], want):
        threshold, recall, precision = row.split(",")
        if (
            recall != _fmt(r)
            or precision != _fmt(p)
            or abs(float(threshold) - t) > CONFIDENCE_TOL * max(1.0, abs(t))
        ):
            return [f"{name}: row {row!r} differs from the oracle sweep ({t!r}, {r!r}, {p!r})"]
    return []


def eval_failures(out: Path, expected: dict, printed: str) -> list[str]:
    """Compare one `vprfuse eval` op's files and stdout with the expected outputs."""
    failures = []
    names = set(expected["sweeps"]) | {"summary.csv"}
    found = {p.name for p in out.iterdir()}
    if found != names:
        failures.append(f"output files {sorted(found ^ names)} missing or unexpected")
    for name, sweep in expected["sweeps"].items():
        if (out / name).is_file():
            failures += sweep_failures(name, (out / name).read_text(encoding="utf-8"), sweep)
    summary = (out / "summary.csv").read_text(encoding="utf-8") if "summary.csv" in found else ""
    rows = summary.splitlines()
    if rows[:1] != ["method,auc,n_queries"] or len(rows) != len(expected["summary"]) + 1:
        return failures + ["summary.csv has the wrong header or row count"]
    for row, want in zip(rows[1:], expected["summary"]):
        method, auc, n_queries = row.split(",")
        auc = float(auc)
        if method != want["method"] or int(n_queries) != want["n_queries"]:
            failures.append(f"summary row {row!r} does not match {want['method']}")
        if abs(auc - want["auc"]) > AUC_ABS:
            failures.append(f"{method}: AUC {auc} differs from auc_dense_oracle {want['auc']}")
        if want["frozen_auc"] is not None and abs(auc - want["frozen_auc"]) > AUC_ABS:
            failures.append(f"{method}: AUC {auc} differs from frozen {want['frozen_auc']}")
    if printed != summary:
        failures.append("printed summary differs from summary.csv")
    return failures


def run_eval(run, work, expected, seconds, min_ops, tracer=None):
    """Closed loop of `vprfuse eval` ops; returns (op seconds, failures per op)."""
    from vprfuse import cli

    w = WORKLOADS[run["workload"]]
    out = work / "out"
    argv = [
        "eval", "--manifest", str(work / "manifest.txt"), "--method", "all",
        "--seq-len", str(w.seq_len), "--out", str(out),
    ]
    times, failures = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < min_ops or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op = len(times)
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # an op that raises is a failed op
            problems = [f"raised {exc!r}"]
        times.append(time.perf_counter() - start)
        if out.is_dir():
            problems += eval_failures(out, expected, printed.getvalue())
            for path in out.iterdir():
                path.unlink()
        else:
            problems.append("no output directory")
        failures.append(problems)
    return times, failures


def run_online(dataset, method, expected, seconds, min_passes, tracer=None):
    """Closed loop of queries in ground-truth order, cycling through the window.

    Traced loops stop only after whole passes over the window.
    """
    n = len(expected)
    times, failures = [], []
    deadline = time.perf_counter() + seconds
    while True:
        k = len(times)
        if time.perf_counter() >= deadline and k >= max(2, min_passes * n) and (
            tracer is None or k % n == 0
        ):
            break
        if tracer is not None:
            tracer.op = k
        start = time.perf_counter()
        try:
            got = serve(dataset, method, k % n)
        except Exception as exc:  # a query that raises is a failed op
            got = repr(exc)
        times.append(time.perf_counter() - start)
        failures.append([] if got == expected[k % n] else [f"query {k % n}: {got} != reference"])
    return times, failures


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def expected_outputs(work: Path):
    return json.loads((work / "check.json").read_text(encoding="utf-8"))["expected"]


def measure(run: dict, work: Path) -> dict:
    setup_s, dataset, method = set_up(work)
    expected = expected_outputs(work)
    w = WORKLOADS[run["workload"]]
    seconds = run["seconds"] / 2 if run["trace"] else run["seconds"]
    if w.kind == "online":
        times, failures = run_online(dataset, method, expected, seconds, min_passes=0)
        del dataset
    else:
        del dataset
        times, failures = run_eval(run, work, expected, seconds, min_ops=2)
    gc.collect()
    result = {
        "setup_s": setup_s,
        "times": times,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
    }
    if run["trace"]:
        result.update(measure_traced(run, work, expected, times, method))
    return result


def run_traced(run, work, expected, method, seconds):
    """Load again with the span wrappers installed and run whole passes.

    A pass is one eval op, or one query of each in the online window.
    Returns (tracer, op seconds, failures per op, the first pass's counts).
    """
    from vprfuse import ingest

    w = WORKLOADS[run["workload"]]
    tracer = spans.Tracer()
    with tracer.installed():
        if w.kind == "online":
            dataset = ingest.load_dataset(work / "manifest.txt")
            serve(dataset, method, 0)
            times, failures = run_online(dataset, method, expected, seconds, 1, tracer)
        else:
            times, failures = run_eval(run, work, expected, seconds, 1, tracer)
    per_pass = len(expected) if w.kind == "online" else 1
    counts = spans.pass_counts(
        [s for s in tracer.spans if 0 <= s.op < per_pass],
        w.queries if w.kind == "eval" else per_pass,
    )
    return tracer, times, failures, counts


def measure_traced(run, work, expected, untraced_times, method) -> dict:
    tracer, times, failures, counts = run_traced(run, work, expected, method, run["seconds"] / 2)
    layers = spans.layer_metrics(tracer.spans)
    layers.update(counts)
    s = WORKLOADS[run["workload"]].synthetic
    layers["distance.bytes_per_query"] = (
        s["n_conditions"] * s["n_places"] * s["dim"] * 8 * layers["distance.stacks_per_query"]
    )
    layers["trace.overhead_ratio"] = statistics.median(times) / statistics.median(untraced_times) - 1
    rows = [[s.name, s.start, s.end, s.parent, s.op, s.info] for s in tracer.spans]
    Path(run["spans_path"]).write_text(json.dumps(rows), encoding="utf-8")
    return {
        "layers": layers,
        "pass_counts": counts,
        "traced_times": times,
        "traced_failures": failures,
    }


def recount(run: dict, work: Path) -> dict:
    _, dataset, method = set_up(work)
    del dataset
    _, _, failures, counts = run_traced(run, work, expected_outputs(work), method, 0)
    return {"pass_counts": counts, "failures": failures}


STEPS = {
    "gen": gen,
    "check": check,
    "setup": lambda run, work: {"setup_s": set_up(work)[0]},
    "measure": measure,
    "recount": recount,
}


def main(argv: list[str]) -> int:
    step, work = argv[0], Path(argv[1])
    run = json.loads((work / "run.json").read_text(encoding="utf-8"))
    result = STEPS[step](run, work)
    (work / f"{step}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
