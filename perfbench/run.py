"""vprfuse benchmark: one workload and seed per run, one JSON result line.

    python3 perfbench/run.py --workload fullscale-online --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``src/vprfuse`` and the
oracles in ``tests/oracles.py``).  Each step runs in a fresh worker process
with the BLAS thread count pinned to ``BLAS_THREADS``: generate the inputs,
check the oracles and build the expected outputs, set up again, measure, and
with tracing on count once more in a fresh traced pass.  ``--workload all``
runs every workload in turn.

With ``--trace 0`` the last stdout line carries the ``end_to_end`` metrics
that ``BENCHMARK.json`` declares; with ``--trace 1`` it carries the
``per_layer`` metrics of a traced run.  The lines
before it name every metric with its unit, the error rate and the
environment.  Results and traced spans are also written under
``.perfbench/``.  The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RUN_TIMEOUT_S = 170  # every run ends within 180 s
SETUP_STEPS = 3  # set-ups in fresh processes, besides those of check and measure
# One BLAS thread per process: on a 2-core machine the full-scale p90
# latency was steady at 1 thread and swung by half at 2.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

class StepFailed(Exception):
    pass


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def step(name: str, work: Path, env: dict, deadline: float) -> dict:
    """Run one worker step to completion and return its result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(work)],
            env=env,
            stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"step {name} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise StepFailed(f"step {name} exited with code {proc.returncode}")
    return json.loads((work / f"{name}.json").read_text(encoding="utf-8"))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    """Run every step of one workload; return (report lines, result, exit code)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(OUT / f"spans-{tag}.json"),
    }
    (work / "run.json").write_text(json.dumps(run), encoding="utf-8")
    try:
        generated = step("gen", work, env, deadline)
        checked = step("check", work, env, deadline)
        setups = [checked["setup_s"]]
        if not trace:
            setups += [step("setup", work, env, deadline)["setup_s"] for _ in range(SETUP_STEPS)]
        measured = step("measure", work, env, deadline)
        recounted = step("recount", work, env, deadline) if trace else {"failures": []}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(measured["setup_s"])

    w = WORKLOADS[name]
    failures = measured["failures"] + measured.get("traced_failures", []) + recounted["failures"]
    attempted, failed = len(failures), sum(1 for f in failures if f)
    determinism = []
    if trace:
        first, second = measured["pass_counts"], recounted["pass_counts"]
        determinism = [
            f"count {key} differs between two traced processes: {first[key]} != {second[key]}"
            for key in first
            if first[key] != second[key]
        ]
    problems = checked["failures"] + determinism + sorted({p for f in failures for p in f})
    correct = not problems

    times_ms = [t * 1000 for t in measured["times"]]
    if trace:
        values = measured["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "latency_mean_ms": statistics.fmean(times_ms),
            "latency_p90_ms": percentile(times_ms, 90),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if trace else "end_to_end"]
    }
    environment = dict(
        measured["environment"],
        blas_threads_requested=BLAS_THREADS,
        nproc=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        seed=seed,
        synthetic=w.synthetic,
        queries=w.queries,
        seq_len=w.seq_len,
        query_conditions=generated["query_conditions"],
        selected_histogram=checked["selected_histogram"],
        mean_selected=checked["mean_selected"],
    )
    op = "eval invocation" if w.kind == "eval" else "query"
    lines = [f"workload {name} seed {seed} trace {int(trace)}: one op = one {op}"]
    lines += [f"{k} {m['value']!r} {m['unit']}" for k, m in metrics.items()]
    if not trace:
        if w.kind == "eval":
            lines.append(f"eval_s {statistics.median(measured['times'])!r} s (median)")
        for p in (50, 99):
            lines.append(f"latency_p{p}_ms {percentile(times_ms, p)!r} ms (information only)")
        lines.append(f"samples {len(times_ms)} setups {len(setups)}")
    lines.append(f"error_rate {failed / attempted!r} ({failed}/{attempted})")
    lines += [f"problem: {p}" for p in problems]
    lines.append("environment " + json.dumps(environment, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(result, environment=environment, problems=problems), indent=1),
        encoding="utf-8",
    )
    return lines, result, 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps the
    # running step and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    needed = ("BENCHMARK.json", "src/vprfuse/__init__.py", "tests/oracles.py", "tests/test_acceptance.py")
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a vprfuse source checkout, missing {missing}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            lines, result, status = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except StepFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        code = max(code, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
