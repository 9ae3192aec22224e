"""Command-line entry point: synth, eval, match and bench subcommands.

All randomness lives in ``synth`` behind an explicit seed; at a fixed BLAS
thread count, the same flags and input files give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .distance import distance_stack
from .errors import ValidationError, VPRFuseError
from .evaluation import TimingReport, bench_query, evaluate_method
from .fusion import _decided
from .ingest import (
    DatasetManifest,
    _read_rows,
    generate_synthetic,
    load_dataset,
    write_descriptor_file,
    write_ground_truth,
    write_manifest,
)
from .methods import expand_methods, resolve_method
from .selection import DEFAULT_GAMMA, _check_gamma


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _safe_name(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "._-") else "_" for ch in name)


def _emit(lines: list[str], out_path: Path | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        out_path.write_text(text, encoding="utf-8")


def cmd_synth(args: argparse.Namespace) -> int:
    data = generate_synthetic(
        seed=args.seed,
        n_places=args.places,
        n_conditions=args.conditions,
        dim=args.dim,
        place_spread=args.place_spread,
        condition_scale=args.condition_scale,
        query_noise=args.query_noise,
        mixture=args.mixture,
        gt_tolerance=args.gt_tolerance,
    )
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    refs = []
    for ref in data.refs:
        path = out / f"ref_{_safe_name(ref.label)}.vprd"
        write_descriptor_file(path, ref.descriptors)
        refs.append((ref.label, path))
    query_path = out / "query.vprd"
    write_descriptor_file(query_path, data.queries)
    gt_path = out / "ground_truth.csv"
    write_ground_truth(gt_path, data.ground_truth)
    manifest_path = out / "manifest.txt"
    write_manifest(
        manifest_path,
        DatasetManifest(
            places=args.places,
            dim=args.dim,
            query_path=query_path,
            gt_tolerance=args.gt_tolerance,
            refs=refs,
            gt_path=gt_path,
        ),
    )
    print(manifest_path)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    methods = expand_methods(args.method, dataset.labels)
    pr_files = [f"pr_{_safe_name(method.name)}.csv" for method in methods]
    if args.out is not None:
        for k, pr_file in enumerate(pr_files):
            first = pr_files.index(pr_file)
            if first < k:
                raise ValidationError(
                    f"methods {methods[first].name!r} and {methods[k].name!r} "
                    f"would both write {pr_file}"
                )
        args.out.mkdir(parents=True, exist_ok=True)
    summary = ["method,auc,n_queries"]
    for method, pr_file in zip(methods, pr_files):
        result = evaluate_method(
            dataset,
            method,
            gamma=args.gamma,
            seq_len=args.seq_len,
            seq_velocity=args.seq_velocity,
        )
        lines = ["threshold,recall,precision"]
        for cutoff, (recall, precision) in zip(result.curve.thresholds, result.curve.points):
            lines.append(f"{_fmt(cutoff)},{_fmt(recall)},{_fmt(precision)}")
        if args.out is None:
            print(f"# method={method.name}")
            _emit(lines, None)
        else:
            _emit(lines, args.out / pr_file)
        summary.append(f"{method.name},{_fmt(result.curve.auc)},{len(result.decided)}")
    _emit(summary, None if args.out is None else args.out / "summary.csv")
    if args.out is not None:
        for line in summary:
            print(line)
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ValidationError(
            f"--threshold must lie in (0, 1), got {args.threshold}"
        )
    dataset = load_dataset(args.manifest)
    query, _ = _read_rows(args.query_file, dataset.dim)
    if query.shape[0] != 1:
        raise ValidationError(
            f"match expects a single-descriptor query file, got {query.shape[0]} rows"
        )
    method = resolve_method(args.method, dataset.labels)
    stack = distance_stack(query[0], dataset.refs)
    selection = method.select(stack, args.gamma)
    print(f"method: {method.name}")
    print(f"gamma: {_fmt(args.gamma)}")
    print("reference minima:")
    for u, label in enumerate(dataset.labels):
        tags = []
        if selection.mask[u]:
            tags.append("selected")
        if u == selection.best:
            tags.append("best")
        suffix = f"  ({', '.join(tags)})" if tags else ""
        print(f"  [{u}] {label}: min={_fmt(selection.minima[u])}{suffix}")
    if selection.zero_limit:
        print("note: best minimum is exactly zero; kept the zero-minimum sets")
    print(f"selected sets: {list(selection.selected)}")

    rows, used = method.fuse_rows(stack.values[None], selection.mask[None])
    row, dropped = rows[0], np.flatnonzero(selection.mask & ~used[0])
    if dropped.size:
        print(f"dropped degenerate sets: {dropped.tolist()}")
    belief = method.kind == "belief"
    print("top beliefs:" if belief else "top scores (negative mean distance):")
    for i in np.argsort(-row, kind="stable")[:5]:
        print(f"  place {int(i)}: {_fmt(row[i])}")
    place, score, decides = _decided(row)
    if not decides:
        print(f"no-information: all {row.size} places score {_fmt(score)}")
        print("decision: none")
    elif not belief:
        print(f"decision: place={place} confidence={_fmt(score)}")
    elif score > args.threshold:
        print(
            f"decision: place={place} "
            f"confidence={_fmt(score)} threshold={_fmt(args.threshold)}"
        )
    else:
        print(
            f"decision: no match (max belief {_fmt(score)} "
            f"<= threshold {_fmt(args.threshold)})"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.manifest)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    report = bench_query(
        dataset,
        method=args.method,
        repetitions=args.repetitions,
        n_queries=args.queries,
        gamma=args.gamma,
    )
    lines = ["method,phase,mean_s,median_s"]
    for phase in TimingReport.PHASE_ORDER:
        stats = report.phases[phase]
        lines.append(
            f"{report.method},{phase},{stats.mean_s:.9f},{stats.median_s:.9f}"
        )
    _emit(lines, None if args.out is None else args.out / "timing.csv")
    return 0


def _parse_mixture(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mixture {text!r}; expected e.g. 0.5,0.5,0")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vprfuse",
        description="Selective Bayesian fusion of multi-condition reference sets "
        "for visual place recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    synth.add_argument("--out", type=Path, required=True, help="output directory")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--places", type=int, default=500)
    synth.add_argument("--conditions", type=int, default=3)
    synth.add_argument("--dim", type=int, default=24)
    synth.add_argument("--place-spread", type=float, default=1.0)
    synth.add_argument("--condition-scale", type=float, default=0.9)
    synth.add_argument("--query-noise", type=float, default=0.5)
    synth.add_argument(
        "--mixture",
        type=_parse_mixture,
        default=None,
        help="per-condition query draw weights, e.g. 0.5,0.5,0 (default uniform)",
    )
    synth.add_argument("--gt-tolerance", type=int, default=0)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--manifest", type=Path, required=True)
    shared.add_argument("--gamma", type=float, default=DEFAULT_GAMMA,
                        help="selection tolerance; must be positive for every method")

    evalp = sub.add_parser("eval", parents=[shared], help="precision-recall evaluation")
    evalp.add_argument("--method", default="bayes-selective", help="method name or 'all'")
    evalp.add_argument("--seq-len", type=int, default=1)
    evalp.add_argument("--seq-velocity", type=float, default=1.0)
    evalp.add_argument("--out", type=Path, default=None, help="write CSVs here instead of stdout")

    match = sub.add_parser("match", parents=[shared], help="diagnose a single query")
    match.add_argument("--query", dest="query_file", type=Path, required=True)
    match.add_argument("--method", default="bayes-selective")
    match.add_argument("--threshold", type=float, default=0.5)

    bench = sub.add_parser("bench", parents=[shared], help="per-query timing")
    bench.add_argument("--method", default="bayes-selective")
    bench.add_argument("--repetitions", type=int, default=5)
    bench.add_argument("--queries", type=int, default=32)
    bench.add_argument("--out", type=Path, default=None)

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "eval": cmd_eval,
    "match": cmd_match,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_gamma(getattr(args, "gamma", DEFAULT_GAMMA))  # once, for every method
        return _COMMANDS[args.command](args)
    except (VPRFuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
