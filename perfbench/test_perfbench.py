"""Tests of the benchmark itself: span arithmetic and patch hygiene.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import vprfuse  # noqa: E402
import vprfuse.cli  # noqa: E402
from spans import SETUP_OP, Span  # noqa: E402

TINY = dict(
    n_places=60, n_conditions=3, dim=8, place_spread=1.0,
    condition_scale=0.15, query_noise=0.5, mixture=None, gt_tolerance=0,
)


def test_self_time_subtracts_child_coverage():
    tree = [
        Span("root", 0.0, 10.0, parent=-1, op=0),
        Span("a", 1.0, 4.0, parent=0, op=0),
        Span("a.child", 2.0, 3.0, parent=1, op=0),
        Span("b", 5.0, 7.0, parent=0, op=0),
        Span("c", 6.0, 8.0, parent=0, op=0),  # overlaps b: covered once
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 3, 2.0, 1.0, 2.0, 2.0])


def test_layer_metrics_sum_per_op_and_take_the_median():
    tree = [
        Span("ingest.load", 0.0, 1.0, parent=-1, op=SETUP_OP),
        Span("ingest.read", 0.1, 0.4, parent=0, op=SETUP_OP, info={"bytes": 100}),
        Span("ingest.read", 0.5, 0.9, parent=0, op=SETUP_OP, info={"bytes": 50}),
        Span("distance.stack", 1.0, 1.5, parent=-1, op=SETUP_OP),
    ]
    for op, (start, stack) in enumerate([(2.0, 0.2), (3.0, 0.4), (4.0, 0.3)]):
        tree.append(Span("methods.fuse", start, start + 0.5, parent=-1, op=op))
        tree.append(Span("fusion.posterior", start + 0.1, start + 0.3, parent=len(tree) - 1, op=op))
        tree.append(Span("distance.stack", start + 0.6, start + 0.6 + stack, parent=-1, op=op))
    metrics = spans.layer_metrics(tree)
    assert metrics["ingest.load_s"] == pytest.approx(1.0)
    assert metrics["ingest.bytes_read"] == 150
    assert metrics["distance.first_stack_s"] == pytest.approx(0.5)
    assert metrics["methods.fuse_s"] == pytest.approx(0.3)
    assert metrics["fusion.posterior_s"] == pytest.approx(0.2)
    assert metrics["distance.stack_total_s"] == pytest.approx(0.3)
    assert metrics["distance.stack_s"] == pytest.approx(0.35)
    assert metrics["sequence.aggregate_s"] == 0.0


def test_pass_counts():
    tree = [
        Span("distance.stack", 0, 1),
        Span("selection.select", 1, 2, info={"method": "bayes-selective", "n_selected": 2}),
        Span("selection.select", 1, 2, info={"method": "bayes-full", "n_selected": 3}),
        Span("fusion.posterior", 2, 3, info={"dropped": 1}),
        Span("likelihood.llr", 2, 3, parent=3),
        Span("fusion.posterior", 3, 4, info={"raised": "NoInformationError"}),
        Span("distance.stack", 4, 5),
    ]
    assert spans.pass_counts(tree, n_queries=2) == {
        "distance.stacks_per_query": 1.0,
        "selection.mean_selected": 2.0,
        "likelihood.calls": 1,
        "fusion.dropped_sets": 1,
        "fusion.prior_fallbacks": 1,
    }


def _attributes():
    """Every attribute of every loaded vprfuse module, plus the patched containers."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "vprfuse" or name.startswith("vprfuse."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    for attr, value in vars(vprfuse.methods.Method).items():
        snapshot[("Method", attr)] = value
    for attr, value in vprfuse.cli._COMMANDS.items():
        snapshot[("_COMMANDS", attr)] = value
    return snapshot


def _unchanged(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def _run_steps(tmp_path, monkeypatch, kind, trace):
    name = f"tiny-{kind}"
    monkeypatch.setitem(
        worker.WORKLOADS, name, worker.Workload(kind, TINY, queries=12, seq_len=3)
    )
    run = {
        "workload": name, "seed": 3, "seconds": 0, "trace": trace,
        "spans_path": str(tmp_path / "spans.json"),
    }
    (tmp_path / "run.json").write_text(json.dumps(run))
    steps = ("gen", "check", "measure", "recount") if trace else ("gen", "check", "measure")
    for step in steps:
        assert worker.main([step, str(tmp_path)]) == 0
    return json.loads((tmp_path / "measure.json").read_text())


@pytest.mark.parametrize("kind", ["eval", "online"])
def test_untraced_run_leaves_vprfuse_unpatched(tmp_path, monkeypatch, kind):
    def refuse(self, *args, **kwargs):
        raise AssertionError("an untraced run installed span wrappers")

    monkeypatch.setattr(spans.Tracer, "installed", refuse)
    before = _attributes()
    measured = _run_steps(tmp_path, monkeypatch, kind, trace=False)
    assert _unchanged(before, _attributes())
    assert measured["times"] and not any(measured["failures"])
    assert "layers" not in measured


@pytest.mark.parametrize("kind, stacks", [("eval", 10), ("online", 1)])
def test_traced_run_counts_and_restores(tmp_path, monkeypatch, kind, stacks):
    before = _attributes()
    measured = _run_steps(tmp_path, monkeypatch, kind, trace=True)
    assert _unchanged(before, _attributes())
    recounted = json.loads((tmp_path / "recount.json").read_text())
    assert measured["pass_counts"] == recounted["pass_counts"]
    assert not any(recounted["failures"])
    assert measured["layers"]["distance.stacks_per_query"] == stacks
    assert 1 <= measured["layers"]["selection.mean_selected"] <= 3
    assert not any(measured["traced_failures"])
    assert json.loads((tmp_path / "spans.json").read_text())
