"""Fuzzing the CLI's input boundary: any bytes in an input file, and any
numeric flag value, exit 0 or 2."""

import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vprfuse import (
    DatasetManifest,
    GroundTruth,
    write_descriptor_file,
    write_ground_truth,
    write_manifest,
)
from vprfuse.cli import main

TARGETS = ("manifest.txt", "ref_a.vprd", "ground_truth.csv")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A valid 6 places x 4-d x 2 sets dataset with an explicit ground truth."""
    root = tmp_path_factory.mktemp("fuzz") / "valid"
    root.mkdir()
    rng = np.random.default_rng(0)
    refs = []
    for label in ("a", "b"):
        path = root / f"ref_{label}.vprd"
        write_descriptor_file(path, rng.standard_normal((6, 4)).astype(np.float32))
        refs.append((label, path))
    write_descriptor_file(root / "query.vprd", rng.standard_normal((6, 4)).astype(np.float32))
    write_descriptor_file(root / "one.vprd", rng.standard_normal((1, 4)).astype(np.float32))
    write_ground_truth(root / "ground_truth.csv", GroundTruth(np.arange(6), 0))
    write_manifest(
        root / "manifest.txt",
        DatasetManifest(
            places=6, dim=4, query_path=root / "query.vprd", gt_tolerance=0,
            refs=refs, gt_path=root / "ground_truth.csv",
        ),
    )
    return root


@pytest.mark.parametrize("target", TARGETS)
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cut=st.integers(min_value=0, max_value=200), tail=st.binary(max_size=64))
@example(cut=0, tail=b"\xff")
@example(cut=25, tail=b"0," + b"1" * 131073 + b"\n")
@example(cut=25, tail=b"1000000000000000000,0\n")
def test_eval_exits_0_or_2_on_any_file_content(dataset_dir, tmp_path, target, cut, tail):
    """The target file becomes a prefix of its valid content plus arbitrary bytes.

    ``cut`` 0 gives arbitrary bytes; 25 keeps the ground truth's header line.
    """
    work = tmp_path / "work"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(dataset_dir, work)
    (work / target).write_bytes((dataset_dir / target).read_bytes()[:cut] + tail)
    assert main(["eval", "--manifest", str(work / "manifest.txt"), "--method", "all"]) in (0, 2)


INTS = st.integers(min_value=-3, max_value=8)
FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 5e-324, 0.0]),
    st.floats(),
)
METHODS = st.sampled_from(["bayes-selective", "baseline-fusion", "min-value:1", "all"])


def exit_code(argv):
    """``cli.main``'s return value, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def flags(**values):
    # --name=value, so that negative numbers and -inf reach the parser as values
    return [f"--{name.replace('_', '-')}={v}" for name, v in values.items()]


FLAG_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FLAG_SETTINGS
@given(
    seed=INTS, places=INTS, conditions=INTS, dim=INTS, gt_tolerance=INTS,
    place_spread=FLOATS, condition_scale=FLOATS, query_noise=FLOATS,
)
@example(
    seed=0, places=4, conditions=2, dim=3, gt_tolerance=0,
    place_spread=1e300, condition_scale=0.9, query_noise=0.5,
)
def test_synth_flags_exit_0_or_2(tmp_path, **values):
    argv = ["synth", "--out", str(tmp_path / "out"), *flags(**values)]
    assert exit_code(argv) in (0, 2)


@FLAG_SETTINGS
@given(method=METHODS, gamma=FLOATS, seq_len=INTS, seq_velocity=FLOATS)
@example(method="all", gamma=0.04, seq_len=3, seq_velocity=1e308)
def test_eval_flags_exit_0_or_2(dataset_dir, **values):
    argv = ["eval", "--manifest", str(dataset_dir / "manifest.txt"), *flags(**values)]
    assert exit_code(argv) in (0, 2)


@FLAG_SETTINGS
@given(method=METHODS, gamma=FLOATS, threshold=FLOATS)
def test_match_flags_exit_0_or_2(dataset_dir, **values):
    argv = [
        "match", "--manifest", str(dataset_dir / "manifest.txt"),
        "--query", str(dataset_dir / "one.vprd"), *flags(**values),
    ]
    assert exit_code(argv) in (0, 2)


@FLAG_SETTINGS
@given(method=METHODS, gamma=FLOATS, repetitions=INTS, queries=INTS)
def test_bench_flags_exit_0_or_2(dataset_dir, **values):
    argv = ["bench", "--manifest", str(dataset_dir / "manifest.txt"), *flags(**values)]
    assert exit_code(argv) in (0, 2)
