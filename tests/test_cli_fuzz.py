"""Fuzzing the CLI's input boundary: any bytes in an input file exit 0 or 2."""

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
