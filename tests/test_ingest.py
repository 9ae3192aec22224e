"""Descriptor file round trips, manifest validation and the synthetic generator."""

import dataclasses
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vprfuse import (
    Dataset,
    DatasetManifest,
    GroundTruth,
    ReferenceSet,
    SyntheticDataset,
    distance_stack,
    distance_vector,
    generate_synthetic,
    load_dataset,
    parse_manifest,
    read_descriptor_file,
    read_ground_truth,
    write_descriptor_file,
    write_ground_truth,
    write_manifest,
)
from vprfuse import ingest
from vprfuse.errors import ValidationError, checked_array


class TestDescriptorFile:
    def test_round_trip_basic(self, tmp_path):
        path = tmp_path / "d.vprd"
        rows = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
        write_descriptor_file(path, rows)
        np.testing.assert_array_equal(read_descriptor_file(path), rows)

    def test_round_trip_zero_vector(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.zeros((1, 7), dtype=np.float32))
        np.testing.assert_array_equal(read_descriptor_file(path), np.zeros((1, 7)))

    def test_exactly_representable_values(self, tmp_path):
        path = tmp_path / "d.vprd"
        rows = np.array([[-1.5, 3.25], [3.25, -1.5]])
        write_descriptor_file(path, rows)
        back = read_descriptor_file(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, rows.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(struct.pack("<4sIII", b"XXXX", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValidationError, match="bad magic"):
            read_descriptor_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(ValidationError, match="unsupported version"):
            read_descriptor_file(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(b"VPR")
        with pytest.raises(ValidationError, match="shorter than header"):
            read_descriptor_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.ones((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValidationError, match=r"payload truncated \("):
            read_descriptor_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.ones((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValidationError, match="trailing bytes"):
            read_descriptor_file(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 1, 4096, 4096) + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"payload truncated \("):
                read_descriptor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_payload_shorter_at_read_than_at_fstat(self, tmp_path, monkeypatch):
        # A file truncated between the size check and the read: the header
        # declares 5x4, 16 floats are left, and fstat still saw all 20.
        path = tmp_path / "d.vprd"
        payload = np.ones(16, dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 1, 5, 4) + payload)
        real_fstat = ingest.os.fstat

        def stale_fstat(fd):
            return types.SimpleNamespace(st_size=real_fstat(fd).st_size + 16)

        monkeypatch.setattr(ingest.os, "fstat", stale_fstat)
        with pytest.raises(ValidationError, match="truncated while reading"):
            read_descriptor_file(path)

    def test_read_peaks_below_one_and_a_half_payloads(self, tmp_path, rng):
        rows = rng.standard_normal((2000, 512)).astype(np.float32)
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, rows)
        tracemalloc.start()
        try:
            read_descriptor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows.nbytes

    def test_returns_an_owned_native_float32_array(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.arange(12.0).reshape(3, 4))
        back = read_descriptor_file(path)
        assert back.dtype == np.float32 and back.dtype.isnative
        assert back.flags.writeable and back.flags.owndata and back.flags.c_contiguous

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "d.vprd"
        payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 1, 1, 2) + payload)
        with pytest.raises(ValidationError):
            read_descriptor_file(path)

    def test_write_rejects_nonfinite(self, tmp_path):
        with pytest.raises(ValidationError):
            write_descriptor_file(tmp_path / "d.vprd", np.array([[np.inf, 0.0]]))

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValidationError):
            write_descriptor_file(tmp_path / "d.vprd", np.empty((0, 3), dtype=np.float32))
        with pytest.raises(ValidationError, match=r"descriptors must be a non-empty 1-D or 2-D "
                           r"array, got shape \(0,\)"):
            write_descriptor_file(tmp_path / "d.vprd", [])

    def test_write_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValidationError):
            write_descriptor_file(tmp_path / "d.vprd", [[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize(
        "bad",
        [[["1.5", "2"]], np.array([[object(), 1.0]], dtype=object), [[1 + 1j, 2.0]]],
        ids=["string", "object", "complex"],
    )
    def test_write_accepts_only_real_numbers(self, tmp_path, bad):
        path = tmp_path / "d.vprd"
        with pytest.raises(ValidationError, match="descriptors must hold real numbers"):
            write_descriptor_file(path, bad)
        assert not path.exists()

    def test_write_rejects_values_that_overflow_float32(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_descriptor_file(tmp_path / "d.vprd", [[1e300, 0.0]])

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
        )
    )
    def test_round_trip_bitwise(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("rt") / "d.vprd"
        write_descriptor_file(path, arr)
        back = read_descriptor_file(path)
        assert back.dtype == np.float32
        assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    def test_round_trip_large(self, tmp_path, rng):
        rows = rng.standard_normal((10_000, 16)).astype(np.float32)
        path = tmp_path / "big.vprd"
        write_descriptor_file(path, rows)
        back = read_descriptor_file(path)
        assert np.array_equal(back.view(np.uint32), rows.view(np.uint32))


class TestManifest:
    def _write_dataset(self, tmp_path, n=6, dim=4, with_gt=True):
        rng = np.random.default_rng(7)
        refs = []
        for label in ("winter", "summer"):
            p = tmp_path / f"{label}.vprd"
            write_descriptor_file(p, rng.standard_normal((n, dim)).astype(np.float32))
            refs.append((label, p))
        qp = tmp_path / "query.vprd"
        write_descriptor_file(qp, rng.standard_normal((n, dim)).astype(np.float32))
        gt_path = None
        if with_gt:
            gt_path = tmp_path / "gt.csv"
            write_ground_truth(gt_path, GroundTruth(np.arange(n), 2))
        manifest = DatasetManifest(
            places=n, dim=dim, query_path=qp, gt_tolerance=2, refs=refs, gt_path=gt_path
        )
        mp = tmp_path / "manifest.txt"
        write_manifest(mp, manifest)
        return mp

    def test_round_trip(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        m = parse_manifest(mp)
        assert m.places == 6 and m.dim == 4 and m.gt_tolerance == 2
        assert [label for label, _ in m.refs] == ["winter", "summer"]
        ds = load_dataset(mp)
        assert ds.n_places == 6 and ds.n_refs == 2 and ds.dim == 4
        assert ds.labels == ["winter", "summer"]

    def test_comments_and_blank_lines(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        text = "# a comment\n\n" + mp.read_text()
        mp.write_text(text)
        assert parse_manifest(mp).places == 6

    def test_unknown_key_rejected(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        mp.write_text(mp.read_text() + "bogus = 1\n")
        with pytest.raises(ValidationError, match="unknown key"):
            parse_manifest(mp)

    def test_missing_key_rejected(self, tmp_path):
        mp = tmp_path / "m.txt"
        mp.write_text("places = 3\ndim = 2\n")
        with pytest.raises(ValidationError, match="missing keys"):
            parse_manifest(mp)

    def test_duplicate_key_rejected(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        mp.write_text(mp.read_text() + "places = 6\n")
        with pytest.raises(ValidationError, match="duplicate key"):
            parse_manifest(mp)

    def test_non_integer_value_names_the_manifest(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        mp.write_text(mp.read_text().replace("places = 6", "places = x"))
        with pytest.raises(ValidationError, match="places must be an integer") as info:
            parse_manifest(mp)
        assert str(mp) in str(info.value) and "line 0" not in str(info.value)

    def test_bad_ref_value_rejected(self, tmp_path):
        mp = tmp_path / "m.txt"
        mp.write_text("places = 1\ndim = 1\nquery = q\ngt_tolerance = 0\nref = nopath\n")
        with pytest.raises(ValidationError, match="ref needs"):
            parse_manifest(mp)

    def test_shape_mismatch_rejected_before_compute(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        text = mp.read_text().replace("places = 6", "places = 7")
        mp.write_text(text)
        with pytest.raises(ValidationError, match="manifest says"):
            load_dataset(mp)

    def test_shape_mismatch_found_from_the_header(self, tmp_path, rng):
        path = tmp_path / "ref.vprd"
        write_descriptor_file(path, rng.standard_normal((2000, 512)).astype(np.float32))
        write_descriptor_file(tmp_path / "q.vprd", np.ones((1, 512), dtype=np.float32))
        mp = tmp_path / "manifest.txt"
        write_manifest(mp, DatasetManifest(2001, 512, tmp_path / "q.vprd", 0, [("a", path)]))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"\(2000, 512\), manifest says \(2001, 512\)"):
                load_dataset(mp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_file_rejected(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        (tmp_path / "winter.vprd").unlink()
        with pytest.raises(ValidationError, match="referenced file missing"):
            load_dataset(mp)

    @pytest.mark.parametrize(
        "field, text",
        [pytest.param("label", t, id=t) for t in ["a,b", "a\nb", "a\rb", " a", "a\t", ""]]
        + [
            pytest.param(field, t, id=f"{field}-{case}")
            for field in ("query", "gt", "ref")
            for case, t in [("lead", " p"), ("trail", "p "), ("lf", "a\nb"), ("cr", "a\rb")]
        ],
    )
    def test_write_rejects_a_label_that_would_not_read_back(self, tmp_path, field, text):
        # Labels and the query, gt and ref paths follow one rule.
        names = {"label": "a", "query": "q.vprd", "gt": "gt.csv", "ref": "r.vprd", field: text}
        manifest = DatasetManifest(
            1, 1, tmp_path / names["query"], 0,
            [(names["label"], tmp_path / names["ref"])], tmp_path / names["gt"],
        )
        with pytest.raises(ValidationError, match="would not read back"):
            write_manifest(tmp_path / "m.txt", manifest)
        assert not (tmp_path / "m.txt").exists()

    def test_labels_round_trip(self, tmp_path):
        labels = ["cond0", "a b", "x=y", "#1"]
        refs = [(label, tmp_path / f"r,{u}.vprd") for u, label in enumerate(labels)]
        manifest = DatasetManifest(1, 1, tmp_path / "q, 1.vprd", 0, refs, tmp_path / "g,t.csv")
        write_manifest(tmp_path / "m.txt", manifest)
        assert parse_manifest(tmp_path / "m.txt") == manifest

    @pytest.mark.parametrize("with_gt", [True, False])
    def test_loaded_arrays_are_read_only(self, tmp_path, with_gt):
        ds = load_dataset(self._write_dataset(tmp_path, with_gt=with_gt))
        assert ds.queries.dtype == np.float64 and ds.ground_truth.true_place.dtype == np.int64
        for arr in (ds.queries, ds.ground_truth.true_place):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_each_file_is_widened_and_checked_once(self, tmp_path, monkeypatch):
        calls = []
        real = ingest._float64_rows
        monkeypatch.setattr(
            ingest, "_float64_rows", lambda shape, *a: calls.append(shape) or real(shape, *a)
        )
        ds = load_dataset(self._write_dataset(tmp_path))
        assert calls == [(6, 4)] * 3  # the query file, then two reference files
        assert not ds.queries.flags.writeable and ds.queries.dtype == np.float64

    def test_identity_ground_truth_default(self, tmp_path):
        mp = self._write_dataset(tmp_path, with_gt=False)
        ds = load_dataset(mp)
        np.testing.assert_array_equal(ds.ground_truth.true_place, np.arange(6))
        assert ds.ground_truth.tolerance == 2


def _one_set_manifest(tmp_path, rows):
    """A manifest over a query file and one reference file, both holding ``rows``.

    Returns the manifest's path and the two files' paths by role.
    """
    paths = {"query": tmp_path / "q.vprd", "reference": tmp_path / "ref.vprd"}
    for path in paths.values():
        write_descriptor_file(path, rows)
    mp = tmp_path / "manifest.txt"
    write_manifest(mp, DatasetManifest(*rows.shape, paths["query"], 0, [("a", paths["reference"])]))
    return mp, paths


def _three_set_manifest(tmp_path, rng, query_dim=64, gt_path=None):
    """A manifest over 3 x 2000 x 64 reference files and 8 queries of ``query_dim``."""
    refs = []
    for u in range(3):
        path = tmp_path / f"ref{u}.vprd"
        write_descriptor_file(path, rng.standard_normal((2000, 64)))
        refs.append((f"c{u}", path))
    write_descriptor_file(tmp_path / "q.vprd", rng.standard_normal((8, query_dim)))
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, DatasetManifest(2000, 64, tmp_path / "q.vprd", 0, refs, gt_path))
    return manifest


class TestFailFastLoad:
    """load_dataset rejects a bad query file or ground truth before streaming references."""

    @staticmethod
    def _peak_of_rejected_load(manifest, match):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=match):
                load_dataset(manifest)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_missing_ground_truth(self, tmp_path, rng):
        mp = _three_set_manifest(tmp_path, rng, gt_path=tmp_path / "gt.csv")
        peak = self._peak_of_rejected_load(mp, "referenced file missing: .*gt.csv")
        assert peak < 1 << 20

    def test_query_dimension_disagrees_with_the_manifest(self, tmp_path, rng):
        mp = _three_set_manifest(tmp_path, rng, query_dim=63)
        peak = self._peak_of_rejected_load(mp, "dimension 63, manifest says 64")
        assert peak < 2000 * 64 * 8  # one set's float64 rows

    def test_query_dimension_checked_before_the_query_payload(self, tmp_path, rng):
        # Reading these 4200 x 63 queries would pass 1 MiB and find the NaN.
        mp = _three_set_manifest(tmp_path, rng)
        x = np.zeros((4200, 63), dtype="<f4")
        x[-1, -1] = np.nan  # write_descriptor_file refuses a NaN
        header = struct.pack("<4sIII", b"VPRD", 1, *x.shape)
        (tmp_path / "q.vprd").write_bytes(header + x.tobytes())
        peak = self._peak_of_rejected_load(mp, "dimension 63, manifest says 64")
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "places, match",
        [([0], "ground truth covers 1 queries, dataset has 8"),
         ([0] * 7 + [2000], "ground-truth place index out of range")],
        ids=["count", "range"],
    )
    def test_ground_truth_disagrees_with_the_dataset(self, tmp_path, rng, places, match):
        gt = tmp_path / "gt.csv"
        write_ground_truth(gt, GroundTruth(places, 0))
        mp = _three_set_manifest(tmp_path, rng, gt_path=gt)
        assert self._peak_of_rejected_load(mp, match) < 1 << 20


class TestStreamedLoad:
    """load_dataset widens the query file and each reference file block by block."""

    @pytest.mark.parametrize("dim", [4096, 64])
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (2, 3)],
        ids=["1", "block-1", "block", "2block+3"],
    )
    def test_rows_and_norms_bit_identical(self, tmp_path, rng, dim, blocks, extra):
        n = blocks * (ingest._BLOCK_BYTES // (4 * dim)) + extra
        x = rng.standard_normal((n, dim)).astype(np.float32)
        mp, paths = _one_set_manifest(tmp_path, x)
        dataset = load_dataset(mp)
        loaded = dataset.refs[0]
        from_array = ReferenceSet("a", read_descriptor_file(paths["reference"]))
        wide = np.array(x, np.float64)
        assert np.array_equal(dataset.queries, wide)
        for ref in (loaded, from_array):
            assert np.array_equal(ref.descriptors, wide)
            assert np.array_equal(ref.sq_norms, np.einsum("ij,ij->i", wide, wide))
            assert not ref.descriptors.flags.writeable and not ref.sq_norms.flags.writeable
            assert ref.descriptors.flags.c_contiguous

    @pytest.mark.parametrize("role", ["query", "reference"])
    def test_shrinks_after_fstat_in_a_later_block(self, tmp_path, rng, monkeypatch, role):
        dim = 64
        n = 2 * (ingest._BLOCK_BYTES // (4 * dim)) + 3
        mp, paths = _one_set_manifest(tmp_path, rng.standard_normal((n, dim)).astype(np.float32))
        path = paths[role]
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[: full - 4 * dim * 2])  # the last block falls short
        real_fstat, short = ingest.os.fstat, path.stat().st_size

        def stale_fstat(fd):  # the shrunken file still reports its old size
            size = real_fstat(fd).st_size
            return types.SimpleNamespace(st_size=full if size == short else size)

        monkeypatch.setattr(ingest.os, "fstat", stale_fstat)
        with pytest.raises(ValidationError, match="truncated while reading") as streamed:
            load_dataset(mp)
        with pytest.raises(ValidationError) as whole:
            read_descriptor_file(path)
        assert str(path) in str(streamed.value)
        assert str(streamed.value) == str(whole.value)

    @pytest.mark.parametrize("role", ["query", "reference"])
    def test_nan_in_the_last_block(self, tmp_path, rng, role):
        dim = 64
        n = 2 * (ingest._BLOCK_BYTES // (4 * dim)) + 3
        x = rng.standard_normal((n, dim)).astype(np.float32)
        x[-1, -1] = np.nan
        mp, paths = _one_set_manifest(tmp_path, np.zeros_like(x))
        path = paths[role]
        payload = path.read_bytes()[:16] + x.astype("<f4").tobytes()
        path.write_bytes(payload)  # write_descriptor_file refuses a NaN
        with pytest.raises(ValidationError) as streamed:
            load_dataset(mp)
        with pytest.raises(ValidationError) as whole:
            read_descriptor_file(path)
        assert str(path) in str(streamed.value)
        assert str(streamed.value) == str(whole.value)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth(np.array([3, 1, 2, 0]), 1)
        path = tmp_path / "gt.csv"
        write_ground_truth(path, gt)
        back = read_ground_truth(path, 1)
        np.testing.assert_array_equal(back.true_place, gt.true_place)

    def test_header_required(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("0,0\n1,1\n")
        with pytest.raises(ValidationError):
            read_ground_truth(path, 0)

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_index,place_index\n0,0\n0,1\n")
        with pytest.raises(ValidationError):
            read_ground_truth(path, 0)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("query_index,place_index\n0,0\n2,2\n")
        with pytest.raises(ValidationError):
            read_ground_truth(path, 0)

    def test_keeps_a_read_only_int64_copy(self):
        original = np.arange(4, dtype=np.int64)
        gt = GroundTruth(original, 0)
        with pytest.raises(ValueError):
            gt.true_place[0] = 1
        original[0] = 3  # the caller's array stays writable and unshared
        assert gt.true_place[0] == 0 and gt.true_place.dtype == np.int64

    @pytest.mark.parametrize("place", ["-1", str(2**63)])
    def test_place_index_outside_int64_rejected(self, tmp_path, place):
        path = tmp_path / "gt.csv"
        path.write_text(f"query_index,place_index\n0,{place}\n")
        with pytest.raises(ValidationError, match="out of range"):
            read_ground_truth(path, 0)

    @pytest.mark.parametrize(
        "places",
        [[0.9, 1.9], [np.nan], [np.inf], [2.0**63], [2**70],
         np.array([2**63], dtype=np.uint64), ["0"], [1j], [[0], [1, 2]]],
        ids=["fraction", "nan", "inf", "float-2^63", "int-2^70", "uint64-2^63",
             "string", "complex", "ragged"],
    )
    def test_place_indices_must_be_int64_integers(self, places):
        with pytest.raises(ValidationError, match="ground-truth place indices"):
            GroundTruth(places, 0)

    @pytest.mark.parametrize("tolerance", [np.nan, 1.5, "1", None, -1])
    def test_tolerance_must_be_a_non_negative_integer(self, tolerance):
        with pytest.raises(ValidationError, match="ground-truth tolerance must be"):
            GroundTruth([0], tolerance)

    def test_integral_values_of_any_real_dtype_accepted(self):
        for places in ([0.0, 2.0], np.array([0, 2], dtype=np.uint8), [False, True]):
            gt = GroundTruth(places, np.int64(1))
            assert gt.true_place.dtype == np.int64 and gt.true_place.tolist() == [0, int(places[1])]


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self, tmp_path):
        a = generate_synthetic(seed=11, n_places=30, n_conditions=2, dim=6)
        b = generate_synthetic(seed=11, n_places=30, n_conditions=2, dim=6)
        for ra, rb in zip(a.refs, b.refs):
            assert np.array_equal(ra.descriptors, rb.descriptors)
        assert np.array_equal(a.queries, b.queries)
        assert np.array_equal(a.query_conditions, b.query_conditions)
        # identical output bytes, not just values
        pa, pb = tmp_path / "a.vprd", tmp_path / "b.vprd"
        write_descriptor_file(pa, a.queries)
        write_descriptor_file(pb, b.queries)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        a = generate_synthetic(seed=1, n_places=10, n_conditions=2, dim=4)
        b = generate_synthetic(seed=2, n_places=10, n_conditions=2, dim=4)
        assert not np.array_equal(a.queries, b.queries)

    def test_noise_free_queries_match_their_condition(self):
        d = generate_synthetic(
            seed=5, n_places=12, n_conditions=3, dim=4,
            condition_scale=0.0, query_noise=0.0,
        )
        for j in range(12):
            u = d.query_conditions[j]
            np.testing.assert_array_equal(d.queries[j], d.refs[u].descriptors[j])
            assert distance_vector(d.queries[j], d.refs[u])[j] == 0.0

    def test_ground_truth_is_identity(self):
        d = generate_synthetic(seed=0, n_places=9, n_conditions=1, dim=3)
        np.testing.assert_array_equal(d.ground_truth.true_place, np.arange(9))

    def test_mixture_restricts_conditions(self):
        d = generate_synthetic(
            seed=0, n_places=200, n_conditions=3, dim=4, mixture=(0.5, 0.5, 0.0)
        )
        assert set(np.unique(d.query_conditions)) <= {0, 1}
        assert set(np.unique(d.query_conditions)) == {0, 1}

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            generate_synthetic(n_places=0)
        with pytest.raises(ValidationError):
            generate_synthetic(n_conditions=0)
        with pytest.raises(ValidationError):
            generate_synthetic(dim=0)
        with pytest.raises(ValidationError):
            generate_synthetic(mixture=(1.0,))  # wrong length
        with pytest.raises(ValidationError):
            generate_synthetic(n_conditions=2, mixture=(-1.0, 2.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                generate_synthetic(n_conditions=2, mixture=(1.0, bad))
        for bad in ((1 + 1j, 1, 1), ("1", "1", "1")):
            with pytest.raises(ValidationError, match="mixture weights must hold real numbers"):
                generate_synthetic(mixture=bad)
        with pytest.raises(ValidationError):
            generate_synthetic(seed=-1)

    def test_matching_condition_min_value_solves_default_instance(self):
        # Frozen at defaults: 195/200 queries solved by nearest neighbor within
        # their own condition's reference set (= 0.975 precision and recall,
        # since every query is decided).
        d = generate_synthetic(seed=0, n_places=200, n_conditions=3, mixture=(0.5, 0.5, 0.0))
        correct = 0
        for j in range(200):
            dv = distance_vector(d.queries[j], d.refs[d.query_conditions[j]])
            correct += int(np.argmin(dv)) == j
        assert correct == 195
        assert correct / 200 >= 0.95

    def test_synthetic_dataset_is_a_validated_dataset(self):
        d = generate_synthetic(seed=0, n_places=8, n_conditions=2, dim=4)
        assert isinstance(d, Dataset)
        assert d.n_places == 8
        with pytest.raises(ValidationError):
            SyntheticDataset(d.refs, d.queries[:, :3], d.ground_truth, d.query_conditions)


class TestReferenceSetValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ReferenceSet("x", np.array([[np.nan, 0.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match=r"reference set 'x' must be a non-empty 2-D "
                           r"array, got shape \(4,\)"):
            ReferenceSet("x", np.arange(4.0))

    def test_finite_rows_with_overflowing_norms_accepted(self):
        ref = ReferenceSet("x", np.array([[1e200, 0.0], [1.0, 2.0]]))
        assert np.isinf(ref.sq_norms[0]) and ref.sq_norms[1] == 5.0

    def test_frozen_after_validation(self):
        ref = ReferenceSet("x", np.ones((3, 2), dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.descriptors = np.ones((5, 2))
        ds = Dataset([ref], np.ones((3, 2), dtype=np.float32), GroundTruth(np.arange(3), 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.queries = np.ones((4, 2))
        assert ref.n_places == 3 and ds.queries.shape == (3, 2)

    def test_rows_are_a_read_only_copy(self, rng):
        original = rng.standard_normal((4, 3)).astype(np.float32)
        ref = ReferenceSet("x", original)
        q = rng.standard_normal(3)
        before = distance_vector(q, ref)
        assert ref.descriptors.dtype == np.float64 and ref.descriptors.flags.c_contiguous
        with pytest.raises(ValueError):
            ref.descriptors[0, 0] = 1.0
        with pytest.raises(ValueError):
            ref.sq_norms[0] = 1.0
        original[:] = np.nan  # the caller's array stays writable and unshared
        np.testing.assert_array_equal(distance_vector(q, ref), before)

    def test_load_retains_one_float64_copy_of_the_rows(self, tmp_path, rng):
        # 3 x 2000 x 64 references and 8 queries: what load_dataset and one
        # distance stack keep alive must be about the float64 rows, not the
        # float32 file contents on top of them, and loading must never hold
        # a float32 copy of a whole payload either.
        n_refs, n_places, dim = 3, 2000, 64
        manifest = _three_set_manifest(tmp_path, rng)
        tracemalloc.start()
        try:
            ds = load_dataset(manifest)
            _, load_peak = tracemalloc.get_traced_memory()
            stack = distance_stack(ds.queries[0], ds.refs)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack.n_refs == n_refs
        float64_rows = n_refs * n_places * dim * 8
        assert retained < 1.2 * float64_rows, retained / float64_rows
        assert load_peak < 1.1 * float64_rows, load_peak / float64_rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_queries_are_a_read_only_float64_copy(self, rng, dtype):
        original = rng.standard_normal((3, 2)).astype(dtype)
        ds = Dataset([ReferenceSet("x", np.ones((3, 2)))], original, GroundTruth(np.arange(3), 0))
        assert ds.queries.dtype == np.float64 and ds.queries.flags.c_contiguous
        np.testing.assert_array_equal(ds.queries, original)
        with pytest.raises(ValueError):
            ds.queries[0, 0] = 1.0
        original[:] = 0.0  # the caller's array stays writable and unshared
        assert not np.shares_memory(ds.queries, original) and ds.queries.any()

    def test_dataset_rejects_bad_queries(self):
        ref = ReferenceSet("x", np.ones((3, 2)))
        with pytest.raises(ValidationError, match=r"got shape \(0, 2\)"):
            Dataset([ref], np.empty((0, 2)), GroundTruth(np.arange(0), 0))
        with pytest.raises(ValidationError, match=r"queries must be a non-empty 2-D array, "
                           r"got shape \(2,\)"):
            Dataset([ref], np.ones(2), GroundTruth(np.arange(1), 0))
        with pytest.raises(ValidationError, match=r"queries must be \(n_queries, 2\), "
                           r"got shape \(1, 3\)"):
            Dataset([ref], np.ones((1, 3)), GroundTruth(np.arange(1), 0))
        with pytest.raises(ValidationError, match="non-finite query descriptor component"):
            Dataset([ref], np.array([[0.0, np.inf]]), GroundTruth(np.arange(1), 0))

    @pytest.mark.parametrize(
        "bad",
        [np.array([["a", "b"]]), np.array([[object(), 1.0]], dtype=object),
         [[1.0, 2.0], [3.0]], np.array([[1 + 2j, 0.0]])],
        ids=["string", "object", "ragged", "complex"],
    )
    def test_non_numeric_arrays_rejected(self, bad):
        ref = ReferenceSet("x", np.ones((1, 2)))
        with pytest.raises(ValidationError, match="'y' (must hold real|is not a rect)"):
            ReferenceSet("y", bad)
        with pytest.raises(ValidationError, match="queries (must hold real|is not a rect)"):
            Dataset([ref], bad, GroundTruth(np.arange(1), 0))
        with pytest.raises(ValidationError, match="score (must hold real|is not a rect)"):
            checked_array(bad, 2, "score")

    def test_dataset_rejects_mixed_shapes(self):
        a = ReferenceSet("a", np.ones((3, 2), dtype=np.float32))
        b = ReferenceSet("b", np.ones((4, 2), dtype=np.float32))
        with pytest.raises(ValidationError):
            Dataset([a, b], np.ones((3, 2), dtype=np.float32), GroundTruth(np.arange(3), 0))
