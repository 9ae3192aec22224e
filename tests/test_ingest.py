"""Descriptor file round trips, manifest validation and the synthetic generator."""

import dataclasses
import struct
import tracemalloc

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
from vprfuse.errors import (
    DescriptorCorruptionError,
    DescriptorFormatError,
    ManifestError,
    ValidationError,
)


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
        with pytest.raises(DescriptorFormatError):
            read_descriptor_file(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(DescriptorFormatError):
            read_descriptor_file(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(b"VPR")
        with pytest.raises(DescriptorFormatError):
            read_descriptor_file(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.ones((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(DescriptorCorruptionError):
            read_descriptor_file(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "d.vprd"
        write_descriptor_file(path, np.ones((2, 2), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DescriptorCorruptionError):
            read_descriptor_file(path)

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "d.vprd"
        path.write_bytes(struct.pack("<4sIII", b"VPRD", 1, 4096, 4096) + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(DescriptorCorruptionError):
                read_descriptor_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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

    def test_write_rejects_ragged_rows(self, tmp_path):
        with pytest.raises(ValidationError):
            write_descriptor_file(tmp_path / "d.vprd", [[1.0, 2.0], [3.0]])

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
        with pytest.raises(ManifestError):
            parse_manifest(mp)

    def test_missing_key_rejected(self, tmp_path):
        mp = tmp_path / "m.txt"
        mp.write_text("places = 3\ndim = 2\n")
        with pytest.raises(ManifestError):
            parse_manifest(mp)

    def test_duplicate_key_rejected(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        mp.write_text(mp.read_text() + "places = 6\n")
        with pytest.raises(ManifestError):
            parse_manifest(mp)

    def test_non_integer_value_names_the_manifest(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        mp.write_text(mp.read_text().replace("places = 6", "places = x"))
        with pytest.raises(ManifestError, match="places must be an integer") as info:
            parse_manifest(mp)
        assert str(mp) in str(info.value) and "line 0" not in str(info.value)

    def test_bad_ref_value_rejected(self, tmp_path):
        mp = tmp_path / "m.txt"
        mp.write_text("places = 1\ndim = 1\nquery = q\ngt_tolerance = 0\nref = nopath\n")
        with pytest.raises(ManifestError):
            parse_manifest(mp)

    def test_shape_mismatch_rejected_before_compute(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        text = mp.read_text().replace("places = 6", "places = 7")
        mp.write_text(text)
        with pytest.raises(ManifestError):
            load_dataset(mp)

    def test_missing_file_rejected(self, tmp_path):
        mp = self._write_dataset(tmp_path)
        (tmp_path / "winter.vprd").unlink()
        with pytest.raises(ManifestError):
            load_dataset(mp)

    def test_identity_ground_truth_default(self, tmp_path):
        mp = self._write_dataset(tmp_path, with_gt=False)
        ds = load_dataset(mp)
        np.testing.assert_array_equal(ds.ground_truth.true_place, np.arange(6))
        assert ds.ground_truth.tolerance == 2


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

    @pytest.mark.parametrize("place", ["-1", str(2**63)])
    def test_place_index_outside_int64_rejected(self, tmp_path, place):
        path = tmp_path / "gt.csv"
        path.write_text(f"query_index,place_index\n0,{place}\n")
        with pytest.raises(ValidationError, match="out of range"):
            read_ground_truth(path, 0)


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
        with pytest.raises(ValidationError):
            ReferenceSet("x", np.arange(4.0))

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
        # float32 file contents on top of them.
        n_refs, n_places, dim = 3, 2000, 64
        refs = []
        for u in range(n_refs):
            path = tmp_path / f"ref{u}.vprd"
            write_descriptor_file(path, rng.standard_normal((n_places, dim)))
            refs.append((f"c{u}", path))
        write_descriptor_file(tmp_path / "q.vprd", rng.standard_normal((8, dim)))
        manifest = tmp_path / "manifest.txt"
        write_manifest(
            manifest, DatasetManifest(n_places, dim, tmp_path / "q.vprd", 0, refs)
        )
        tracemalloc.start()
        try:
            ds = load_dataset(manifest)
            stack = distance_stack(ds.queries[0], ds.refs)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack.n_refs == n_refs
        float64_rows = n_refs * n_places * dim * 8
        assert retained < 1.2 * float64_rows, retained / float64_rows

    def test_dataset_rejects_mixed_shapes(self):
        a = ReferenceSet("a", np.ones((3, 2), dtype=np.float32))
        b = ReferenceSet("b", np.ones((4, 2), dtype=np.float32))
        with pytest.raises(ValidationError):
            Dataset([a, b], np.ones((3, 2), dtype=np.float32), GroundTruth(np.arange(3), 0))
