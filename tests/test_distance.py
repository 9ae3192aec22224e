"""Distance operations against independent summation oracles."""

import ast
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import vprfuse
from vprfuse import DistanceStack, ReferenceSet, distance_stack, distance_vector
from vprfuse.errors import ValidationError


def naive_distance(a, b):
    """Scalar loop with compensated double-precision summation."""
    return math.sqrt(math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


class TestEuclideanDistance:
    """One distance at a time, as a one-row reference set."""

    def test_identity_is_zero(self):
        assert distance_vector([0.3, -0.7], [[0.3, -0.7]])[0] == 0.0

    def test_3_4_5_triangle(self):
        assert distance_vector([3.0, 4.0], [[0.0, 0.0]])[0] == 5.0

    def test_symmetry(self, rng):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert distance_vector(a, [b])[0] == distance_vector(b, [a])[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            distance_vector([1.0, 2.0], [[1.0, 2.0, 3.0]])

    def test_matches_naive_loop_4096d(self, rng):
        a = rng.standard_normal(4096).astype(np.float32)
        b = rng.standard_normal(4096).astype(np.float32)
        got = distance_vector(a, [b])[0]
        want = naive_distance(a, b)
        assert got == pytest.approx(want, rel=1e-6)

    def test_float32_inputs_accumulate_in_double(self, rng):
        # float32 accumulation of 1e6 similar values drifts well past 1e-6
        # relative; double accumulation must not.
        a = np.full(100_000, 1.0001, dtype=np.float32)
        b = np.zeros(100_000, dtype=np.float32)
        want = naive_distance(a, b)
        assert distance_vector(a, [b])[0] == pytest.approx(want, rel=1e-9)


class TestDistanceVector:
    def test_exact_match_gives_zero_at_that_place(self, rng):
        descs = rng.standard_normal((10, 6)).astype(np.float32)
        ref = ReferenceSet("r", descs)
        d = distance_vector(descs[7], ref)
        assert d[7] == 0.0
        assert int(np.argmin(d)) == 7

    def test_single_place(self, rng):
        ref = ReferenceSet("r", rng.standard_normal((1, 4)).astype(np.float32))
        d = distance_vector(rng.standard_normal(4), ref)
        assert d.shape == (1,)

    def test_composition_oracle(self, rng):
        descs = rng.standard_normal((50, 12)).astype(np.float32)
        ref = ReferenceSet("r", descs)
        q = rng.standard_normal(12).astype(np.float32)
        got = distance_vector(q, ref)
        want = np.array([naive_distance(q, row) for row in descs])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_dimension_mismatch(self, rng):
        ref = ReferenceSet("r", rng.standard_normal((3, 4)).astype(np.float32))
        with pytest.raises(ValidationError):
            distance_vector(np.zeros(5), ref)

    def test_homogeneity_under_scaling(self, rng):
        descs = rng.standard_normal((40, 8))
        q = rng.standard_normal(8)
        base = distance_vector(q, descs)
        for c in (1e-3, 1.0, 1e3):
            scaled = distance_vector(c * q, c * descs)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-9, atol=0.0)

    def test_permutation_equivariance(self, rng):
        descs = rng.standard_normal((20, 5))
        q = rng.standard_normal(5)
        perm = rng.permutation(20)
        np.testing.assert_array_equal(
            distance_vector(q, descs[perm]), distance_vector(q, descs)[perm]
        )

    def test_raw_array_is_validated_like_a_reference_set(self):
        with pytest.raises(ValidationError):
            distance_vector(np.zeros(2), np.array([[np.nan, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValidationError):
            distance_vector(np.zeros(2), np.zeros(2))

    def test_near_duplicate_rows_stay_accurate(self):
        # Entries subject to catastrophic cancellation in the expanded form
        # are re-evaluated exactly.
        base = np.full(64, 100.0)
        bumped = base.copy()
        bumped[0] += 1e-6
        d = distance_vector(base, np.stack([base, bumped]))
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1e-6, rel=1e-6)


class TestDistanceStack:
    def test_single_set(self, rng):
        ref = ReferenceSet("a", rng.standard_normal((6, 3)).astype(np.float32))
        q = rng.standard_normal(3)
        stack = distance_stack(q, [ref])
        assert stack.n_refs == 1
        np.testing.assert_array_equal(stack.values[0], distance_vector(q, ref))

    def test_identical_sets_duplicate_rows(self, rng):
        descs = rng.standard_normal((6, 3)).astype(np.float32)
        refs = [ReferenceSet(f"r{i}", descs.copy()) for i in range(3)]
        stack = distance_stack(rng.standard_normal(3), refs)
        np.testing.assert_array_equal(stack.values[0], stack.values[1])
        np.testing.assert_array_equal(stack.values[0], stack.values[2])

    def test_composition_oracle(self, rng):
        refs = [
            ReferenceSet(f"r{i}", rng.standard_normal((100, 7)).astype(np.float32))
            for i in range(4)
        ]
        q = rng.standard_normal(7)
        stack = distance_stack(q, refs)
        for u, ref in enumerate(refs):
            np.testing.assert_array_equal(stack.values[u], distance_vector(q, ref))

    def test_rows_do_not_depend_on_batching(self, rng):
        # 37 places is not a multiple of a BLAS row block; two sets hold an
        # exact match of the query at different rows.  The offset makes the
        # expanded form cancel, so the exact matches go through the re-check.
        descs = [100.0 + rng.standard_normal((37, 9)) for _ in range(3)]
        q = 100.0 + rng.standard_normal(9)
        descs[1][5] = q
        descs[2][30] = q
        refs = [ReferenceSet(f"r{u}", d) for u, d in enumerate(descs)]
        stack = distance_stack(q, refs)
        for u, ref in enumerate(refs):
            np.testing.assert_array_equal(
                stack.values[u], distance_stack(q, [ref]).values[0]
            )
        assert stack.values[1, 5] == stack.values[2, 30] == 0.0

    def test_only_the_matching_set_is_rechecked(self, rng):
        # Only the last set holds the query, so the re-check runs on that
        # set alone and gives its exact zero; the other rows stay as alone.
        # At 64-d the expanded form leaves a positive residue there.
        descs = [100.0 + rng.standard_normal((37, 64)) for _ in range(3)]
        q = descs[2][11].copy()
        refs = [ReferenceSet(f"r{u}", d) for u, d in enumerate(descs)]
        stack = distance_stack(q, refs)
        assert stack.values[2, 11] == 0.0
        assert (np.delete(stack.values, 11 + 2 * 37) > 0.0).all()
        for u, ref in enumerate(refs):
            np.testing.assert_array_equal(stack.values[u], distance_stack(q, [ref]).values[0])

    def test_dimension_mismatch_in_a_later_set_rejected(self, rng):
        refs = [
            ReferenceSet("a", rng.standard_normal((4, 3))),
            ReferenceSet("b", rng.standard_normal((4, 5))),
        ]
        with pytest.raises(
            ValidationError, match=r"reference set 'b' has shape \(4, 5\), expected \(4, 3\)"
        ):
            distance_stack(np.zeros(3), refs)

    def test_inconsistent_sets_rejected(self, rng):
        refs = [
            ReferenceSet("a", rng.standard_normal((4, 3)).astype(np.float32)),
            ReferenceSet("b", rng.standard_normal((5, 3)).astype(np.float32)),
        ]
        with pytest.raises(ValidationError):
            distance_stack(np.zeros(3), refs)

    @pytest.mark.parametrize("kind", ["arrays", "mixed", "array3d", "dict", "string"])
    def test_refs_must_be_a_list_or_tuple_of_reference_sets(self, rng, kind):
        ref = ReferenceSet("a", rng.standard_normal((4, 3)))
        refs = {
            "arrays": [ref.descriptors, ref.descriptors],
            "mixed": (ref, ref.descriptors),
            "array3d": np.stack([ref.descriptors, ref.descriptors]),
            "dict": {0: ref},
            "string": "ab",
        }[kind]
        with pytest.raises(ValidationError, match="reference set"):
            distance_stack(np.zeros(3), refs)

    def test_overflowing_squares_rejected(self):
        # Finite inputs whose squared distances overflow float64.
        ref = ReferenceSet("a", np.full((3, 4), 1e200))
        with pytest.raises(ValidationError, match="distance stack contains non-finite"):
            distance_stack(np.full(4, -1e200), [ref])

    def test_overflow_rejected_when_numpy_raises(self):
        # The kernel's own check decides, whatever numpy's error settings.
        ref = ReferenceSet("a", [[1e200, 0.0], [0.0, 1.0]])
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="distance stack contains non-finite"):
                distance_stack(np.array([-1e200, 0.0]), [ref])

    def test_stack_validation(self):
        with pytest.raises(ValidationError):
            DistanceStack(np.array([[1.0, -0.5]]))
        with pytest.raises(ValidationError):
            DistanceStack(np.array([[1.0, np.inf]]))


# The BLAS thread variables perfbench pins.  At a default of 2 threads on a
# 2-core host, each of these GEMVs carried a flat cost of several ms at every
# size, which hides the per-place cost this test measures.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def per_place_costs() -> dict:
    """Best-of-15 seconds per place of ``distance_vector`` at 500 to 4000 places."""
    rng = np.random.default_rng(1234)
    dim = 1024  # large enough that per-call overhead amortizes
    q = rng.standard_normal(dim)
    sizes = (500, 1000, 2000, 4000)
    refs = {
        n: ReferenceSet(f"n{n}", rng.standard_normal((n, dim)).astype(np.float32))
        for n in sizes
    }
    for ref in refs.values():  # warm up BLAS and CPU caches before timing
        distance_vector(q, ref)
    times = {n: [] for n in sizes}
    for _ in range(15):  # sizes interleaved, so drift in host speed hits all
        for n, ref in refs.items():
            times[n].append(_timed(lambda: distance_vector(q, ref)))
    return {n: min(times[n]) / n for n in sizes}


class TestLinearScaling:
    def test_cost_linear_in_places(self):
        # Per-place cost should be flat within 2x across a 8x size range.  The
        # timing runs in a child process with one BLAS thread, since the thread
        # count can only be set before numpy loads.
        paths = (Path(vprfuse.__file__).parents[1], Path(__file__).parent, os.environ.get("PYTHONPATH"))
        env = {
            **os.environ,
            **dict.fromkeys(BLAS_ENV, "1"),
            "PYTHONPATH": os.pathsep.join(str(p) for p in paths if p),
        }
        child = subprocess.run(
            [sys.executable, "-c", "import test_distance; print(test_distance.per_place_costs())"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        per_place = ast.literal_eval(child.stdout)
        ratio = max(per_place.values()) / min(per_place.values())
        assert ratio < 2.0, f"per-place cost ratio {ratio:.2f}, per_place={per_place}"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
