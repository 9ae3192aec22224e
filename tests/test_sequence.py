"""Sliding-window score aggregation."""

import numpy as np
import pytest

from vprfuse import ScoreMatrix, sequence_aggregate
from vprfuse.errors import ValidationError

from oracles import window_mean_oracle


class TestSequenceAggregate:
    def test_length_one_is_identity(self, rng):
        m = ScoreMatrix(rng.standard_normal((6, 4)), method="x")
        out = sequence_aggregate(m, 1)
        np.testing.assert_array_equal(out.scores, m.scores)
        assert out.method == "x"

    def test_constant_matrix_stays_constant(self):
        m = ScoreMatrix(np.full((5, 3), 2.5))
        out = sequence_aggregate(m, 3)
        np.testing.assert_allclose(out.scores, 2.5, rtol=0, atol=1e-15)

    def test_hand_window(self, rng):
        rows = rng.standard_normal((3, 3))
        out = sequence_aggregate(ScoreMatrix(rows), length=2, velocity=1.0).scores
        # trailing window: out[2, i] = (rows[2, i] + rows[1, i-1]) / 2,
        # degrading to rows[2, 0] alone at the left edge
        assert out[2, 0] == rows[2, 0]
        assert out[2, 1] == pytest.approx((rows[2, 1] + rows[1, 0]) / 2)
        assert out[2, 2] == pytest.approx((rows[2, 2] + rows[1, 1]) / 2)
        # first row has no history at all
        np.testing.assert_array_equal(out[0], rows[0])

    def test_velocity_shifts_places(self, rng):
        rows = rng.standard_normal((4, 6))
        out = sequence_aggregate(ScoreMatrix(rows), length=2, velocity=2.0).scores
        assert out[3, 5] == pytest.approx((rows[3, 5] + rows[2, 3]) / 2)
        assert out[3, 1] == rows[3, 1]  # shifted term out of range

    def test_length_exceeding_queries_rejected(self):
        m = ScoreMatrix(np.ones((3, 2)))
        with pytest.raises(ValidationError):
            sequence_aggregate(m, 4)
        with pytest.raises(ValidationError):
            sequence_aggregate(m, 0)
        for velocity in (0.0, np.inf, np.nan):
            with pytest.raises(ValidationError):
                sequence_aggregate(m, 2, velocity=velocity)

    def test_velocity_overflowing_the_shift_keeps_in_range_terms(self, rng):
        m = ScoreMatrix(rng.standard_normal((4, 5)))
        # shift(1) rounds to 1e308 and shift(2) overflows to inf: both are
        # out of range, so only the k = 0 term remains
        out = sequence_aggregate(m, 3, velocity=1e308)
        np.testing.assert_array_equal(out.scores, m.scores)

    def test_commutes_with_constant_shift(self, rng):
        rows = rng.standard_normal((8, 5))
        base = sequence_aggregate(ScoreMatrix(rows), 3).scores
        shifted = sequence_aggregate(ScoreMatrix(rows + 11.0), 3).scores
        np.testing.assert_allclose(shifted, base + 11.0, rtol=0, atol=1e-12)
        assert np.array_equal(np.argmax(shifted, axis=1), np.argmax(base, axis=1))


    # On 6 places, velocity 1 at length 9 and 2.5 at length 5 run out of
    # places (shift >= 6) before k reaches the window length; 1e308 does so
    # at k = 1, and its shift overflows to inf at k = 2.
    @pytest.mark.parametrize("velocity", [0.3, 1.0, 2.5, 1e308])
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 9])
    def test_matches_the_per_cell_oracle_bitwise(self, rng, velocity, length):
        rows = rng.standard_normal((9, 6))
        rows[rng.random(rows.shape) < 0.3] = -0.0
        got = sequence_aggregate(ScoreMatrix(rows), length, velocity).scores
        want = window_mean_oracle(rows, length, velocity)
        # Sign bits included: a sum of -0.0 terms starts from +0.0.
        assert got.tobytes() == want.tobytes()
