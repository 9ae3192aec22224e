"""Reference-set selection: the relative-minimum criterion and its properties."""

import numpy as np
import pytest

from vprfuse import DistanceStack, select_all, select_references, select_single
from vprfuse.errors import ValidationError


def stack_with_minima(minima, n_places=5):
    """A stack whose per-set minima are exactly the given values."""
    rows = []
    for m in minima:
        row = np.full(n_places, float(m) + 1.0)
        row[2] = float(m)
        rows.append(row)
    return DistanceStack(np.array(rows))


def random_stack(rng, n_refs=None, n_places=None):
    m = n_refs or int(rng.integers(1, 6))
    n = n_places or int(rng.integers(2, 40))
    return DistanceStack(rng.uniform(0.1, 5.0, size=(m, n)))


class TestBestReference:
    def test_picks_set_with_overall_minimum(self):
        assert select_all(stack_with_minima([0.9, 0.4, 0.7])).best == 1

    def test_single_set(self):
        assert select_all(stack_with_minima([0.3])).best == 0

    def test_tie_breaks_to_lowest_index(self):
        assert select_all(stack_with_minima([0.5, 0.5])).best == 0


class TestSelectReferences:
    def test_relative_excess_threshold(self):
        # excesses 0, 0.03, 0.20 against gamma 0.04
        sel = select_references(stack_with_minima([1.00, 1.03, 1.20]), gamma=0.04)
        assert sel.selected == (0, 1)
        assert sel.best == 0
        assert not sel.zero_limit

    def test_excess_equal_to_gamma_is_selected(self):
        # (3 - 2) / 2 == 0.5 exactly: the rule keeps a set at the boundary
        sel = select_references(stack_with_minima([2.0, 3.0]), gamma=0.5)
        assert sel.selected == (0, 1)

    def test_single_set_always_selected(self):
        sel = select_references(stack_with_minima([2.5]), gamma=0.04)
        assert sel.selected == (0,)

    def test_huge_gamma_selects_all(self):
        sel = select_references(stack_with_minima([2.0, 4.0, 6.0]), gamma=1e6)
        assert sel.selected == (0, 1, 2)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValidationError):
            select_references(stack_with_minima([1.0]), gamma=0.0)

    def test_zero_minimum_limit_interpretation(self):
        stack = DistanceStack(np.array([[0.0, 1.0], [0.0, 2.0], [0.5, 0.7]]))
        sel = select_references(stack, gamma=0.04)
        assert sel.zero_limit
        assert sel.selected == (0, 1)
        assert sel.best == 0

    def test_minima_recorded(self, rng):
        stack = random_stack(rng, n_refs=4)
        sel = select_references(stack)
        np.testing.assert_array_equal(sel.minima, stack.values.min(axis=1))


class TestSelectionProperties:
    def test_scale_invariance(self, rng):
        for _ in range(50):
            stack = random_stack(rng)
            base = select_references(stack, gamma=0.04)
            for c in (1e-3, 1.0, 1e3):
                scaled = select_references(DistanceStack(c * stack.values), gamma=0.04)
                assert scaled.selected == base.selected
                assert scaled.best == base.best

    def test_monotone_in_gamma(self, rng):
        gammas = [0.001, 0.01, 0.04, 0.1, 0.5, 2.0, 1e6]
        for _ in range(50):
            stack = random_stack(rng)
            previous: set[int] = set()
            for g in gammas:
                current = set(select_references(stack, gamma=g).selected)
                assert previous <= current
                previous = current

    def test_large_gamma_recovers_everything(self, rng):
        for _ in range(20):
            stack = random_stack(rng)
            assert select_references(stack, gamma=1e6).selected == tuple(
                range(stack.n_refs)
            )

    def test_tiny_gamma_recovers_best_only(self, rng):
        for _ in range(20):
            stack = random_stack(rng)
            minima = stack.values.min(axis=1)
            if len(np.unique(minima)) != len(minima):
                continue
            sel = select_references(stack, gamma=1e-15)
            assert sel.selected == (sel.best,)

    def test_best_always_selected_and_nonempty(self, rng):
        for _ in range(100):
            sel = select_references(random_stack(rng), gamma=float(rng.uniform(1e-3, 1.0)))
            assert sel.best in sel.selected
            assert len(sel.selected) >= 1


class TestForcedSelections:
    def test_select_all(self, rng):
        stack = random_stack(rng, n_refs=4)
        sel = select_all(stack)
        assert sel.selected == (0, 1, 2, 3)
        assert sel.best == int(np.argmin(stack.minima()))

    def test_select_single(self, rng):
        stack = random_stack(rng, n_refs=3)
        sel = select_single(stack, 2)
        assert sel.selected == (2,)
        assert sel.best == 2
        with pytest.raises(ValidationError):
            select_single(stack, 3)

    @pytest.mark.parametrize(
        "index", [1.5, 1.0, True, np.True_, "1", None],
        ids=["fraction", "float", "bool", "numpy-bool", "string", "none"],
    )
    def test_select_single_refuses_a_non_integer_index(self, rng, index):
        with pytest.raises(ValidationError, match="reference index must be an integer"):
            select_single(random_stack(rng, n_refs=3), index)

    def test_select_single_takes_a_numpy_integer(self, rng):
        sel = select_single(random_stack(rng, n_refs=3), np.int64(2))
        assert sel.best == 2 and type(sel.best) is int
        assert sel.selected == (2,)


class TestMask:
    """``mask`` holds one bool per set of the stack, True exactly where selected."""

    def test_gamma(self):
        sel = select_references(stack_with_minima([1.00, 1.03, 1.20]), gamma=0.04)
        assert sel.mask.dtype == bool
        np.testing.assert_array_equal(sel.mask, [True, True, False])

    def test_zero_limit(self):
        stack = DistanceStack(np.array([[0.0, 1.0], [0.5, 0.7], [0.0, 2.0]]))
        sel = select_references(stack)
        assert sel.zero_limit
        np.testing.assert_array_equal(sel.mask, [True, False, True])

    def test_all(self, rng):
        np.testing.assert_array_equal(select_all(random_stack(rng, n_refs=4)).mask, [True] * 4)

    def test_single(self, rng):
        np.testing.assert_array_equal(
            select_single(random_stack(rng, n_refs=3), 1).mask, [False, True, False]
        )

    def test_every_rule_on_random_stacks(self, rng):
        for _ in range(30):
            stack = random_stack(rng)
            for sel in (
                select_references(stack, gamma=float(rng.uniform(0.01, 0.5))),
                select_all(stack),
                select_single(stack, int(rng.integers(stack.n_refs))),
            ):
                assert sel.mask.shape == (stack.n_refs,)
                assert tuple(np.flatnonzero(sel.mask).tolist()) == sel.selected
