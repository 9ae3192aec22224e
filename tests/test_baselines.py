"""Minimum-distance baseline methods, scored through the method registry.

A distance method's decision is the argmax of its score row and its
confidence is the row maximum (the negated minimum mean distance).
"""

import numpy as np
import pytest

from vprfuse import DEFAULT_GAMMA, DistanceStack, resolve_method, select_references

LABELS = ["a", "b", "c"]


def decision(name, stack, gamma=DEFAULT_GAMMA):
    """(place, confidence) of a method on one distance stack."""
    row = resolve_method(name, LABELS).score_row(stack, gamma)
    return int(np.argmax(row)), row.max()


def min_value(d):
    return decision("min-value:0", DistanceStack(np.asarray(d, dtype=np.float64)[None, :]))


def ensemble(stack):
    return decision("baseline-fusion", stack)


class TestMinValueMatch:
    def test_basic(self):
        place, confidence = min_value([0.5, 0.2, 0.9])
        assert place == 1
        assert confidence == -0.2

    def test_single_place(self):
        assert min_value([0.3])[0] == 0

    def test_tie_breaks_low(self):
        place, _ = min_value([0.9, 0.1, 0.5, 0.7, 0.1])
        assert place == 1

    def test_invariant_under_monotone_transform(self, rng):
        d = rng.uniform(0.1, 3.0, size=50)
        base = min_value(d)[0]
        for transform in (np.sqrt, np.exp, lambda x: 10 * x + 2):
            assert min_value(transform(d))[0] == base


class TestMinEnsembleMatch:
    def test_sum_arbitrates_disagreeing_sets(self):
        stack = DistanceStack(np.array([[0.5, 0.2], [0.1, 0.6]]))
        # per-set minima disagree (place 1 vs place 0); sums [0.6, 0.8] decide
        place, confidence = ensemble(stack)
        assert place == 0
        assert confidence == pytest.approx(-0.3)  # negative mean of the sum

    def test_single_set_reduces_to_min_value(self, rng):
        row = rng.uniform(0.1, 2.0, size=20)
        stack = DistanceStack(row[None, :])
        assert ensemble(stack)[0] == min_value(row)[0]
        assert ensemble(stack)[1] == pytest.approx(min_value(row)[1])

    def test_identical_sets_agree_with_any_single(self, rng):
        row = rng.uniform(0.1, 2.0, size=15)
        stack = DistanceStack(np.stack([row] * 4))
        assert ensemble(stack)[0] == min_value(row)[0]

    def test_scale_invariant_argmin(self, rng):
        stack = DistanceStack(rng.uniform(0.1, 2.0, size=(3, 25)))
        base = ensemble(stack)[0]
        for c in (1e-3, 1e3):
            assert ensemble(DistanceStack(c * stack.values))[0] == base


class TestBaselineSelectiveMatch:
    def test_full_selection_equals_ensemble(self, rng):
        stack = DistanceStack(rng.uniform(0.1, 2.0, size=(3, 20)))
        assert select_references(stack, gamma=1e6).selected == (0, 1, 2)
        got = decision("baseline-selective", stack, gamma=1e6)
        assert got == ensemble(stack)

    def test_singleton_selection_equals_min_value(self, rng):
        stack = DistanceStack(rng.uniform(0.1, 2.0, size=(3, 20)))
        sel = select_references(stack, gamma=1e-12)
        if len(sel.selected) == 1:
            u = sel.selected[0]
            got = decision("baseline-selective", stack, gamma=1e-12)
            assert got == min_value(stack.values[u])

    def test_outlier_set_excluded(self):
        rows = np.array(
            [
                [1.00, 1.5, 1.9],
                [1.03, 1.6, 1.8],
                [5.00, 5.5, 5.9],
            ]
        )
        stack = DistanceStack(rows)
        sel = select_references(stack, gamma=0.04)
        assert sel.selected == (0, 1)
        got = decision("baseline-selective", stack, gamma=0.04)
        assert got == ensemble(DistanceStack(rows[:2]))


class TestConfidenceOrdering:
    def test_confidence_orders_like_objective(self, rng):
        # Sorting decisions by confidence must reproduce sorting queries by
        # their defining objective (min distance / min mean distance).
        distances = [rng.uniform(0.1, 2.0, size=30) for _ in range(25)]
        by_conf = sorted(range(25), key=lambda i: -min_value(distances[i])[1])
        by_obj = sorted(range(25), key=lambda i: distances[i].min())
        assert by_conf == by_obj

        stacks = [DistanceStack(rng.uniform(0.1, 2.0, size=(3, 30))) for _ in range(25)]
        by_conf = sorted(range(25), key=lambda i: -ensemble(stacks[i])[1])
        by_obj = sorted(range(25), key=lambda i: stacks[i].values.mean(axis=0).min())
        assert by_conf == by_obj
