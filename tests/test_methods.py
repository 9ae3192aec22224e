"""The method registry and cross-method consistency."""

import numpy as np
import pytest

from vprfuse import (
    DistanceStack,
    SelectionResult,
    expand_methods,
    posterior,
    resolve_method,
    select_references,
    select_single,
    uniform_prior,
)
from vprfuse.errors import ValidationError
from vprfuse.methods import BELIEF, DISTANCE

LABELS = ["winter", "summer", "night"]


def random_stack(rng, n_refs=3, n_places=20):
    return DistanceStack(rng.uniform(0.3, 2.0, size=(n_refs, n_places)))


class TestRegistry:
    def test_fusion_method_names(self):
        for name, kind in [
            ("bayes-selective", BELIEF),
            ("bayes-full", BELIEF),
            ("baseline-fusion", DISTANCE),
            ("baseline-selective", DISTANCE),
        ]:
            m = resolve_method(name, LABELS)
            assert m.name == name and m.kind == kind

    def test_single_reference_by_index_and_label(self):
        by_index = resolve_method("min-value:2", LABELS)
        by_label = resolve_method("min-value:night", LABELS)
        assert by_index.name == by_label.name == "min-value:night"
        assert by_index == by_label

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            resolve_method("nope", LABELS)
        with pytest.raises(ValidationError):
            resolve_method("min-value:7", LABELS)
        with pytest.raises(ValidationError):
            resolve_method("min-value:dusk", LABELS)

    @pytest.mark.parametrize("name", [None, 3, ["bayes-full"]], ids=["none", "int", "list"])
    def test_non_string_name_is_an_unknown_method(self, name):
        for resolve in (resolve_method, expand_methods):
            with pytest.raises(ValidationError, match="unknown method"):
                resolve(name, LABELS)

    def test_duplicate_labels_fall_back_to_index_names(self):
        m = resolve_method("bayes-single:1", ["x", "x"])
        assert m.name == "bayes-single:1"
        with pytest.raises(ValidationError):
            resolve_method("bayes-single:x", ["x", "x"])

    @pytest.mark.parametrize(
        "labels", [["1", "x", "x"], ["2", "1", "0"], ["cond0", "cond1", "cond2"]]
    )
    def test_expanded_names_are_unique_and_resolve_back(self, labels):
        methods = expand_methods("all", labels)
        assert len({m.name for m in methods}) == len(methods)
        for m in methods:
            assert resolve_method(m.name, labels) == m

    def test_expand_all(self):
        methods = expand_methods("all", LABELS)
        names = [m.name for m in methods]
        assert names[:4] == [
            "bayes-selective",
            "bayes-full",
            "baseline-fusion",
            "baseline-selective",
        ]
        assert "bayes-single:winter" in names and "min-value:night" in names
        assert len(names) == 4 + 2 * len(LABELS)

    def test_expand_single(self):
        methods = expand_methods("bayes-full", LABELS)
        assert [m.name for m in methods] == ["bayes-full"]


class TestRowConsistency:
    def test_bayes_selective_row_is_the_posterior(self, rng):
        stack = random_stack(rng)
        m = resolve_method("bayes-selective", LABELS)
        row = m.score_row(stack, gamma=0.1)
        sel = select_references(stack, gamma=0.1)
        want = posterior(stack, sel, uniform_prior(stack.n_places)).normalized
        np.testing.assert_array_equal(row, want)

    def test_min_value_row_is_negated_distances(self, rng):
        stack = random_stack(rng)
        m = resolve_method("min-value:1", LABELS)
        row = m.score_row(stack)
        np.testing.assert_array_equal(row, -stack.values[1])
        assert int(np.argmax(row)) == int(np.argmin(stack.values[1]))
        assert row.max() == -stack.values[1].min()

    def test_baseline_fusion_row_matches_decision(self, rng):
        stack = random_stack(rng)
        row = resolve_method("baseline-fusion", LABELS).score_row(stack)
        means = stack.values.mean(axis=0)
        assert int(np.argmax(row)) == int(np.argmin(means))
        assert row.max() == pytest.approx(-means.min())

    def test_baseline_selective_row_matches_decision(self, rng):
        stack = random_stack(rng)
        row = resolve_method("baseline-selective", LABELS).score_row(stack, gamma=0.04)
        sel = select_references(stack, gamma=0.04)
        means = stack.values[list(sel.selected)].mean(axis=0)
        assert int(np.argmax(row)) == int(np.argmin(means))
        assert row.max() == pytest.approx(-means.min())

    def test_single_reference_all_methods_agree_on_ranking(self, rng):
        # With one reference set every method ranks places from the same
        # distance vector; min-value and the ensemble agree exactly.
        stack = random_stack(rng, n_refs=1)
        mv = resolve_method("min-value:0", ["only"]).score_row(stack)
        ens = resolve_method("baseline-fusion", ["only"]).score_row(stack)
        np.testing.assert_array_equal(mv, ens)
        bayes = resolve_method("bayes-single:0", ["only"]).score_row(stack)
        sel = select_single(stack, 0)
        want = posterior(stack, sel, uniform_prior(stack.n_places)).normalized
        np.testing.assert_array_equal(bayes, want)

    def test_degenerate_stack_falls_back_to_prior(self):
        stack = DistanceStack(np.ones((2, 6)))
        row = resolve_method("bayes-full", ["a", "b"]).score_row(stack)
        np.testing.assert_array_equal(row, uniform_prior(6))

    def test_selection_from_another_stack_rejected(self, rng):
        stack, other = random_stack(rng), random_stack(rng, n_refs=2)
        for name in ("bayes-full", "baseline-fusion"):
            with pytest.raises(ValidationError, match="one selection over 3 sets"):
                resolve_method(name, LABELS).fuse(stack, select_single(other, 1))

    @pytest.mark.parametrize(
        "selected",
        [
            np.ones((2, 3), dtype=bool),  # two queries' masks for one query
            np.ones((1, 2), dtype=bool),  # a mask over another stack's sets
            np.ones(3, dtype=bool),  # one query's mask without its query axis
            np.ones((1, 3), dtype=np.int64),  # indices, not a mask
        ],
    )
    def test_fuse_rows_rejects_a_mask_that_is_not_queries_by_sets(self, rng, selected):
        values = random_stack(rng).values[None]
        for name in ("bayes-full", "baseline-fusion"):
            with pytest.raises(
                ValidationError, match="need one selection over 3 sets per query, for 1 queries"
            ):
                resolve_method(name, LABELS).fuse_rows(values, selected)

    @pytest.mark.parametrize(
        "selected",
        [[[True, "no", True]], [[True, False], [True]], [[1j, 0j, 1j]]],
        ids=["string", "ragged", "complex"],
    )
    def test_fuse_rows_rejects_a_mask_that_is_not_real(self, rng, selected):
        values = random_stack(rng).values[None]
        for name in ("bayes-full", "baseline-fusion"):
            with pytest.raises(ValidationError, match="selection (must hold real|is not a rect)"):
                resolve_method(name, LABELS).fuse_rows(values, selected)

    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_rows_checks_the_stacks(self, rng, name):
        method = resolve_method(name, LABELS)
        values = np.stack([random_stack(rng).values for _ in range(2)])
        selected = np.ones((2, 3), dtype=bool)
        rows, _ = method.fuse_rows(values.tolist(), selected)  # a nested list of stacks
        assert rows.tobytes() == method.fuse_rows(values, selected)[0].tobytes()
        with pytest.raises(ValidationError, match="distance stacks must be a 3-D array"):
            method.fuse_rows(rng.uniform(0.3, 2.0, size=(2, 5)), np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError, match="distance stacks is not a rectangular"):
            method.fuse_rows([[[1.0, 2.0], [1.0]]], np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_takes_a_list_mask(self, rng, name):
        stack = random_stack(rng)
        mask = np.array([True, False, True])
        method = resolve_method(name, LABELS)
        want = method.fuse(stack, SelectionResult(0, mask, stack.minima()))
        got = method.fuse(stack, SelectionResult(0, mask.tolist(), stack.minima()))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_rows_rejects_a_query_that_selects_no_set(self, rng, name):
        values = np.stack([random_stack(rng).values for _ in range(2)])
        selected = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValidationError, match="every query must select at least one set"):
            resolve_method(name, LABELS).fuse_rows(values, selected)

    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_rows_returns_the_rows_and_the_sets_used(self, rng, name):
        values = np.stack([random_stack(rng).values for _ in range(3)])
        values[1, 2] = 0.75  # query 1: selected set 2 is constant
        selected = np.array([[True, False, True], [True, True, True], [False, True, False]])
        method = resolve_method(name, LABELS)
        rows, used = method.fuse_rows(values, selected)
        want = selected.copy()
        if method.kind == BELIEF:
            want[1, 2] = False  # a belief method drops the degenerate set
        np.testing.assert_array_equal(used, want)
        assert rows.shape == (3, 20)
        for q in range(3):
            stack = DistanceStack(values[q])
            sel = SelectionResult(best=0, mask=selected[q], minima=stack.minima())
            np.testing.assert_array_equal(rows[q], method.fuse(stack, sel))

    @pytest.mark.parametrize(
        "stack",
        [
            [[1.0, np.nan, 2.0], [1.0, 2.0, 3.0]],
            [[1.0, np.inf, 2.0], [1.0, 2.0, 3.0]],
            [[1.0, 1e308, 2.0], [1.0, 1e308, 3.0]],  # finite, but their sum overflows
        ],
    )
    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_rows_rejects_non_finite_selected_distances(self, name, stack):
        values = np.array([stack])
        with pytest.raises(ValidationError, match="finite|overflows"):
            resolve_method(name, ["a", "b"]).fuse_rows(values, np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("name", ["bayes-full", "baseline-fusion"])  # one per kind
    def test_fuse_rows_does_not_read_unselected_sets(self, name):
        values = np.array([[[1.0, np.nan, 2.0], [1.0, 2.0, 3.0]]])
        rows, used = resolve_method(name, ["a", "b"]).fuse_rows(
            values, np.array([[False, True]])
        )
        assert np.isfinite(rows).all()
        np.testing.assert_array_equal(used, [[False, True]])
