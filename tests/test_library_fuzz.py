"""The library's input boundary: every integer argument follows one rule, every
real-number argument another, and any value in a fuzzed argument gives a result
or a VPRFuseError."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vprfuse import (
    Dataset,
    GroundTruth,
    Method,
    ValidationError,
    VPRFuseError,
    bench_query,
    decide,
    distance_stack,
    evaluate_method,
    expand_methods,
    generate_synthetic,
    match_correct,
    posterior,
    pr_curve,
    resolve_method,
    score_matrix,
    select_all,
    select_references,
    select_single,
    sequence_aggregate,
    uniform_prior,
)
from vprfuse.methods import BELIEF, DISTANCE


@pytest.fixture(scope="module")
def ds():
    """12 places x 4-d x 2 sets: one scoring call takes milliseconds."""
    return generate_synthetic(seed=3, n_places=12, n_conditions=2, dim=4)


# name: (call on the dataset and one integer argument, a valid value, the
# largest int the fuzzer draws; bench's loops are capped at 3).
INTEGER_ENTRIES = {
    "uniform_prior": (lambda ds, n: uniform_prior(n), 5, 40),
    "GroundTruth-tolerance": (lambda ds, n: GroundTruth(np.arange(4), n), 2, 40),
    "synthetic-seed": (lambda ds, n: generate_synthetic(seed=n, n_places=6, dim=3), 4, 40),
    "synthetic-places": (lambda ds, n: generate_synthetic(n_places=n, dim=3), 6, 40),
    "synthetic-conditions": (
        lambda ds, n: generate_synthetic(n_places=6, n_conditions=n, dim=3), 2, 40
    ),
    "synthetic-dim": (lambda ds, n: generate_synthetic(n_places=6, dim=n), 3, 40),
    "synthetic-gt_tolerance": (
        lambda ds, n: generate_synthetic(n_places=6, dim=3, gt_tolerance=n), 1, 40
    ),
    "sequence_aggregate": (
        lambda ds, n: sequence_aggregate(score_matrix(ds, "min-value:0"), n), 3, 40
    ),
    "score_matrix-seq_len": (
        lambda ds, n: score_matrix(ds, "bayes-selective", seq_len=n), 3, 40
    ),
    "evaluate_method-seq_len": (
        lambda ds, n: evaluate_method(ds, "bayes-selective", seq_len=n), 3, 40
    ),
    "bench_query-repetitions": (
        lambda ds, n: bench_query(ds, "min-value:0", repetitions=n, n_queries=2), 2, 3
    ),
    "bench_query-n_queries": (
        lambda ds, n: bench_query(ds, "min-value:0", repetitions=1, n_queries=n), 2, 3
    ),
    "match_correct-decided_place": (lambda ds, n: match_correct(n, 1, 2), 3, 40),
    "match_correct-true_place": (lambda ds, n: match_correct(3, n, 2), 1, 40),
    "match_correct-tolerance": (lambda ds, n: match_correct(3, 1, n), 2, 40),
}
# select_single's own tests cover its index; the fuzzer covers it here.
FUZZED_ENTRIES = {
    **INTEGER_ENTRIES,
    "select_single": (
        lambda ds, n: select_single(distance_stack(ds.queries[0], ds.refs), n), 1, 40
    ),
}


def assert_same(a, b):
    """Same types and compared fields; arrays bit for bit."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            if f.compare:  # TimingReport's phases are wall-clock times
                assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert a == b


@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_integer_rule(ds, entry):
    """A float, a string or a bool is refused; a numpy integer is its int."""
    call, good, _ = INTEGER_ENTRIES[entry]
    for bad in (good + 0.5, float(good), str(good), True):
        with pytest.raises(ValidationError, match="must be an integer"):
            call(ds, bad)
    assert_same(call(ds, np.int64(good)), call(ds, good))


def stack(ds):
    return distance_stack(ds.queries[0], ds.refs)


def belief(ds):
    distances = stack(ds)
    return posterior(distances, select_all(distances), uniform_prior(ds.n_places))


# name: (call on the dataset and one real-number argument, a valid value).
REAL_ENTRIES = {
    "select_references-gamma": (lambda ds, x: select_references(stack(ds), x), 0.3),
    "Method.select-gamma": (
        lambda ds, x: resolve_method("bayes-full", ds.labels).select(stack(ds), x), 0.3
    ),
    "evaluate_method-gamma": (lambda ds, x: evaluate_method(ds, "bayes-selective", x), 0.3),
    "score_matrix-gamma": (lambda ds, x: score_matrix(ds, "baseline-selective", x), 0.3),
    "bench_query-gamma": (
        lambda ds, x: bench_query(ds, "bayes-selective", 1, 2, gamma=x), 0.3
    ),
    "sequence_aggregate-velocity": (
        lambda ds, x: sequence_aggregate(score_matrix(ds, "min-value:0"), 3, x), 1.5
    ),
    "evaluate_method-seq_velocity": (
        lambda ds, x: evaluate_method(ds, "bayes-selective", seq_len=3, seq_velocity=x), 1.5
    ),
    "decide-h": (lambda ds, x: decide(belief(ds), x), 0.05),
    "synthetic-place_spread": (
        lambda ds, x: generate_synthetic(n_places=6, dim=3, place_spread=x), 1.5
    ),
    "synthetic-condition_scale": (
        lambda ds, x: generate_synthetic(n_places=6, dim=3, condition_scale=x), 0.7
    ),
    "synthetic-query_noise": (
        lambda ds, x: generate_synthetic(n_places=6, dim=3, query_noise=x), 0.3
    ),
}


@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_real_rule(ds, entry):
    """A string, None, a bool or a complex number is refused; a numpy float is its float."""
    call, good = REAL_ENTRIES[entry]
    for bad in (str(good), None, True, complex(good)):
        with pytest.raises(ValidationError, match="must be a real number"):
            call(ds, bad)
    assert_same(call(ds, np.float64(good)), call(ds, good))


def argument(top=40):
    """Any value the fuzzer passes as an argument; ints run from -3 to ``top``."""
    ints = st.integers(min_value=-3, max_value=top)
    return st.one_of(
        ints,
        ints.map(np.int64),
        ints.map(float),
        st.floats(),
        st.booleans(),
        st.text(max_size=4),
        st.none(),
        st.lists(ints, max_size=4),
        st.lists(st.lists(ints, max_size=3), max_size=3),  # often ragged
    )


NAMES = st.one_of(
    argument(),
    st.sampled_from(["bayes-selective", "bayes-full", "min-value:1", "bayes-single:cond0",
                     "all", "min-value:", "min-value:7"]),
)
FUZZ = settings(max_examples=200, deadline=None)


def returns_or_refuses(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except VPRFuseError:
        pass


@settings(FUZZ, max_examples=50 * len(FUZZED_ENTRIES))
@given(entry=st.sampled_from(sorted(FUZZED_ENTRIES)), data=st.data())
def test_integer_argument_gives_a_result_or_a_vprfuse_error(ds, entry, data):
    call, _, top = FUZZED_ENTRIES[entry]
    returns_or_refuses(call, ds, data.draw(argument(top), label="value"))


@FUZZ
@given(confidences=argument(), decided=argument(), correct=argument())
def test_pr_curve_gives_a_result_or_a_vprfuse_error(confidences, decided, correct):
    returns_or_refuses(pr_curve, confidences, decided, correct)


@FUZZ
@given(data=st.data())
def test_distance_stack_gives_a_result_or_a_vprfuse_error(ds, data):
    parts = st.sampled_from([*ds.refs, ds.refs[0].descriptors, None])
    refs = data.draw(
        st.one_of(argument(), st.lists(parts, max_size=3), st.lists(parts, max_size=3).map(tuple)),
        label="refs",
    )
    returns_or_refuses(distance_stack, ds.queries[0], refs)


@settings(FUZZ, max_examples=20 * len(REAL_ENTRIES))
@given(entry=st.sampled_from(sorted(REAL_ENTRIES)), data=st.data())
def test_real_argument_gives_a_result_or_a_vprfuse_error(ds, entry, data):
    call, _ = REAL_ENTRIES[entry]
    returns_or_refuses(call, ds, data.draw(argument(), label="value"))


@FUZZ
@given(data=st.data())
def test_dataset_parts_give_a_result_or_a_vprfuse_error(ds, data):
    parts = st.sampled_from([*ds.refs, ds.refs[0].descriptors, None])
    refs = data.draw(
        st.one_of(argument(), st.lists(parts, max_size=3), st.lists(parts, max_size=3).map(tuple)),
        label="refs",
    )
    queries = data.draw(
        st.one_of(argument(), st.sampled_from([ds.queries, ds.queries[:3], ds.queries[:, :2]])),
        label="queries",
    )
    truth = data.draw(
        st.one_of(argument(), st.sampled_from([ds.ground_truth, GroundTruth(np.arange(3), 0)])),
        label="ground_truth",
    )
    returns_or_refuses(Dataset, refs, queries, truth)


@FUZZ
@given(kind=st.one_of(argument(), st.sampled_from([BELIEF, DISTANCE, "beleif", "Belief"])))
def test_method_kind_is_belief_or_distance(ds, kind):
    """Any other kind is refused when the method is built, not scored as a distance method."""
    if kind in (BELIEF, DISTANCE):
        evaluate_method(ds, Method("x", kind, "all"))
    else:
        with pytest.raises(ValidationError, match="unknown method kind"):
            Method("x", kind, "all")


@FUZZ
@given(name=NAMES)
def test_method_name_gives_a_result_or_a_vprfuse_error(ds, name):
    returns_or_refuses(resolve_method, name, ds.labels)
    returns_or_refuses(expand_methods, name, ds.labels)
    returns_or_refuses(evaluate_method, ds, name)
