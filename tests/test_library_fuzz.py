"""The library's input boundary: every integer argument follows one rule, every
real-number argument another, every array argument a third, and any value in a
fuzzed argument gives a result or a VPRFuseError."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vprfuse import (
    Dataset,
    DistanceStack,
    GroundTruth,
    Method,
    ReferenceSet,
    ScoreMatrix,
    ValidationError,
    VPRFuseError,
    bench_query,
    decide,
    distance_stack,
    evaluate_method,
    expand_methods,
    gaussian_params,
    generate_synthetic,
    log_likelihood_ratio,
    match_correct,
    place_match_counts,
    posterior,
    pr_curve,
    resolve_method,
    score_matrix,
    select_all,
    select_references,
    select_single,
    sequence_aggregate,
    uniform_prior,
    write_descriptor_file,
)
from vprfuse.methods import BELIEF, DISTANCE

INT64_MAX = 2**63 - 1
# Past float's range; the last two also past str()'s default digit limit.
HUGE = (10**400, -(10**400), 10**5000, -(10**5000))


@pytest.fixture(scope="module")
def ds():
    """12 places x 4-d x 2 sets: one scoring call takes milliseconds."""
    return generate_synthetic(seed=3, n_places=12, n_conditions=2, dim=4)


# name: (call on the dataset and one integer argument, a valid value, and the
# largest int below 2**63 that the fuzzer draws: 40 for a size and 3 for bench's
# repetitions, since a larger one is allocated or run; None for any other int).
INTEGER_ENTRIES = {
    "uniform_prior": (lambda ds, n: uniform_prior(n), 5, 40),
    "GroundTruth-tolerance": (lambda ds, n: GroundTruth(np.arange(4), n), 2, None),
    "synthetic-seed": (lambda ds, n: generate_synthetic(seed=n, n_places=6, dim=3), 4, None),
    "synthetic-places": (lambda ds, n: generate_synthetic(n_places=n, dim=3), 6, 40),
    "synthetic-conditions": (
        lambda ds, n: generate_synthetic(n_places=6, n_conditions=n, dim=3), 2, 40
    ),
    "synthetic-dim": (lambda ds, n: generate_synthetic(n_places=6, dim=n), 3, 40),
    "synthetic-gt_tolerance": (
        lambda ds, n: generate_synthetic(n_places=6, dim=3, gt_tolerance=n), 1, None
    ),
    "sequence_aggregate": (
        lambda ds, n: sequence_aggregate(score_matrix(ds, "min-value:0"), n), 3, None
    ),
    "score_matrix-seq_len": (
        lambda ds, n: score_matrix(ds, "bayes-selective", seq_len=n), 3, None
    ),
    "evaluate_method-seq_len": (
        lambda ds, n: evaluate_method(ds, "bayes-selective", seq_len=n), 3, None
    ),
    "bench_query-repetitions": (
        lambda ds, n: bench_query(ds, "min-value:0", repetitions=n, n_queries=2), 2, 3
    ),
    "bench_query-n_queries": (
        lambda ds, n: bench_query(ds, "min-value:0", repetitions=1, n_queries=n), 2, None
    ),
    "match_correct-decided_place": (lambda ds, n: match_correct(n, 1, 2), 3, None),
    "match_correct-true_place": (lambda ds, n: match_correct(3, n, 2), 1, None),
    "match_correct-tolerance": (lambda ds, n: match_correct(3, 1, n), 2, None),
}
# select_single's own tests cover its index; the fuzzer covers it here.
FUZZED_ENTRIES = {
    **INTEGER_ENTRIES,
    "select_single": (
        lambda ds, n: select_single(distance_stack(ds.queries[0], ds.refs), n), 1, None
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


@pytest.mark.parametrize("entry", FUZZED_ENTRIES)
def test_integer_outside_int64_is_refused(ds, entry):
    """No count, index or seed reaches numpy or a message at more than 64 bits."""
    call, _, _ = FUZZED_ENTRIES[entry]
    for bad in (2**63, -(2**63) - 1, *HUGE):
        with pytest.raises(ValidationError, match="outside the int64 range"):
            call(ds, bad)


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


@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_int_beyond_float_is_refused(ds, entry):
    call, _ = REAL_ENTRIES[entry]
    for bad in HUGE:
        with pytest.raises(ValidationError, match="outside the float range"):
            call(ds, bad)


def integers(top=None):
    """Any int; with ``top``, none from ``top + 1`` up to int64's maximum."""
    if top is None:
        return st.integers()
    return st.integers(max_value=top) | st.integers(min_value=INT64_MAX + 1)


def argument(top=None):
    """Any value the fuzzer passes as an argument; ints as ``integers(top)`` draws them."""
    ints = integers(top)
    return st.one_of(
        ints,
        st.integers(-INT64_MAX - 1, INT64_MAX if top is None else top).map(np.int64),
        st.integers(-3, 40).map(float),
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


def shaped_like(x, value):
    """``value`` in ``x``'s shape when ``x`` is an array, else in one entry."""
    return np.full(x.shape if isinstance(x, np.ndarray) else 1, value)


def fused(name):
    """``fuse_rows`` of method ``name`` on the stacks ``x``, every set selected."""
    def call(ds, path, x):
        mask = np.ones(x.shape[:2] if isinstance(x, np.ndarray) else (1, 1), dtype=bool)
        return resolve_method(name, ds.labels).fuse_rows(x, mask)
    return call


# name: call on the dataset, a temporary file path and one array argument.
ARRAY_ENTRIES = {
    "distance_stack-query": lambda ds, path, x: distance_stack(x, ds.refs),
    "DistanceStack": lambda ds, path, x: DistanceStack(x),
    "ScoreMatrix": lambda ds, path, x: ScoreMatrix(x),
    "posterior-prior": lambda ds, path, x: posterior(stack(ds), select_all(stack(ds)), x),
    "ReferenceSet": lambda ds, path, x: ReferenceSet("x", x),
    "Dataset-queries": lambda ds, path, x: Dataset(ds.refs, x, ds.ground_truth),
    "GroundTruth": lambda ds, path, x: GroundTruth(x, 0),
    "write_descriptor_file": lambda ds, path, x: write_descriptor_file(path, x),
    "place_match_counts": lambda ds, path, x: place_match_counts(x),
    "gaussian_params": lambda ds, path, x: gaussian_params(x),
    "log_likelihood_ratio": lambda ds, path, x: log_likelihood_ratio(x),
    "fuse_rows-belief": fused("bayes-full"),
    "fuse_rows-distance": fused("baseline-fusion"),
    "pr_curve-confidences": lambda ds, path, x: pr_curve(
        x, shaped_like(x, True), shaped_like(x, True)
    ),
    "pr_curve-decided": lambda ds, path, x: pr_curve(
        shaped_like(x, 0.5), x, shaped_like(x, True)
    ),
    "pr_curve-correct": lambda ds, path, x: pr_curve(
        shaped_like(x, 0.5), shaped_like(x, True), x
    ),
}
# 0-d to 3-D arrays, often empty, of real, complex and string dtypes, and any
# other argument: scalars, strings, None and nested lists, often ragged.
ARRAYS = st.one_of(
    hnp.arrays(
        st.sampled_from([np.dtype(t) for t in ("f8", "f4", "i8", "?", "c16", "U2")]),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    argument(),
)


@pytest.fixture(scope="module")
def out_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d.vprd"


@settings(FUZZ, max_examples=20 * len(ARRAY_ENTRIES))
@given(entry=st.sampled_from(sorted(ARRAY_ENTRIES)), data=st.data())
def test_array_argument_gives_a_result_or_a_vprfuse_error(ds, out_file, entry, data):
    call = ARRAY_ENTRIES[entry]
    returns_or_refuses(call, ds, out_file, data.draw(ARRAYS, label="array"))


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
