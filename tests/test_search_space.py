import math
import pickle
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ace_hpo.search_space import (
    Configuration,
    ParamKind,
    ParamSpec,
    SearchSpace,
    sample,
    unit_values,
)


def small_space():
    return SearchSpace(
        (
            ParamSpec("rounds", ParamKind.LOG_UNIFORM_INT, 4, 1024, iteration_axis=True),
            ParamSpec("lr", ParamKind.LOG_UNIFORM_REAL, 1e-4, 1.0),
            ParamSpec("mix", ParamKind.UNIFORM_REAL, 0.0, 1.0),
            ParamSpec("arch", ParamKind.CHOICE, choices=("a", "b", "c", "d")),
        )
    )


def test_sampling_is_deterministic_per_seed_and_index():
    space = small_space()
    a = sample(space, 7, 3)
    b = sample(space, 7, 3)
    assert a == b
    assert sample(space, 8, 3) != a
    assert sample(space, 7, 4) != a


def test_sample_is_independent_of_draw_order():
    space = small_space()
    forward = [sample(space, 11, i) for i in range(9)]
    assert [sample(space, 11, i) for i in reversed(range(9))] == forward[::-1]


def test_space_pickles_with_its_draw_table():
    # Jobs pickle the space after calibration has built the table: it is plain data.
    space = small_space()
    before = [sample(space, 5, i) for i in range(70)]
    copy = pickle.loads(pickle.dumps(space))
    assert copy.draw_table == space.draw_table
    assert [sample(copy, 5, i) for i in range(70)] == before


@pytest.mark.parametrize(
    "axis",
    [
        lambda top: ParamSpec("n", ParamKind.LOG_UNIFORM_INT, 1, top, iteration_axis=True),
        lambda top: ParamSpec("n", ParamKind.CHOICE, choices=(8, top), iteration_axis=True),
    ],
    ids=["log_uniform_int", "choice"],
)
def test_iteration_axis_tops_out_at_2_to_the_16(axis):
    # Calibration time grows with the axis's top value: about 5 s per seed at 2**16.
    assert SearchSpace((axis(2**16),)).max_iterations == 2**16
    with pytest.raises(ValueError, match="n: the iteration axis tops out at 65537, above 65536"):
        SearchSpace((axis(2**16 + 1),))


def test_axis_sets_trial_budget():
    space = small_space()
    config = sample(space, 3, 0)
    assert config.max_iterations == config.values["rounds"]
    assert 4 <= config.max_iterations <= 1024


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), index=st.integers(0, 500))
def test_all_draws_inside_bounds(seed, index):
    space = small_space()
    config = sample(space, seed, index)
    assert 4 <= config.values["rounds"] <= 1024
    assert 1e-4 <= config.values["lr"] <= 1.0
    assert 0.0 <= config.values["mix"] <= 1.0
    assert config.values["arch"] in ("a", "b", "c", "d")


def test_log_int_rounds_down():
    # All mass between consecutive integers collapses to the lower one.
    space = SearchSpace(
        (ParamSpec("n", ParamKind.LOG_UNIFORM_INT, 4, 5, iteration_axis=True),)
    )
    draws = {sample(space, 0, i).values["n"] for i in range(200)}
    assert draws == {4}


def test_choice_frequencies_roughly_uniform():
    space = small_space()
    counts = Counter(sample(space, 2024, i).values["arch"] for i in range(10_000))
    sigma = math.sqrt(0.25 * 0.75 / 10_000)
    for arm in "abcd":
        assert abs(counts[arm] / 10_000 - 0.25) < 3 * sigma


def test_log_real_spreads_orders_of_magnitude():
    space = small_space()
    lrs = [sample(space, 42, i).values["lr"] for i in range(2_000)]
    below = sum(1 for v in lrs if v < 1e-2)
    # Half the log range sits below 1e-2.
    assert 0.4 < below / len(lrs) < 0.6


def test_space_validation_errors():
    with pytest.raises(ValueError):
        ParamSpec("x", ParamKind.UNIFORM_REAL, 1.0, 1.0)
    with pytest.raises(ValueError):
        ParamSpec("x", ParamKind.LOG_UNIFORM_REAL, 0.0, 1.0)
    # Adjacent ints past 2**53 have one log: a unit position would divide by zero.
    for kind in (ParamKind.LOG_UNIFORM_REAL, ParamKind.LOG_UNIFORM_INT):
        with pytest.raises(ValueError, match="distinct logs"):
            ParamSpec("x", kind, 2**53 + 2, 2**53 + 4)
    with pytest.raises(ValueError):
        ParamSpec("x", ParamKind.CHOICE, choices=())
    for repeated in ((32, 64, 32), ([1], [2], [1]), (1, 1.0)):  # lists are unhashable
        with pytest.raises(ValueError, match="distinct"):
            ParamSpec("x", ParamKind.CHOICE, choices=repeated)
    with pytest.raises(ValueError):
        ParamSpec("x", ParamKind.UNIFORM_REAL, 0.0, 1.0, iteration_axis=True)
    # Keys that a kind ignores are rejected rather than read by nothing.
    for kind in (ParamKind.UNIFORM_REAL, ParamKind.LOG_UNIFORM_REAL, ParamKind.LOG_UNIFORM_INT):
        with pytest.raises(ValueError, match="takes no choices"):
            ParamSpec("x", kind, 1.0, 2.0, choices=(1, 2))
    for bounds in ({"low": 1.0}, {"high": 2.0}, {"low": 0.0, "high": 2.0}):
        with pytest.raises(ValueError, match="takes no low or high"):
            ParamSpec("x", ParamKind.CHOICE, choices=(1, 2), **bounds)
    with pytest.raises(ValueError):
        SearchSpace((ParamSpec("lr", ParamKind.LOG_UNIFORM_REAL, 1e-4, 1.0),))
    with pytest.raises(ValueError):
        SearchSpace(
            (
                ParamSpec("a", ParamKind.LOG_UNIFORM_INT, 2, 8, iteration_axis=True),
                ParamSpec("a", ParamKind.UNIFORM_REAL, 0.0, 1.0),
            )
        )


@pytest.mark.parametrize(
    "kind, low, high",
    [
        (ParamKind.UNIFORM_REAL, 0.0, math.inf),
        (ParamKind.UNIFORM_REAL, -math.inf, 0.0),
        (ParamKind.UNIFORM_REAL, -1e308, 1e308),  # each bound finite, the range not
        (ParamKind.LOG_UNIFORM_REAL, 1e-3, math.inf),
    ],
)
def test_range_must_be_finite(kind, low, high):
    # numpy's uniform raises OverflowError for such a range; the spec rejects it first.
    with pytest.raises(ValueError, match="finite"):
        ParamSpec("x", kind, low, high)


def _restated_unit_values(space, config):
    """The unit mapping restated per kind from the specs, with every operand computed
    where it is used: the oracle that the table-driven :func:`unit_values` must match."""
    out = {}
    for pspec in space.params:
        value = config.values[pspec.name]
        if pspec.kind is ParamKind.UNIFORM_REAL:
            u = (value - pspec.low) / (pspec.high - pspec.low)
        elif pspec.kind in (ParamKind.LOG_UNIFORM_REAL, ParamKind.LOG_UNIFORM_INT):
            u = (math.log(value) - math.log(pspec.low)) / (
                math.log(pspec.high) - math.log(pspec.low)
            )
        else:
            index = pspec.choices.index(value)
            u = 0.5 if len(pspec.choices) == 1 else index / (len(pspec.choices) - 1)
        out[pspec.name] = min(max(u, 0.0), 1.0)
    return out


# Integer JSON bounds stay ints: near and past 2**53, int - int is exact where
# float - float rounds, so the mapping must subtract the bounds as given.
_INTS = st.one_of(st.integers(-(2**60), 2**60), st.integers(2**53 - 8, 2**53 + 8))
_FLOATS = st.floats(-1e300, 1e300, allow_nan=False)


def _numbers(kind):
    """Bounds or values for a ranged kind: any finite number; a positive one on a log
    scale; a positive int for an integer parameter."""
    if kind is ParamKind.UNIFORM_REAL:
        return st.one_of(_INTS, _FLOATS)
    ints = _INTS.filter(lambda x: x > 0)
    if kind is ParamKind.LOG_UNIFORM_INT:
        return ints
    return st.one_of(ints, _FLOATS.filter(lambda x: x > 0))


@st.composite
def _params(draw, name):
    kind = draw(st.sampled_from(ParamKind))
    if kind is ParamKind.CHOICE:
        options = draw(st.permutations("abcde"))
        return ParamSpec(name, kind, choices=tuple(options[: draw(st.integers(1, 5))]))
    low, high = sorted(draw(st.lists(_numbers(kind), min_size=2, max_size=2, unique=True)))
    assume(math.isfinite(high - low))
    # Bounds with one log are rejected: test_space_validation_errors.
    assume(kind is ParamKind.UNIFORM_REAL or math.log(low) < math.log(high))
    return ParamSpec(name, kind, low, high)


@st.composite
def _spaces(draw):
    top = draw(st.integers(3, 2**16))
    axis = draw(st.sampled_from([
        ParamSpec("axis", ParamKind.LOG_UNIFORM_INT, 1, top, iteration_axis=True),
        ParamSpec("axis", ParamKind.CHOICE, choices=(top,), iteration_axis=True),
        ParamSpec("axis", ParamKind.CHOICE, choices=(1, 2, top), iteration_axis=True),
    ]))
    count = draw(st.integers(1, 4))
    return SearchSpace((axis, *(draw(_params(f"p{i}")) for i in range(count))))


@settings(max_examples=300, deadline=None)
@given(space=_spaces(), data=st.data())
def test_unit_values_match_the_restated_mapping_bit_for_bit(space, data):
    """Sampled candidates, and hand-built values anywhere, inside or outside the bounds."""
    config = sample(space, data.draw(st.integers(0, 2**31)), data.draw(st.integers(0, 200)))
    # The iteration axis's rules are the one check of a sampled budget.
    assert 1 <= config.max_iterations <= space.max_iterations
    values = dict(config.values)
    for p in space.params:
        if p.kind is ParamKind.CHOICE:
            values[p.name] = data.draw(st.sampled_from(p.choices))
        elif data.draw(st.booleans()):
            values[p.name] = data.draw(_numbers(p.kind))
    for candidate in (config, Configuration(values, 1)):
        got, want = unit_values(space, candidate), _restated_unit_values(space, candidate)
        assert list(got) == list(want)
        assert [u.hex() for u in got.values()] == [u.hex() for u in want.values()]
