import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace_hpo.cost_model import (
    CostParams,
    brute_force_optimal_interval,
    choose_interval,
    cost_ratio_threshold,
    expected_cost_closed,
    expected_cost_exact,
)


def test_exact_small_case_by_hand():
    # z = 2 windows; survive both: 0.25 * (2*2 + 1*4) = 2
    # stop at k=1: 0.5 * (2 + 2) = 2; stop at k=2: 0.25 * (4 + 4) = 2
    params = CostParams(1.0, 2.0, 0.5, 4, 2)
    assert expected_cost_exact(params) == pytest.approx(6.0, abs=1e-12)


def test_exact_charges_a_partial_last_window_to_max_iterations():
    # T = 3, interval 2: checks after iterations 2 and 3. Stop at k=1:
    # 0.5 * (1 + 2) = 1.5; stop at k=2: 0.25 * (2 + 3) = 1.25; survive: 0.25 * 5.
    params = CostParams(1.0, 1.0, 0.5, 3, 2)
    assert expected_cost_exact(params) == pytest.approx(4.0, abs=1e-12)


def test_exact_single_check_collapses():
    # One check at the end: cost is c1 + c2*T no matter the stop probability.
    params = CostParams(1.0, 3.0, 0.7, 10, 10)
    assert expected_cost_exact(params) == pytest.approx(13.0, abs=1e-12)


def test_exact_certain_stop_every_iteration():
    # p = 1 with interval 1: always stops after the first iteration.
    params = CostParams(1.0, 0.0, 1.0, 5, 1)
    assert expected_cost_exact(params) == pytest.approx(1.0, abs=1e-15)


def test_closed_matches_hand_values():
    assert expected_cost_closed(CostParams(1.0, 2.0, 0.5, 4, 2)) == pytest.approx(6.0)
    assert expected_cost_closed(CostParams(1.0, 20.0, 0.5, 16, 16)) == pytest.approx(36.0)
    expected = 42.0 * (1.0 - 0.5**16)
    assert expected_cost_closed(CostParams(1.0, 20.0, 0.5, 16, 1)) == pytest.approx(expected, rel=1e-12)


def test_closed_p_one_limit():
    assert expected_cost_closed(CostParams(1.0, 5.0, 1.0, 8, 4)) == pytest.approx(9.0)


@settings(max_examples=300, deadline=None)
@given(
    c1=st.floats(0.0, 100.0),
    c2=st.floats(0.01, 50.0),
    p=st.floats(0.001, 1.0),
    z=st.integers(1, 64),
    beta=st.integers(1, 16),
)
def test_closed_equals_exact_when_interval_divides(c1, c2, p, z, beta):
    params = CostParams(c2, c1, p, z * beta, beta)
    exact = expected_cost_exact(params)
    closed = expected_cost_closed(params)
    assert math.isclose(exact, closed, rel_tol=1e-9)


def test_threshold_anchor_values():
    assert cost_ratio_threshold(0.5, 16) == pytest.approx(14.0, abs=0.01)
    assert cost_ratio_threshold(0.25, 8) == pytest.approx(1.6928, abs=1e-3)
    assert cost_ratio_threshold(0.25, 16) == pytest.approx(4.068, abs=1e-2)


def test_threshold_boundary_for_r20():
    # At p = 0.5, r = 20 the switch to interval-1 happens between T=21 and T=22.
    assert cost_ratio_threshold(0.5, 21) < 20.0
    assert cost_ratio_threshold(0.5, 22) >= 20.0


def _threshold_by_bisection(p, t):
    # Independent oracle: solve cost(interval=1) == cost(interval=T) in r.
    def gap(r):
        one = expected_cost_closed(CostParams(1.0, r, p, t, 1))
        full = expected_cost_closed(CostParams(1.0, r * 1.0, p, t, t))
        return one - full

    lo, hi = 0.0, 1e7
    assert gap(lo) < 0 and gap(hi) > 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p,t", [(0.5, 16), (0.25, 8), (0.25, 16), (0.1, 64), (0.9, 4)])
def test_threshold_matches_bisection_oracle(p, t):
    assert cost_ratio_threshold(p, t) == pytest.approx(_threshold_by_bisection(p, t), rel=1e-6)


def test_choose_interval_sides_and_tie():
    assert choose_interval(13.5, 0.5, 16) == 1
    assert choose_interval(14.5, 0.5, 16) == 16
    tie = cost_ratio_threshold(0.5, 16)
    assert choose_interval(tie, 0.5, 16) == 16
    assert choose_interval(100.0, 0.5, 1) == 1
    assert choose_interval(3.0, 1.0, 8) == 1


def test_brute_force_hand_cases():
    interval, cost = brute_force_optimal_interval(20.0, 0.5, 16)
    assert interval == 16
    assert cost == pytest.approx(36.0)
    interval, cost = brute_force_optimal_interval(1.0, 0.5, 16)
    assert interval == 1
    assert cost == pytest.approx(4.0 * (1.0 - 0.5**16), rel=1e-12)
    # T = 1: the only interval is 1 and the cost is (r + 1) * (1 - 0.7) / 0.3 = 8.
    assert brute_force_optimal_interval(7.0, 0.3, 1) == (1, pytest.approx(8.0))



@pytest.mark.parametrize(
    "args, message",
    [
        ((-1.0, 0.5, 16), "cost_ratio must be nonnegative"),
        ((1.0, 0.5, 0), "max_iterations must be a positive integer"),
        ((1.0, 0.0, 16), "stop_probability must be in (0, 1]"),
        ((1.0, 1.5, 16), "stop_probability must be in (0, 1]"),
    ],
)
def test_interval_rule_and_brute_force_reject_the_same_arguments(args, message):
    for rule in (choose_interval, brute_force_optimal_interval):
        with pytest.raises(ValueError, match=re.escape(message)):
            rule(*args)

@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(0.0, 1024.0),
    p=st.floats(0.01, 0.99),
    t=st.integers(2, 128),
)
def test_optimum_is_always_an_endpoint(r, p, t):
    interval, cost = brute_force_optimal_interval(r, p, t)
    end_min = min(
        expected_cost_closed(CostParams(1.0, r, p, t, 1)),
        expected_cost_closed(CostParams(1.0, r, p, t, t)),
    )
    assert cost <= end_min * (1.0 + 1e-9)
    threshold = cost_ratio_threshold(p, t)
    if abs(r - threshold) > 1e-6 * threshold:
        assert choose_interval(r, p, t) == interval


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.01, 0.99), t=st.integers(2, 128), scale=st.floats(0.1, 100.0))
def test_choice_invariant_to_cost_scale(p, t, scale):
    # Only the ratio matters: scaling both costs rescales every expected cost.
    r = 3.7
    a = expected_cost_closed(CostParams(1.0, r, p, t, 1))
    b = expected_cost_closed(CostParams(scale, r * scale, p, t, 1))
    assert math.isclose(a * scale, b, rel_tol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(primary_cost_per_iter=0.0, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=-1, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=math.inf, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=math.nan, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=math.inf, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=math.nan, stop_probability=0.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=1, stop_probability=0.0, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=1, stop_probability=1.5, max_iterations=4, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=0, interval=1),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=4, interval=5),
        dict(primary_cost_per_iter=1.0, constraint_cost_per_eval=1, stop_probability=0.5, max_iterations=4, interval=0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        CostParams(**kwargs)


def test_threshold_domain_errors():
    with pytest.raises(ValueError):
        cost_ratio_threshold(0.5, 1)
    with pytest.raises(ValueError):
        cost_ratio_threshold(1.0, 16)
    with pytest.raises(ValueError):
        cost_ratio_threshold(0.0, 16)
