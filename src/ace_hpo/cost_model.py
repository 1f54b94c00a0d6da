"""Expected-cost model for interval-based constraint evaluation.

A trial trains for up to ``max_iterations`` iterations, each costing
``primary_cost_per_iter``. Every ``interval`` iterations the constraint
metric is computed at ``constraint_cost_per_eval`` per evaluation, and the
trial is stopped at each check independently with probability
``stop_probability``. The expected total cost of such a trial admits a
closed form, and its minimiser over the interval is always one of the two
endpoints: check every iteration, or check once at the end. Which endpoint
wins is decided by a threshold on the cost ratio (constraint cost over
per-iteration training cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "CostParams",
    "expected_cost_exact",
    "expected_cost_closed",
    "cost_ratio_threshold",
    "choose_interval",
    "brute_force_optimal_interval",
]


@dataclass(frozen=True)
class CostParams:
    """Inputs of the expected trial-cost model.

    ``interval`` is the number of training iterations between consecutive
    constraint evaluations; checks happen after iterations interval,
    2*interval, ... with a final partial window reaching max_iterations.
    """

    primary_cost_per_iter: float
    constraint_cost_per_eval: float
    stop_probability: float
    max_iterations: int
    interval: int

    def __post_init__(self) -> None:
        if not 0.0 < self.primary_cost_per_iter < math.inf:
            raise ValueError("primary_cost_per_iter must be positive and finite")
        if not 0.0 <= self.constraint_cost_per_eval < math.inf:
            raise ValueError("constraint_cost_per_eval must be nonnegative and finite")
        if not 0.0 < self.stop_probability <= 1.0:
            raise ValueError("stop_probability must be in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be a positive integer")
        if not 1 <= self.interval <= self.max_iterations:
            raise ValueError("interval must lie in [1, max_iterations]")

    @property
    def cost_ratio(self) -> float:
        return self.constraint_cost_per_eval / self.primary_cost_per_iter

    @property
    def num_checks(self) -> int:
        # Smallest z with (z-1)*interval < max_iterations <= z*interval.
        return -(-self.max_iterations // self.interval)


def expected_cost_exact(params: CostParams) -> float:
    """Expected trial cost by direct summation over the stopping point.

    The trial survives k-1 checks and stops at the k-th with probability
    (1-p)^(k-1) * p, having trained min(k*interval, max_iterations)
    iterations (the last check sits at max_iterations) and paid for k
    constraint evaluations; with probability (1-p)^z it survives all z
    checks and trains the full max_iterations.
    """
    z = params.num_checks
    p = params.stop_probability
    q = 1.0 - p
    c1 = params.constraint_cost_per_eval
    c2 = params.primary_cost_per_iter
    total = q**z * (c1 * z + c2 * params.max_iterations)
    for k in range(1, z + 1):
        total += q ** (k - 1) * p * (c1 * k + c2 * min(k * params.interval, params.max_iterations))
    return total


def _closed_form(c2: float, r: float, p: float, t: int, beta: float) -> float:
    if p == 1.0:
        return c2 * (r + beta)
    return c2 * (r + beta) * (1.0 - (1.0 - p) ** (t / beta)) / p


def expected_cost_closed(params: CostParams) -> float:
    """Closed-form expected trial cost.

    Equals c2 * (r + interval) * (1 - (1-p)^(T/interval)) / p, the geometric
    sum of the per-window costs; the p = 1 limit is c2 * (r + interval).
    Agrees with :func:`expected_cost_exact` exactly when interval divides
    max_iterations (otherwise the exponent T/interval is fractional while
    the summation rounds the window count up).
    """
    return _closed_form(
        params.primary_cost_per_iter,
        params.cost_ratio,
        params.stop_probability,
        params.max_iterations,
        params.interval,
    )


def cost_ratio_threshold(stop_probability: float, max_iterations: int) -> float:
    """Cost-ratio value at which the two endpoint intervals cost the same.

    For r below the threshold, checking every iteration is cheaper in
    expectation; above it, a single check at the final iteration wins.
    """
    if not 0.0 < stop_probability < 1.0:
        raise ValueError("stop_probability must be in (0, 1) for the threshold")
    if max_iterations < 2:
        raise ValueError("threshold is undefined for max_iterations < 2")
    p = stop_probability
    qt = (1.0 - p) ** max_iterations
    return (p * max_iterations + qt - 1.0) / (1.0 - p - qt)


def _check_interval_args(cost_ratio: float, stop_probability: float, max_iterations: int) -> None:
    """The arguments the interval rule and its brute-force check share."""
    if cost_ratio < 0:
        raise ValueError("cost_ratio must be nonnegative")
    if max_iterations < 1:
        raise ValueError("max_iterations must be a positive integer")
    if not 0.0 < stop_probability <= 1.0:
        raise ValueError("stop_probability must be in (0, 1]")


def choose_interval(cost_ratio: float, stop_probability: float, max_iterations: int) -> int:
    """Pick the expected-cost-optimal evaluation interval: 1 or max_iterations.

    Returns max_iterations when the cost ratio exactly equals the threshold
    (a single final check never loses there).
    """
    _check_interval_args(cost_ratio, stop_probability, max_iterations)
    if max_iterations == 1:
        return 1
    if stop_probability == 1.0:
        # Limit case: cost reduces to c2*(r+interval), increasing in the interval.
        return 1
    if cost_ratio < cost_ratio_threshold(stop_probability, max_iterations):
        return 1
    return max_iterations


def brute_force_optimal_interval(
    cost_ratio: float, stop_probability: float, max_iterations: int
) -> tuple[int, float]:
    """Scan every integer interval in [1, max_iterations] for the cheapest one.

    Independent check of the endpoint-optimality result: evaluates the
    closed form at each interval and returns (argmin, min cost), keeping
    the smallest interval on ties within 1e-12 relative cost. Training costs
    1 per iteration: the closed form is linear in it, so the argmin is not.
    """
    _check_interval_args(cost_ratio, stop_probability, max_iterations)
    best_interval = 1
    best_cost = _closed_form(1.0, cost_ratio, stop_probability, max_iterations, 1)
    for beta in range(2, max_iterations + 1):
        cost = _closed_form(1.0, cost_ratio, stop_probability, max_iterations, beta)
        if cost < best_cost * (1.0 - 1e-12):
            best_interval = beta
            best_cost = cost
    return best_interval, best_cost
