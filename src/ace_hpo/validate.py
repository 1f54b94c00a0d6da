"""Randomized sweeps that check the cost model against brute force.

Two claims are exercised. First, the expected-cost-optimal evaluation
interval is always an endpoint: either check every iteration or check once
at the final one. Second, the closed-form cost expression agrees with the
direct stop-point summation whenever the interval divides the iteration
count. Both sweeps draw their cases from a seeded generator so reruns are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost_model import (
    CostParams,
    brute_force_optimal_interval,
    choose_interval,
    cost_ratio_threshold,
    expected_cost_closed,
    expected_cost_exact,
)

__all__ = [
    "EndpointSweepReport",
    "ClosedFormSweepReport",
    "endpoint_optimality_sweep",
    "closed_form_equivalence_sweep",
]

# A case lands in the chooser's undecidable band when the drawn cost ratio
# sits within this relative distance of the endpoint-crossover threshold.
NEAR_THRESHOLD_RTOL = 1e-6

ENDPOINT_GAP_RTOL = 1e-9
CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class EndpointSweepReport:
    cases: int
    endpoint_failures: int
    chooser_checked: int
    chooser_mismatches: int
    near_threshold_skips: int
    max_relative_gap: float

    @property
    def passed(self) -> bool:
        return self.endpoint_failures == 0 and self.chooser_mismatches == 0


@dataclass(frozen=True)
class ClosedFormSweepReport:
    cases: int
    failures: int
    max_relative_difference: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def endpoint_optimality_sweep(cases: int = 10_000, seed: int = 0) -> EndpointSweepReport:
    """Compare the brute-force optimal interval against the two endpoints.

    Each case draws a stop probability in (0.01, 0.99), a cost ratio
    log-uniform in [2**-4, 2**10], and an iteration count in [2, 256]. The
    brute-force minimum over every integer interval must not undercut the
    cheaper endpoint by more than ``ENDPOINT_GAP_RTOL`` relative, and the
    interval chooser must name that endpoint whenever the ratio is not
    within ``NEAR_THRESHOLD_RTOL`` of the crossover threshold.
    """
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases!r}")
    rng = np.random.default_rng(seed)
    endpoint_failures = 0
    chooser_checked = 0
    chooser_mismatches = 0
    skips = 0
    max_gap = 0.0
    for _ in range(cases):
        p = float(rng.uniform(0.01, 0.99))
        r = float(2.0 ** rng.uniform(-4.0, 10.0))
        t = int(rng.integers(2, 257))
        _, best_cost = brute_force_optimal_interval(r, p, t)
        cost_first = expected_cost_closed(CostParams(1.0, r, p, t, 1))
        cost_final = expected_cost_closed(CostParams(1.0, r, p, t, t))
        min_endpoint = min(cost_first, cost_final)
        gap = (min_endpoint - best_cost) / min_endpoint
        max_gap = max(max_gap, gap)
        if gap >= ENDPOINT_GAP_RTOL:
            endpoint_failures += 1
        threshold = cost_ratio_threshold(p, t)
        if abs(r - threshold) <= NEAR_THRESHOLD_RTOL * threshold:
            skips += 1
            continue
        chooser_checked += 1
        oracle = 1 if cost_first < cost_final else t
        if choose_interval(r, p, t) != oracle:
            chooser_mismatches += 1
    return EndpointSweepReport(
        cases=cases,
        endpoint_failures=endpoint_failures,
        chooser_checked=chooser_checked,
        chooser_mismatches=chooser_mismatches,
        near_threshold_skips=skips,
        max_relative_gap=max_gap,
    )


def closed_form_equivalence_sweep(cases: int = 5_000, seed: int = 0) -> ClosedFormSweepReport:
    """Check the closed form against direct summation on divisible intervals.

    Cases draw interval and window count in [1, 32] (so the interval always
    divides the iteration total), both cost scales log-uniform over several
    octaves, and the stop probability uniform in (0.01, 1); every 50th case
    pins p = 1 to cover the degenerate single-window limit.
    """
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases!r}")
    rng = np.random.default_rng(seed)
    failures = 0
    max_diff = 0.0
    for i in range(cases):
        beta = int(rng.integers(1, 33))
        windows = int(rng.integers(1, 33))
        t = beta * windows
        c2 = float(2.0 ** rng.uniform(-3.0, 3.0))
        c1 = float(c2 * 2.0 ** rng.uniform(-4.0, 10.0))
        p = 1.0 if i % 50 == 49 else float(rng.uniform(0.01, 1.0))
        params = CostParams(c2, c1, p, t, beta)
        exact = expected_cost_exact(params)
        closed = expected_cost_closed(params)
        diff = abs(exact - closed) / abs(exact)
        max_diff = max(max_diff, diff)
        if diff > CLOSED_FORM_RTOL:
            failures += 1
    return ClosedFormSweepReport(
        cases=cases, failures=failures, max_relative_difference=max_diff
    )
