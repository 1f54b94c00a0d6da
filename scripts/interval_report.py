#!/usr/bin/env python3
"""Report how the adaptive interval rule behaves on both problem presets.

For each preset, runs the adaptive scheduler over a few seeds and prints
the measured cost ratio, the crossover threshold at the preset's iteration
extremes, and the fraction of trials assigned each evaluation schedule.
"""

import argparse
import sys

from ace_hpo.cost_model import cost_ratio_threshold
from ace_hpo.schedulers import AceConfig, AceScheduler
from ace_hpo.simulate import make_problem, run_experiment

PRESET_BUDGETS = {"fairness-like": 12_000.0, "robustness-like": 3_000.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="number of seeds per preset")
    parser.add_argument("--max-concurrent", type=int, default=4)
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    for preset, budget in PRESET_BUDGETS.items():
        every = final = unscheduled = total = 0
        ratio = None
        for seed in range(args.seeds):
            problem = make_problem(preset, problem_seed=seed)
            result = run_experiment(
                problem,
                lambda h: AceScheduler(AceConfig(), h),
                budget,
                args.max_concurrent,
                seed,
            )
            every += result.interval_every_iteration
            final += result.interval_final_only
            unscheduled += result.interval_unscheduled
            total += result.total_trials
            ratio = result.history.ledger.cost_ratio()
        axis = problem.space.iteration_axis
        low_threshold = cost_ratio_threshold(0.25, int(axis.low))
        high_threshold = cost_ratio_threshold(0.25, int(axis.high))
        print(f"{preset}:")
        print(f"  measured cost ratio        {ratio:.4f}")
        print(
            f"  crossover threshold        {low_threshold:.2f} at T={int(axis.low)}, "
            f"{high_threshold:.2f} at T={int(axis.high)}"
        )
        print(f"  trials checked every iter  {every}/{total} ({every / total:.0%})")
        print(f"  trials checked at end only {final}/{total} ({final / total:.0%})")
        if unscheduled:
            print(f"  trials without a schedule  {unscheduled}/{total}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
