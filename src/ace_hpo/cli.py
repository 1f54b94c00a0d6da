"""Command-line front end: run experiments, emit cost curves and sweeps.

Subcommands:

``run``                executes every (arm, seed) combination from a JSON
                       config and writes per-run trace/decision/trial CSVs,
                       one summary JSON per arm, and a combined summary
                       table in CSV and text form.
``cost-curve``         emits closed-form expected-cost sweeps over the
                       evaluation interval as plot-ready CSV.
``truncation-sweep``   reruns the adaptive scheduler at several truncation
                       percentages on identical candidate streams.
``validate-theorem``   drives the randomized brute-force sweeps and prints
                       pass/fail counts.

All floats in CSV files are written with 17 significant digits, CSV quoting
follows the csv module's RFC-4180 defaults, and reruns of the same config
produce byte-identical files. The output directory resolves in order:
``--output-dir`` flag, ``ACE_HPO_OUTPUT_DIR`` environment variable, the
config's ``output_dir`` key, then ``./results``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import jsonschema

from .cost_model import CostParams, expected_cost_closed
from .history import RunningHistory
from .schedulers import (
    AceConfig,
    AceScheduler,
    AshaConfig,
    AshaScheduler,
    ConstraintCallback,
    IntervalMode,
    NoStoppingScheduler,
    StoppingMode,
    TrialScheduler,
)
from .search_space import ParamKind, ParamSpec, SearchSpace
from .simulate import PRESET_NAMES, LandscapeTerm, RunResult, make_problem, run_experiment
from .validate import closed_form_equivalence_sweep, endpoint_optimality_sweep

__all__ = ["main", "load_config", "CONFIG_SCHEMA"]

ENV_OUTPUT_DIR = "ACE_HPO_OUTPUT_DIR"
DEFAULT_OUTPUT_DIR = "results"

_TERM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["param", "center", "weight"],
    "properties": {
        "param": {"type": "string"},
        "center": {"type": "number"},
        "weight": {"type": "number"},
    },
}

_OVERRIDES_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "rate_param": {"type": "string"},
        "rate_low": {"type": "number"},
        "rate_high": {"type": "number"},
        "opt_base": {"type": "number"},
        "opt_gain": {"type": "number"},
        "opt_start": {"type": "number"},
        "opt_start_gain": {"type": "number"},
        "constraint_base": {"type": "number"},
        "constraint_gain": {"type": "number"},
        "constraint_lift": {"type": "number"},
        "constraint_rate_scale": {"type": "number"},
        "osc_base": {"type": "number"},
        "osc_gain": {"type": "number"},
        "osc_period": {"type": "number"},
        "opt_noise": {"type": "number"},
        "constraint_noise": {"type": "number"},
        "primary_cost": {"type": "number"},
        "constraint_cost": {"type": "number"},
        "feasible_fraction": {"type": "number"},
        "maximize": {"type": "boolean"},
        "quality_terms": {"type": "array", "items": _TERM_SCHEMA},
        "feasibility_terms": {"type": "array", "items": _TERM_SCHEMA},
    },
}

_PARAM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "kind"],
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "kind": {"enum": [k.value for k in ParamKind]},
        "low": {"type": "number"},
        "high": {"type": "number"},
        "choices": {"type": "array", "minItems": 1},
        "iteration_axis": {"type": "boolean"},
    },
}

_ACE_PARAMS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "truncation_percentage": {
            "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1
        },
        "low_overhead_gate": {"type": "boolean"},
        "stopping_mode": {"enum": [m.value for m in StoppingMode]},
        "interval_mode": {"enum": [m.value for m in IntervalMode]},
    },
}

_ASHA_PARAMS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "max_time_units": {"type": "integer", "minimum": 1},
        "reduction_factor": {"type": "integer", "minimum": 2},
        "grace_period": {"type": "integer", "minimum": 1},
        "stratum_mode": {"type": "boolean"},
        "constraint_interval_fixed": {"type": "boolean"},
    },
}

_NO_PARAMS_SCHEMA = {"type": "object", "additionalProperties": False, "properties": {}}

SCHEDULER_KINDS = ("ace", "asha", "asha_callback", "no_stopping")

_ARM_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "scheduler"],
    "properties": {
        "name": {"type": "string", "pattern": "^[A-Za-z0-9_-]+$"},
        "scheduler": {"enum": list(SCHEDULER_KINDS)},
        "params": {"type": "object"},
    },
    "allOf": [
        {
            "if": {"properties": {"scheduler": {"const": "ace"}}},
            "then": {"properties": {"params": _ACE_PARAMS_SCHEMA}},
        },
        {
            "if": {"properties": {"scheduler": {"enum": ["asha", "asha_callback"]}}},
            "then": {"properties": {"params": _ASHA_PARAMS_SCHEMA}},
        },
        {
            "if": {"properties": {"scheduler": {"const": "no_stopping"}}},
            "then": {"properties": {"params": _NO_PARAMS_SCHEMA}},
        },
    ],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "budget", "max_concurrent", "seeds", "arms"],
    "properties": {
        "problem": {
            "type": "object",
            "additionalProperties": False,
            "required": ["preset"],
            "properties": {
                "preset": {"enum": list(PRESET_NAMES)},
                "overrides": _OVERRIDES_SCHEMA,
            },
        },
        "space": {
            "type": "object",
            "additionalProperties": False,
            "required": ["params"],
            "properties": {
                "params": {"type": "array", "minItems": 1, "items": _PARAM_SCHEMA},
            },
        },
        "budget": {"type": "number", "exclusiveMinimum": 0},
        "max_concurrent": {"type": "integer", "minimum": 1},
        "seeds": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 0},
        },
        "output_dir": {"type": "string", "minLength": 1},
        "arms": {"type": "array", "minItems": 1, "items": _ARM_SCHEMA},
    },
}


class ConfigError(Exception):
    """Raised when a config file fails schema validation or cannot be read."""


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "<root>"
        raise ConfigError(f"config error at {where}: {exc.message}") from exc
    return raw


def _build_space(space_cfg: dict) -> SearchSpace:
    params = []
    for entry in space_cfg["params"]:
        params.append(
            ParamSpec(
                name=entry["name"],
                kind=ParamKind(entry["kind"]),
                low=entry.get("low"),
                high=entry.get("high"),
                choices=tuple(entry.get("choices", ())),
                iteration_axis=entry.get("iteration_axis", False),
            )
        )
    return SearchSpace(tuple(params))


def _build_problems(config: dict, seeds: list[int]) -> dict:
    """One calibrated problem per seed, shared by every arm (a problem is never mutated)."""
    overrides = dict(config["problem"].get("overrides", {}))
    for key in ("quality_terms", "feasibility_terms"):
        if key in overrides:
            overrides[key] = tuple(
                LandscapeTerm(t["param"], t["center"], t["weight"]) for t in overrides[key]
            )
    space = _build_space(config["space"]) if "space" in config else None
    preset = config["problem"]["preset"]
    return {seed: make_problem(preset, seed, space=space, **overrides) for seed in seeds}


def _scheduler_factory(
    kind: str, params: dict, space: SearchSpace
) -> Callable[[RunningHistory], TrialScheduler]:
    """An arm's scheduler factory; keys absent from ``params`` keep the config defaults."""
    if kind == "ace":
        enums = {"stopping_mode": StoppingMode, "interval_mode": IntervalMode}
        config = AceConfig(**{k: enums[k](v) if k in enums else v for k, v in params.items()})
        return lambda history: AceScheduler(config, history)
    if kind in ("asha", "asha_callback"):
        config = AshaConfig(**{"max_time_units": space.max_iterations, **params})
        if kind == "asha":
            return lambda history: AshaScheduler(config, history)
        return lambda history: ConstraintCallback(AshaScheduler(config, history))
    if kind == "no_stopping":
        return lambda history: NoStoppingScheduler(history)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def _fmt(value: Any) -> str:
    """One cell: 17 significant digits for floats, true/false, empty for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


TRACE_HEADER = (
    "trial_id", "iteration", "opt_metric", "constraint_value",
    "group", "violation_amount", "sim_time",
)
DECISION_HEADER = (
    "sim_time", "trial_id", "iteration", "action",
    "evaluate_constraint", "group", "rank", "group_size",
)
TRIAL_HEADER = (
    "trial_id", "max_iterations", "interval", "best_opt", "best_iteration", "status",
)
# RunResult attributes reported per (arm, seed), in summary.csv column order.
SUMMARY_FIELDS = (
    "best_feasible_score", "time_to_best", "feasible_found",
    "total_trials", "completed_trials", "stopped_trials", "truncated_trials",
    "primary_iterations", "constraint_evaluations", "interval_every_iteration",
    "interval_final_only", "interval_unscheduled", "total_cost",
)
SUMMARY_HEADER = ("arm", "seed", *SUMMARY_FIELDS)


def _write_run_files(out_dir: Path, arm: str, seed: int, result: RunResult) -> None:
    """Trace rows per checkpoint record, decision rows per loop checkpoint, trial rows."""
    prefix = f"{arm}_seed{seed}"
    trace_rows, decision_rows = [], []
    for r in result.history.records:
        trace_rows.append(
            (
                r.trial_id, r.iteration, r.opt_metric, r.constraint_value,
                r.group.value, r.violation_amount, r.sim_time,
            )
        )
        if r.action is not None:
            decision_rows.append(
                (
                    r.sim_time, r.trial_id, r.iteration, r.action.value,
                    r.evaluate_constraint, r.group.value, r.rank, r.group_size,
                )
            )
    _write_csv(out_dir / f"{prefix}_trace.csv", TRACE_HEADER, trace_rows)
    _write_csv(out_dir / f"{prefix}_decisions.csv", DECISION_HEADER, decision_rows)
    _write_csv(
        out_dir / f"{prefix}_trials.csv",
        TRIAL_HEADER,
        [
            (
                row.trial_id, row.max_iterations, row.interval,
                row.best_opt, row.best_iteration, row.status,
            )
            for row in result.trial_rows
        ],
    )


def _per_seed_record(seed: int, result: RunResult) -> dict:
    return {"seed": seed, **{field: getattr(result, field) for field in SUMMARY_FIELDS}}


def _mean_std(values: Sequence[float]) -> tuple[float | None, float | None]:
    """Mean and sample (n-1) standard deviation; std is 0.0 for one value."""
    if not values:
        return None, None
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def _aggregate(per_seed: list[dict]) -> dict:
    found = [r for r in per_seed if r["feasible_found"]]
    score_mean, score_std = _mean_std([r["best_feasible_score"] for r in found])
    time_mean, time_std = _mean_std([r["time_to_best"] for r in found])
    trials_mean, trials_std = _mean_std([float(r["total_trials"]) for r in per_seed])
    evals_mean, evals_std = _mean_std(
        [float(r["constraint_evaluations"]) for r in per_seed]
    )
    return {
        "seeds": len(per_seed),
        "success_rate": len(found) / len(per_seed),
        "best_feasible_score_mean": score_mean,
        "best_feasible_score_std": score_std,
        "time_to_best_mean": time_mean,
        "time_to_best_std": time_std,
        "total_trials_mean": trials_mean,
        "total_trials_std": trials_std,
        "constraint_evaluations_mean": evals_mean,
        "constraint_evaluations_std": evals_std,
    }


def _resolve_output_dir(flag_value: str | None, config: dict | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_OUTPUT_DIR)
    if env:
        return Path(env)
    if config and "output_dir" in config:
        return Path(config["output_dir"])
    return Path(DEFAULT_OUTPUT_DIR)


def _plus_minus(mean: float | None, std: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.6g} ± {std:.6g}"


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seeds = list(args.seed) if args.seed else list(config["seeds"])
    out_dir = _resolve_output_dir(args.output_dir, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    budget = float(config["budget"])
    max_concurrent = int(config["max_concurrent"])

    problems = _build_problems(config, seeds)
    summary_rows: list[tuple] = []
    arm_summaries: list[dict] = []
    for arm in config["arms"]:
        name = arm["name"]
        params = arm.get("params", {})
        per_seed: list[dict] = []
        for seed in seeds:
            problem = problems[seed]
            factory = _scheduler_factory(arm["scheduler"], params, problem.space)
            result = run_experiment(problem, factory, budget, max_concurrent, seed)
            _write_run_files(out_dir, name, seed, result)
            record = _per_seed_record(seed, result)
            per_seed.append(record)
            summary_rows.append((name, seed, *(record[f] for f in SUMMARY_FIELDS)))
        summary = {
            "arm": name,
            "scheduler": arm["scheduler"],
            "params": params,
            "problem": config["problem"]["preset"],
            "budget": budget,
            "max_concurrent": max_concurrent,
            "per_seed": per_seed,
            "aggregate": _aggregate(per_seed),
        }
        arm_summaries.append(summary)
        with open(out_dir / f"{name}_summary.json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")

    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, summary_rows)
    lines = [
        f"problem: {config['problem']['preset']}  budget: {_fmt(budget)}  "
        f"max_concurrent: {max_concurrent}  seeds: {seeds}",
        "",
        f"{'arm':<16} {'best_feasible_score':<26} {'time_to_best':<26} "
        f"{'total_trials':<22} success",
    ]
    for summary in arm_summaries:
        agg = summary["aggregate"]
        success = f"{int(round(agg['success_rate'] * agg['seeds']))}/{agg['seeds']}"
        lines.append(
            f"{summary['arm']:<16} "
            f"{_plus_minus(agg['best_feasible_score_mean'], agg['best_feasible_score_std']):<26} "
            f"{_plus_minus(agg['time_to_best_mean'], agg['time_to_best_std']):<26} "
            f"{_plus_minus(agg['total_trials_mean'], agg['total_trials_std']):<22} "
            f"{success}"
        )
    with open(out_dir / "summary.txt", "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(summary_rows)} runs to {out_dir}")
    return 0


_CURVE_ITERATIONS = (2, 4, 8, 16, 32, 64, 128, 256)
_CURVE_RATIOS = tuple(2.0**k for k in range(-4, 11))


def cmd_cost_curve(args: argparse.Namespace) -> int:
    p = args.stop_probability
    sweeps: list[tuple[float, int]] = []
    if args.ratio and args.iterations:
        sweeps = [(r, t) for r in args.ratio for t in args.iterations]
    elif args.ratio:
        sweeps = [(r, 16) for r in args.ratio]
    elif args.iterations:
        sweeps = [(20.0, t) for t in args.iterations]
    else:
        # Both canonical figures: fixed ratio over doubling horizons, then a
        # fixed horizon over powers-of-two ratios.
        sweeps = [(20.0, t) for t in _CURVE_ITERATIONS]
        sweeps += [(r, 16) for r in _CURVE_RATIOS]
    rows = []
    for ratio, max_iterations in sweeps:
        for interval in range(1, max_iterations + 1):
            cost = expected_cost_closed(
                CostParams(1.0, ratio, p, max_iterations, interval)
            )
            rows.append((p, ratio, max_iterations, interval, cost))
    out_path = Path(args.output)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_path,
        ("stop_probability", "cost_ratio", "max_iterations", "interval", "expected_cost"),
        rows,
    )
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def cmd_truncation_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seeds = list(args.seed) if args.seed else list(config["seeds"])
    out_dir = _resolve_output_dir(args.output_dir, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    budget = float(config["budget"])
    max_concurrent = int(config["max_concurrent"])
    percentages = list(args.percentage) if args.percentage else [0.03, 0.13, 0.25, 0.5, 0.75]
    for pct in percentages:
        if not 0.0 < pct < 1.0:
            print(f"truncation percentage {pct} outside (0, 1)", file=sys.stderr)
            return 2

    problems = _build_problems(config, seeds)
    rows = []
    for pct in percentages:
        scores, trials = [], []
        for seed in seeds:
            problem = problems[seed]
            factory = _scheduler_factory(
                "ace", {"truncation_percentage": pct}, problem.space
            )
            result = run_experiment(problem, factory, budget, max_concurrent, seed)
            trials.append(result.total_trials)
            if result.feasible_found:
                scores.append(result.best_feasible_score)
        mean_score = statistics.fmean(scores) if scores else None
        mean_trials = statistics.fmean([float(t) for t in trials])
        rows.append((pct, mean_score, mean_trials))
    _write_csv(
        out_dir / "truncation_sweep.csv",
        ("truncation_percentage", "mean_best_feasible_score", "mean_total_trials"),
        rows,
    )
    print(f"wrote {len(rows)} rows to {out_dir / 'truncation_sweep.csv'}")
    return 0


def cmd_validate_theorem(args: argparse.Namespace) -> int:
    endpoint = endpoint_optimality_sweep(cases=args.cases, seed=args.seed)
    closed = closed_form_equivalence_sweep(cases=args.equivalence_cases, seed=args.seed)
    print(
        f"endpoint optimality: {endpoint.cases} cases, "
        f"{endpoint.endpoint_failures} endpoint failures, "
        f"{endpoint.chooser_checked} chooser checks, "
        f"{endpoint.chooser_mismatches} chooser mismatches, "
        f"{endpoint.near_threshold_skips} near-threshold skips, "
        f"max relative gap {endpoint.max_relative_gap:.3g}"
    )
    print(
        f"closed-form equivalence: {closed.cases} cases, {closed.failures} failures, "
        f"max relative difference {closed.max_relative_difference:.3g}"
    )
    if endpoint.passed and closed.passed:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ace-hpo",
        description="Constraint-aware early stopping experiments on synthetic problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--output-dir", default=None, help="override the output directory")
    run_p.add_argument(
        "--seed", action="append", type=int, default=None,
        help="override config seeds; repeat the flag for several",
    )
    run_p.set_defaults(func=cmd_run)

    curve_p = sub.add_parser("cost-curve", help="emit expected-cost sweeps as CSV")
    curve_p.add_argument("--stop-probability", type=float, default=0.5)
    curve_p.add_argument(
        "--ratio", action="append", type=float, default=None,
        help="cost ratio to sweep; repeatable",
    )
    curve_p.add_argument(
        "--iterations", action="append", type=int, default=None,
        help="iteration horizon to sweep; repeatable",
    )
    curve_p.add_argument("--output", default="cost_curve.csv")
    curve_p.set_defaults(func=cmd_cost_curve)

    sweep_p = sub.add_parser(
        "truncation-sweep", help="rerun the adaptive scheduler over truncation percentages"
    )
    sweep_p.add_argument("config", help="path to a JSON experiment config")
    sweep_p.add_argument(
        "--percentage", action="append", type=float, default=None,
        help="truncation percentage to include; repeatable",
    )
    sweep_p.add_argument("--output-dir", default=None)
    sweep_p.add_argument("--seed", action="append", type=int, default=None)
    sweep_p.set_defaults(func=cmd_truncation_sweep)

    validate_p = sub.add_parser(
        "validate-theorem", help="run the randomized cost-model verification sweeps"
    )
    validate_p.add_argument("--cases", type=int, default=10_000)
    validate_p.add_argument("--equivalence-cases", type=int, default=5_000)
    validate_p.add_argument("--seed", type=int, default=0)
    validate_p.set_defaults(func=cmd_validate_theorem)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
