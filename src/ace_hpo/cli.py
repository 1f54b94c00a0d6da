"""Command-line front end: run experiments and emit cost curves.

Subcommands:

``run``                executes every (arm, seed) combination from a JSON
                       config and writes per-run trace/decision/trial CSVs,
                       one summary JSON per arm, and a combined summary
                       table in CSV and text form; prints the text table.
``cost-curve``         emits closed-form expected-cost sweeps over the
                       evaluation interval as plot-ready CSV.
``validate-theorem``   drives the randomized brute-force sweeps and prints
                       pass/fail counts.

A CSV cell is written by the rule for its exact type (floats with 17
significant digits, true/false, empty for None, enums by value); no cell is
quoted, lines end in CRLF, and reruns of the same config produce
byte-identical files. The output directory is the ``--output-dir`` flag,
else the config's ``output_dir`` key, else ``./results``.

``run`` spreads its (arm, seed) runs over the CPUs in its affinity mask, and
any worker count writes the same bytes. numpy is imported at the first draw,
so loading a config, ``--help`` and ``cost-curve`` run without it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import operator
import os
import re
import statistics
import sys
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .cost_model import CostParams, expected_cost_closed
from .history import Group, RunningHistory
from .schedulers import (
    AceConfig,
    AceScheduler,
    Action,
    AshaConfig,
    AshaScheduler,
    ConstraintCallback,
    NoStoppingScheduler,
    TrialScheduler,
)
from .search_space import SearchSpace
from .simulate import (
    PRESET_NAMES,
    ProblemSpec,
    RunResult,
    make_problem,
    problem_spec,
    run_experiment,
)

__all__ = ["main", "load_config"]

# An in-process wrapper of run_experiment, such as the benchmark's tracer,
# sees only calls made in this process, so cmd_run runs serially under one.
_RUN_EXPERIMENT = run_experiment

DEFAULT_OUTPUT_DIR = "results"

SCHEDULER_KINDS = ("ace", "asha", "asha_callback", "no_stopping")
_CONFIG_KEYS = ("problem", "space", "budget", "max_concurrent", "seeds", "output_dir", "arms")
_REQUIRED_KEYS = ("problem", "budget", "max_concurrent", "seeds", "arms")
# An arm's name is part of its output file names.
_ARM_NAME = re.compile(r"[A-Za-z0-9_-]+")


class ConfigError(Exception):
    """A config that cannot be read, or a config or flag value that is rejected.

    Values are checked by building the config classes from them, so the
    message names the JSON path (``arms/0/params``) or the flag
    (``--seed``) and gives the class's own reason.
    """


class JobError(Exception):
    """An (arm, seed) run of ``run`` that ended without a result."""


def _error(path: str, message: str) -> ConfigError:
    return ConfigError(f"config error at {path or '<root>'}: {message}")


def _object(raw: Any, path: str, keys: Sequence[str], required: Sequence[str] = ()) -> dict:
    """``raw`` checked to be a JSON object with only ``keys`` and every ``required`` key."""
    if not isinstance(raw, dict):
        raise _error(path, f"expected an object, got {raw!r}")
    unknown = [key for key in raw if key not in keys]
    if unknown:
        raise _error(path, f"unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise _error(path, f"missing required key(s) {', '.join(map(repr, missing))}")
    return raw


def _build(
    cls: type, raw: Any, path: str, make: Callable | None = None, fixed: Sequence[str] = ()
) -> Any:
    """Build dataclass ``cls`` from the JSON object ``raw`` found at ``path``.

    Keys must name fields of ``cls`` other than ``fixed``, and each value
    must match its field's type hint (see :func:`_value`). The checked
    values go to ``make`` (default ``cls``) as keyword arguments; a
    ValueError or TypeError raised there, by a missing field or a
    ``__post_init__`` check, becomes a ConfigError at ``path``.
    """
    hints = typing.get_type_hints(cls)
    names = [field.name for field in dataclasses.fields(cls) if field.name not in fixed]
    values = {
        key: _value(hints[key], value, f"{path}/{key}")
        for key, value in _object(raw, path, names).items()
    }
    try:
        return (make or cls)(**values)
    except (TypeError, ValueError) as exc:
        raise _error(path, str(exc)) from exc


def _value(hint: Any, raw: Any, path: str) -> Any:
    """``raw`` checked against a field's type hint, converted where the hint asks.

    ``X | None`` takes what ``X`` takes (leave the key out for None). A bool
    takes only true or false; a float takes any finite JSON number and an int
    an integral one, but neither takes a bool. An Enum takes a member's
    value, a ``tuple[X, ...]`` an array of X, and a dataclass an object.
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    if hint is Any:
        return raw
    if dataclasses.is_dataclass(hint):
        return _build(hint, raw, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(raw, list):
            raise _error(path, f"expected an array, got {raw!r}")
        item = typing.get_args(hint)[0]
        return tuple(_value(item, entry, f"{path}/{i}") for i, entry in enumerate(raw))
    if issubclass(hint, Enum):
        try:
            return hint(raw)
        except (TypeError, ValueError):
            raise _error(path, f"{raw!r} is not one of {[m.value for m in hint]}") from None
    number = type(raw) in (int, float) and abs(raw) <= sys.float_info.max
    if hint is float and number or hint in (bool, str) and type(raw) is hint:
        return raw
    if hint is int and number and raw == int(raw):
        return int(raw)
    raise _error(path, f"expected {hint.__name__}, got {raw!r}")


def _seeds(seeds: Any, path: str) -> list[int]:
    """Seeds from the config or from ``--seed``: distinct integers >= 0, at least one."""
    if not isinstance(seeds, list) or not seeds:
        raise _error(path, f"expected a non-empty array of seeds, got {seeds!r}")
    for seed in seeds:
        if type(seed) is not int or seed < 0:
            raise _error(path, f"seed {seed!r} is not an integer >= 0")
    if len(set(seeds)) < len(seeds):
        raise _error(path, f"duplicate seeds in {seeds}")
    return seeds


def _problem(config: dict) -> tuple[str, dict, ProblemSpec]:
    """A config's preset, its typed ``make_problem`` overrides and its spec.

    The overrides are checked by building the spec, which is not calibrated.
    """
    problem = _object(config["problem"], "problem", ("preset", "overrides"), ("preset",))
    preset = problem["preset"]
    if preset not in PRESET_NAMES:
        raise _error("problem/preset", f"unknown preset {preset!r}; expected one of {PRESET_NAMES}")
    overrides = _build(
        ProblemSpec, problem.get("overrides", {}), "problem/overrides",
        make=dict, fixed=("space",),
    )
    if "space" in config:
        overrides["space"] = _build(SearchSpace, config["space"], "space")
    try:
        spec = problem_spec(preset, **overrides)
    except ValueError as exc:
        raise _error("problem", str(exc)) from exc
    return preset, overrides, spec


def _scheduler_factory(
    kind: str, params: Any, space: SearchSpace, path: str = "params"
) -> Callable[[RunningHistory], TrialScheduler]:
    """An arm's scheduler factory; keys absent from ``params`` keep the config defaults."""
    if kind == "ace":
        ace = _build(AceConfig, params, path)
        return lambda history: AceScheduler(ace, history)
    if kind in ("asha", "asha_callback"):
        make = functools.partial(AshaConfig, max_time_units=space.max_iterations)
        asha = _build(AshaConfig, params, path, make=make)
        if kind == "asha":
            return lambda history: AshaScheduler(asha, history)
        return lambda history: ConstraintCallback(AshaScheduler(asha, history))
    if kind == "no_stopping":
        _object(params, path, ())
        return lambda history: NoStoppingScheduler(history)
    raise ValueError(f"unknown scheduler kind {kind!r}")


def load_config(path: str | Path) -> dict:
    """Read a JSON experiment config and check it by building what ``run`` builds.

    Returns the parsed config. Problems are not calibrated here.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _object(config, "", _CONFIG_KEYS, _REQUIRED_KEYS)
    if not _value(float, config["budget"], "budget") > 0:
        raise _error("budget", f"{config['budget']!r} is not > 0")
    if _value(int, config["max_concurrent"], "max_concurrent") < 1:
        raise _error("max_concurrent", f"{config['max_concurrent']!r} is not >= 1")
    _seeds(config["seeds"], "seeds")
    if "output_dir" in config:
        output_dir = _value(str, config["output_dir"], "output_dir")
        if not output_dir or "\0" in output_dir:
            raise _error("output_dir", f"must be non-empty with no NUL character: {output_dir!r}")
    spec = _problem(config)[2]
    budget, c1, c2 = config["budget"], spec.primary_cost, spec.constraint_cost
    # Work is issued only below the budget, at least c1 per iteration: under budget / c1 + 1
    # iterations, ending below budget + c1 + c2. The post-hoc scan adds c2 per started trial.
    if not 2.0 * (budget + c1 + c2 + (budget / c1 + 1.0) * c2) <= sys.float_info.max:
        raise _error("budget", f"{budget!r} at costs {c1!r} and {c2!r} can overflow the clock")
    arms = config["arms"]
    if not isinstance(arms, list) or not arms:
        raise _error("arms", f"expected a non-empty array, got {arms!r}")
    names = set()
    for i, arm in enumerate(arms):
        at = f"arms/{i}"
        _object(arm, at, ("name", "scheduler", "params"), ("name", "scheduler"))
        name, kind = arm["name"], arm["scheduler"]
        if not (isinstance(name, str) and _ARM_NAME.fullmatch(name)):
            raise _error(f"{at}/name", f"{name!r} does not match {_ARM_NAME.pattern}")
        if name in names:
            raise _error(f"{at}/name", f"duplicate arm name {name!r}")
        names.add(name)
        if kind not in SCHEDULER_KINDS:
            raise _error(f"{at}/scheduler", f"{kind!r} is not one of {SCHEDULER_KINDS}")
        _scheduler_factory(kind, arm.get("params", {}), spec.space, f"{at}/params")
    return config


# One rule per exact cell type; any other type is a bug and raises KeyError.
# No cell needs quoting: cells are numbers, true/false, enum values, statuses
# and arm names (which match _ARM_NAME). str.__str__ writes an enum cell as its value.
_CELL: dict[type, Callable[[Any], str]] = {
    type(None): lambda _: "",
    bool: lambda value: "true" if value else "false",
    float: lambda value: format(value, ".17g"),
    int: str,
    str: str.__str__,
    Group: str.__str__,
    Action: str.__str__,
}


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(
            ",".join([_CELL[type(cell)](cell) for cell in row]) + "\r\n" for row in rows
        )


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
# summary.txt's columns, each left-aligned in its width: the arm, three aggregates
# as mean ± std, and the count of seeds that found a feasible trial.
_TEXT_COLUMNS = (
    ("arm", 16), ("best_feasible_score", 26), ("time_to_best", 26), ("total_trials", 22),
    ("success", 0),
)


def _write_run_files(out_dir: Path, arm: str, seed: int, result: RunResult) -> None:
    """Each run table's rows read by its header's names: trace rows from every
    checkpoint record, decision rows from the records with an action, trial rows."""
    records = result.history.records
    for table, header, rows in (
        ("trace", TRACE_HEADER, records),
        ("decisions", DECISION_HEADER, [r for r in records if r.action is not None]),
        ("trials", TRIAL_HEADER, result.history.trials),
    ):
        cells = list(map(operator.attrgetter(*header), rows))
        _write_csv(out_dir / f"{arm}_seed{seed}_{table}.csv", header, cells)


def _aggregate(per_seed: list[dict]) -> dict:
    """Success rate, and each field's mean and sample (n-1) std (0.0 for one value, None
    for none): score and time over seeds that found a feasible trial, counts over all."""
    found = [r for r in per_seed if r["feasible_found"]]
    out = {"seeds": len(per_seed), "success_rate": len(found) / len(per_seed)}
    for rows, field in (
        (found, "best_feasible_score"),
        (found, "time_to_best"),
        (per_seed, "total_trials"),
        (per_seed, "constraint_evaluations"),
    ):
        values = [float(r[field]) for r in rows]
        if not values:
            out[f"{field}_mean"] = out[f"{field}_std"] = None
            continue
        out[f"{field}_mean"] = statistics.fmean(values)
        out[f"{field}_std"] = statistics.stdev(values) if len(values) > 1 else 0.0
    return out


def _resolve_output_dir(flag_value: str | None, config: dict) -> Path:
    """Flag over config over ``./results``."""
    if flag_value == "":
        raise _error("--output-dir", "must not be empty")
    return Path(flag_value or config.get("output_dir") or DEFAULT_OUTPUT_DIR)


def _plus_minus(mean: float | None, std: float | None) -> str:
    if mean is None:
        return "n/a"
    return f"{mean:.6g} ± {std:.6g}"


def _run_job(job: tuple) -> dict:
    """One (arm, seed) run: writes its three run files and returns its summary record."""
    arm, problem, budget, max_concurrent, out_dir, seed = job
    factory = _scheduler_factory(arm["scheduler"], arm.get("params", {}), problem.spec.space)
    result = run_experiment(problem, factory, budget, max_concurrent, seed)
    _write_run_files(out_dir, arm["name"], seed, result)
    return {"seed": seed, **{f: getattr(result, f) for f in SUMMARY_FIELDS}}


def _map_jobs(jobs: list[tuple]) -> list[dict]:
    """``_run_job`` over ``jobs``, results in job order, with one worker per CPU in
    the affinity mask and at most one per job; no worker outlives the call. A
    worker that dies raises JobError naming the first job left without a result."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(jobs), cpus)
    if workers == 1 or run_experiment is not _RUN_EXPERIMENT:
        return list(map(_run_job, jobs))
    # Here, not at the top: a config load does not pay their import.
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A forked worker inherits the imports and the draw caches; jobs pickle for any method.
    # Workers ignore SIGINT, so an idle one prints no traceback; on Ctrl-C the parent ends them.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context, ignore = multiprocessing.get_context(method), (signal.SIGINT, signal.SIG_IGN)
    pool = ProcessPoolExecutor(workers, context, initializer=signal.signal, initargs=ignore)
    records: list[dict] = []
    try:
        for record in pool.map(_run_job, jobs):
            records.append(record)
    except BrokenProcessPool as exc:
        arm, *_, seed = jobs[len(records)]
        raise JobError(f"worker died: arm {arm['name']} seed {seed} got no result ({exc})") from None
    except KeyboardInterrupt:  # waiting out the jobs in flight would make Ctrl-C slow
        for worker in multiprocessing.active_children():
            worker.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    return records


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    seeds = _seeds(args.seed, "--seed") if args.seed else config["seeds"]
    preset, overrides, _ = _problem(config)
    out_dir = _resolve_output_dir(args.output_dir, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One calibrated problem per seed; every arm shares it and nothing mutates it.
    problems = {seed: make_problem(preset, seed, **overrides) for seed in seeds}
    budget, max_concurrent = float(config["budget"]), int(config["max_concurrent"])
    jobs = [
        (arm, problems[seed], budget, max_concurrent, out_dir, seed)
        for arm in config["arms"]
        for seed in problems
    ]
    records = iter(_map_jobs(jobs))
    summary_rows: list[tuple] = []
    text_rows = [[column for column, _ in _TEXT_COLUMNS]]
    for arm in config["arms"]:
        name = arm["name"]
        per_seed = [next(records) for _ in problems]
        summary_rows += [(name, *record.values()) for record in per_seed]
        summary = {
            "arm": name,
            "scheduler": arm["scheduler"],
            "params": arm.get("params", {}),
            "problem": config["problem"]["preset"],
            "budget": budget,
            "max_concurrent": max_concurrent,
            "per_seed": per_seed,
            "aggregate": _aggregate(per_seed),
        }
        with open(out_dir / f"{name}_summary.json", "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=False)
            handle.write("\n")
        agg, found = summary["aggregate"], sum(record["feasible_found"] for record in per_seed)
        stats = [_plus_minus(agg[f"{c}_mean"], agg[f"{c}_std"]) for c, _ in _TEXT_COLUMNS[1:-1]]
        text_rows.append([name, *stats, f"{found}/{len(per_seed)}"])

    _write_csv(out_dir / "summary.csv", SUMMARY_HEADER, summary_rows)
    lines = [
        f"problem: {config['problem']['preset']}  budget: {budget:.17g}  "
        f"max_concurrent: {max_concurrent}  seeds: {list(problems)}",
        "",
        *(" ".join(cell.ljust(w) for cell, (_, w) in zip(row, _TEXT_COLUMNS)) for row in text_rows),
    ]
    table = "\n".join(lines) + "\n"
    with open(out_dir / "summary.txt", "w", encoding="utf-8", newline="") as handle:
        handle.write(table)
    print(f"wrote {len(summary_rows)} runs to {out_dir}\n")
    print(table, end="")
    return 0


_CURVE_ITERATIONS = (2, 4, 8, 16, 32, 64, 128, 256)
_CURVE_RATIOS = tuple(2.0**k for k in range(-4, 11))
# The flag behind each CostParams field a cost-curve row varies; a CostParams
# message starts with the name of the field it rejects.
_COST_CURVE_FLAGS = {
    "stop_probability": "--stop-probability",
    "constraint_cost_per_eval": "--ratio",
    "max_iterations": "--iterations",
}


def cmd_cost_curve(args: argparse.Namespace) -> int:
    p = args.stop_probability
    if args.ratio or args.iterations:
        # Every ratio x horizon pair; a flag left out keeps the ratio 20 or horizon 16.
        sweeps = [(r, t) for r in args.ratio or [20.0] for t in args.iterations or [16]]
    else:
        # Both canonical figures: fixed ratio over doubling horizons, then a
        # fixed horizon over powers-of-two ratios.
        sweeps = [(20.0, t) for t in _CURVE_ITERATIONS]
        sweeps += [(r, 16) for r in _CURVE_RATIOS]
    for ratio, max_iterations in sweeps:
        try:
            CostParams(1.0, ratio, p, max_iterations, 1)
        except ValueError as exc:
            raise _error(_COST_CURVE_FLAGS[str(exc).split()[0]], str(exc)) from None
    # Every pair is checked before the file opens; the rows are written as they are made.
    rows = (
        (p, ratio, t, interval, expected_cost_closed(CostParams(1.0, ratio, p, t, interval)))
        for ratio, t in sweeps
        for interval in range(1, t + 1)
    )
    out_path = Path(args.output)
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_path,
        ("stop_probability", "cost_ratio", "max_iterations", "interval", "expected_cost"),
        rows,
    )
    print(f"wrote {sum(t for _, t in sweeps)} rows to {out_path}")
    return 0


def cmd_validate_theorem(args: argparse.Namespace) -> int:
    from .validate import closed_form_equivalence_sweep, endpoint_optimality_sweep

    seed = _seeds([args.seed], "--seed")[0]
    try:
        endpoint = endpoint_optimality_sweep(cases=args.cases, seed=seed)
    except ValueError as exc:
        raise _error("--cases", str(exc)) from None
    try:
        closed = closed_form_equivalence_sweep(cases=args.equivalence_cases, seed=seed)
    except ValueError as exc:
        raise _error("--equivalence-cases", str(exc)) from None
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
    except (ConfigError, JobError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: any output written so far is incomplete", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
