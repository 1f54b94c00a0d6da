"""Layer tracing of `ace-hpo run` from outside the package.

Run as ``python3 bench/tracer.py SPANS.npz run CONFIG [ace-hpo run options]``:
it wraps the public functions of each ``ace_hpo`` module in timing spans,
runs ``ace_hpo.cli.main`` on the remaining arguments, and writes every span
to SPANS.npz when the run ends. A span is a name, a start, an end and the
index of its parent span; spans stay in memory until the run ends.

Functions imported by name into another module are patched where they are
looked up (``cli.make_problem``, ``cli.run_experiment``, ``simulate.sample``,
``schedulers.choose_interval``, ...); patching only the defining module
would miss those calls.
"""

from __future__ import annotations

import array
import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable

import numpy as np


class SpanStore:
    """In-memory spans in flat arrays, plus counters taken at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("H")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: Counter[str] = Counter()
        self.runs: list[dict[str, int]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple], Any] | None = None,
        after: Callable[[Any, tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``before(args)`` runs ahead of the span and its result is handed to
        ``after(state, args, result)``, which runs once the span has ended.
        """
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        meta = {"names": self.names, "counters": dict(self.counters), "runs": self.runs}
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def install(store: SpanStore) -> Callable:
    """Patch every traced name in place and return the traced ``cli.main``."""
    from ace_hpo import cli, cost_model, history, schedulers, search_space, simulate

    wrap = store.wrap
    counters = store.counters

    def count_scan(_state, _args, result) -> None:
        counters["scan.evaluations"] += result.evaluations

    def count_decision(_state, _args, result) -> None:
        counters["decide"] += 1
        if result[0] is schedulers.Action.STOP:
            counters["decide.stop"] += 1

    def incumbent(args) -> float:
        return args[0].history.best_feasible_score

    def count_gate(before: float, args, decision) -> None:
        scheduler = args[0]
        if not isinstance(scheduler, schedulers.AceScheduler):
            return
        counters["ace.checkpoints"] += 1
        if decision.evaluate_constraint:
            counters["ace.evaluations"] += 1
            if scheduler.history.best_feasible_score < before:
                counters["ace.useful_evaluations"] += 1

    def record_run(_state, _args, result) -> None:
        store.runs.append(
            {"iterations": result.primary_iterations, "records": len(result.history.records)}
        )

    def count_emit(_state, args, _result) -> None:
        counters["emit.rows"] += len(args[2])
        counters["emit.bytes"] += os.path.getsize(args[0])

    sample = wrap("search_space.sample", search_space.sample)
    search_space.sample = simulate.sample = sample
    make_problem = wrap("simulate.make_problem", simulate.make_problem)
    simulate.make_problem = cli.make_problem = make_problem
    problem_cls = simulate.SyntheticProblem
    problem_cls.curve_for = wrap("simulate.curve_for", problem_cls.curve_for)
    for fn in ("metric_noise", "eval_opt_metric", "eval_constraint_metric"):
        setattr(simulate, fn, wrap(f"simulate.{fn}", getattr(simulate, fn)))
    run_experiment = wrap("simulate.run_experiment", simulate.run_experiment, after=record_run)
    simulate.run_experiment = cli.run_experiment = run_experiment
    scan = wrap("schedulers.scan", schedulers.post_hoc_feasibility_scan, after=count_scan)
    schedulers.post_hoc_feasibility_scan = simulate.post_hoc_feasibility_scan = scan

    base = schedulers.TrialScheduler
    base.step = wrap("schedulers.step", base.step, before=incumbent, after=count_gate)
    for cls, name in ((schedulers.AceScheduler, "ace"), (schedulers.AshaScheduler, "asha")):
        cls.decide = wrap(f"schedulers.{name}.decide", cls.decide, after=count_decision)
    schedulers.ace_gate = wrap("schedulers.gate", schedulers.ace_gate)
    choose = wrap("cost_model.choose_interval", cost_model.choose_interval)
    cost_model.choose_interval = schedulers.choose_interval = choose

    hist = history.RunningHistory
    hist.record_checkpoint = wrap("history.record_checkpoint", hist.record_checkpoint)
    hist.group_members = wrap("history.group_members", hist.group_members)

    cli.load_config = wrap("cli.load_config", cli.load_config)
    cli._write_csv = wrap("cli.emit", cli._write_csv, after=count_emit)
    return wrap("cli.main", cli.main)


def summarize(path: str) -> dict:
    """Per-name calls, inclusive and self seconds of one span file.

    Self time is a span's duration minus the durations of its direct
    children. Each run also gets its loop's per-iteration cost over the
    first and the last quarter of its checkpoints, from the start times of
    its ``schedulers.step`` spans.
    """
    with np.load(path) as data:
        name, parent = data["name"], data["parent"]
        duration = data["end"] - data["start"]
        start = data["start"]
        meta = json.loads(str(data["meta"]))
    names = meta["names"]
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(name)
    )
    self_time = duration - child_time
    width = len(names)
    calls = np.bincount(name, minlength=width)
    total = np.bincount(name, weights=duration, minlength=width)
    own = np.bincount(name, weights=self_time, minlength=width)

    run_spans = np.flatnonzero(name == names.index("simulate.run_experiment"))
    step_id = names.index("schedulers.step")
    runs = []
    for info, span in zip(meta["runs"], run_spans):
        steps = start[(parent == span) & (name == step_id)]
        quarter = len(steps) // 4
        early = late = 0.0
        if quarter >= 2:
            early = float(steps[quarter] - steps[0])
            late = float(steps[-1] - steps[-1 - quarter])
        runs.append(dict(info, seconds=float(duration[span]), early=early, late=late))
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "s": {n: float(total[i]) for i, n in enumerate(names)},
        "self_s": {n: float(own[i]) for i, n in enumerate(names)},
        "counters": meta["counters"],
        "runs": runs,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.npz <ace-hpo arguments>", file=sys.stderr)
        return 2
    store = SpanStore()
    traced_main = install(store)
    try:
        return traced_main(argv[1:])
    finally:
        store.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
