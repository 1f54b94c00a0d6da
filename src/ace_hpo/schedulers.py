"""Trial schedulers: constraint-aware early stopping and its baselines.

The adaptive constraint-aware scheduler combines three mechanisms:

* an expected-cost-optimal constraint-evaluation interval per trial (every
  iteration or once at the end, from the cost-model threshold on the
  empirical cost ratio);
* a low-overhead gate that skips a scheduled constraint evaluation when the
  trial's current optimization metric is already worse than the best
  feasible one seen;
* stratum truncation, which ranks each trial only against trials in the
  same constraint group (no-constraint / valid / invalid) and stops the
  bottom fraction of its group.

Baselines: asynchronous successive halving (promotion on arrival), a
no-stopping scheduler, a constraint-callback wrapper that certifies
feasibility at each trial's final iteration, and a post-hoc feasibility
scan for fully constraint-agnostic runs.

Every scheduler records one checkpoint per training iteration into a shared
:class:`~ace_hpo.history.RunningHistory` and writes its action and rank onto
that checkpoint's record; the simulator performs the actual metered metric
evaluations and charges their costs. A scheduler is three hooks:

* ``interval_for(max_iterations)``: a starting trial's constraint-evaluation
  interval (None: no schedule), fixed on its history row by ``on_trial_start``;
* ``wants_constraint(row, iteration, max_iterations, opt_metric)``, with ``row``
  the trial's history row (None if never started): whether ``step`` evaluates
  the constraint at this checkpoint;
* ``decide(record, row)``: the action, rank-from-worst and group size of the
  checkpoint's record, already in the history.

Each stopping rule owns its ranking state (ACE its stratum index, ASHA its
rung pools); the history keeps the rows the rules rank, not their order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .cost_model import choose_interval
from .history import Action, CheckpointRecord, Group, RunningHistory, TrialSnapshot

__all__ = [
    "Action",
    "StoppingMode",
    "IntervalMode",
    "AceConfig",
    "AceScheduler",
    "AshaConfig",
    "AshaScheduler",
    "NoStoppingScheduler",
    "ConstraintCallback",
    "TrialScheduler",
    "ace_gate",
    "stratum_should_stop",
    "ScanResult",
    "post_hoc_feasibility_scan",
]


_Decision = tuple[Action, int | None, int | None]


class StoppingMode(str, Enum):
    STRATUM = "stratum"
    HARD = "hard"


class IntervalMode(str, Enum):
    ADAPTIVE = "adaptive"
    FIXED_1 = "fixed_1"
    FIXED_T = "fixed_t"


@dataclass(frozen=True)
class AceConfig:
    truncation_percentage: float = 0.25
    low_overhead_gate: bool = True
    stopping_mode: StoppingMode = StoppingMode.STRATUM
    interval_mode: IntervalMode = IntervalMode.ADAPTIVE

    def __post_init__(self) -> None:
        if not 0.0 < self.truncation_percentage < 1.0:
            raise ValueError(
                f"truncation_percentage must be in (0, 1), got {self.truncation_percentage!r}"
            )


def ace_gate(
    opt_metric: float,
    history: RunningHistory,
    at_interval_boundary: bool,
    gate_enabled: bool,
    at_final_iteration: bool = False,
) -> bool:
    """Decide whether to spend a constraint evaluation at this checkpoint.

    True at interval boundaries, unless the gate is on and the current
    optimization metric is worse than the best feasible score so far (such
    a checkpoint cannot improve the incumbent, so certifying it is wasted
    cost). A bootstrap evaluation always happens at a final iteration while
    the ledger holds no constraint sample, so the cost ratio can be estimated.
    """
    if at_final_iteration and history.ledger.constraint_cost_count == 0:
        return True
    if not at_interval_boundary:
        return False
    return not gate_enabled or opt_metric <= history.best_feasible_score


def _row_key(row: TrialSnapshot) -> tuple:
    """Ascending ranking key of a row inside its constraint group, best first.

    Invalid trials order by (latest violation, best optimization metric);
    the other groups by best optimization metric alone. Ties break by trial id.
    """
    if row.group is Group.INVALID:
        return (row.latest_violation, row.best_opt, row.trial_id)
    return (row.best_opt, row.trial_id)


class _StratumIndex:
    """Each constraint group's sorted row keys, and the group and key each placed
    row holds there, so a rank costs a bisect, not a scan of the group."""

    def __init__(self, rows: Iterable[TrialSnapshot]):
        self._keys: dict[Group, list[tuple]] = {group: [] for group in Group}
        self._held: dict[int, tuple[Group, tuple]] = {}
        for row in rows:
            if row.group is not None:
                self.place(row)

    def place(self, row: TrialSnapshot) -> None:
        """Move the row's held key to its current group and key; only this method writes keys."""
        held, placed = self._held.get(row.trial_id), (row.group, _row_key(row))
        if held == placed:
            return
        if held is not None:
            keys = self._keys[held[0]]
            del keys[bisect_left(keys, held[1])]
        insort(self._keys[row.group], placed[1])
        self._held[row.trial_id] = placed

    def decide(self, trial_id: int, fraction: float) -> tuple[Action, int, int]:
        """Stop a placed trial iff it sits in the bottom floor(fraction * n) of its
        n-trial group; return the action, its rank-from-worst (1 is the worst) and n."""
        group, key = self._held[trial_id]
        size = len(self._keys[group])
        rank = size - bisect_left(self._keys[group], key)
        stop = rank <= fraction * size  # an integer is <= x iff it is <= floor(x)
        return Action.STOP if stop else Action.CONTINUE, rank, size


def stratum_should_stop(
    config: AceConfig, history: RunningHistory, trial_id: int, group: Group
) -> Action:
    """The stratum rule's action for a trial, ranked against its group's current members."""
    row = history.trial_snapshot(trial_id)
    if row is None or row.group is not group:
        raise ValueError("trial has no current record in the queried group")
    index = _StratumIndex(history.group_members(group))
    return index.decide(trial_id, config.truncation_percentage)[0]


class TrialScheduler:
    """Base scheduler: records every checkpoint, never evaluates, never stops."""

    performs_constraint_evaluations = False

    def __init__(self, history: RunningHistory):
        self.history = history

    def on_trial_start(self, trial_id: int, max_iterations: int) -> TrialSnapshot:
        return self.history.start_trial(trial_id, max_iterations, self.interval_for(max_iterations))

    def interval_for(self, max_iterations: int) -> int | None:
        return None

    def wants_constraint(
        self, row: TrialSnapshot | None, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        return False

    def decide(self, record: CheckpointRecord, row: TrialSnapshot | None) -> _Decision:
        return Action.CONTINUE, None, None

    def step(
        self,
        trial_id: int,
        iteration: int,
        max_iterations: int,
        opt_metric: float,
        evaluate: Callable[[], float],
        row: TrialSnapshot | None = None,
    ) -> CheckpointRecord:
        """One checkpoint: maybe evaluate the constraint, record, then rule.

        ``evaluate`` performs (and charges) the constraint evaluation at the
        current iteration; it is called at most once; ``row``, the trial's row,
        is looked up if not given. A trial reaching its final iteration completes
        regardless of the stopping rule. The action and rank are written onto
        the checkpoint's record in the history, which is returned.
        """
        if row is None:
            row = self.history.trial_snapshot(trial_id)
        want = self.wants_constraint(row, iteration, max_iterations, opt_metric)
        value = evaluate() if want else None
        record = self.history.constraint.classify(trial_id, iteration, opt_metric, value)
        self.history.record_checkpoint(record)
        action, record.rank, record.group_size = self.decide(record, row)
        record.action = Action.CONTINUE if iteration >= max_iterations else action
        return record


class AceScheduler(TrialScheduler):
    """Adaptive constraint-aware early stopping."""

    performs_constraint_evaluations = True

    def __init__(self, config: AceConfig, history: RunningHistory):
        super().__init__(history)
        self.config = config
        self._index = _StratumIndex(history.trials)

    def interval_for(self, max_iterations: int) -> int:
        """Fix a starting trial's constraint-evaluation interval for its lifetime.

        Adaptive mode applies the endpoint rule to the ledger's empirical
        cost ratio with the truncation percentage standing in for the
        per-check stop probability; with no ratio yet (no constraint has
        ever been evaluated) it defaults to a single final check.
        """
        mode = self.config.interval_mode
        if mode is IntervalMode.FIXED_1:
            return 1
        ratio = self.history.ledger.cost_ratio()
        if mode is IntervalMode.FIXED_T or ratio is None:
            return max_iterations
        return choose_interval(ratio, self.config.truncation_percentage, max_iterations)

    def wants_constraint(
        self, row: TrialSnapshot | None, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        return ace_gate(
            opt_metric,
            self.history,
            at_interval_boundary=iteration % row.interval == 0,
            gate_enabled=self.config.low_overhead_gate,
            at_final_iteration=iteration >= max_iterations,
        )

    def decide(self, record: CheckpointRecord, row: TrialSnapshot | None) -> _Decision:
        if self.config.stopping_mode is StoppingMode.HARD:
            action = Action.STOP if record.group is Group.INVALID else Action.CONTINUE
            return action, None, None
        self._index.place(row)
        return self._index.decide(record.trial_id, self.config.truncation_percentage)


@dataclass(frozen=True)
class AshaConfig:
    max_time_units: int
    reduction_factor: int = 4
    grace_period: int = 1

    def __post_init__(self) -> None:
        if self.reduction_factor < 2:
            raise ValueError("reduction_factor must be >= 2")
        if self.grace_period < 1:
            raise ValueError("grace_period must be >= 1")
        if self.max_time_units < self.grace_period:
            raise ValueError("max_time_units must be >= grace_period")

    @property
    def rungs(self) -> tuple[int, ...]:
        out = []
        level = self.grace_period
        while level <= self.max_time_units:
            out.append(level)
            level *= self.reduction_factor
        return tuple(out)


class AshaScheduler(TrialScheduler):
    """Asynchronous successive halving with promotion on arrival.

    A trial reaching a rung is promoted iff it ranks within the top 1/eta
    of the results recorded at that rung so far, with promotions capped at
    ceil(m/eta) per rung (ties admitted up to the cap, broken by trial id).
    A NaN metric ranks as +inf, behind every number. Each rung keeps its
    results sorted, so an arrival's rank is its bisect position. The
    scheduler never evaluates the constraint.
    """

    def __init__(self, config: AshaConfig, history: RunningHistory):
        super().__init__(history)
        self.config = config
        self._rung_entries: dict[int, list[tuple[float, int]]] = {r: [] for r in config.rungs}
        self._rung_promotions = dict.fromkeys(config.rungs, 0)

    def decide(self, record: CheckpointRecord, row: TrialSnapshot | None) -> _Decision:
        entries = self._rung_entries.get(record.iteration)
        if entries is None:
            return Action.CONTINUE, None, None
        opt = record.opt_metric
        entry = (math.inf if opt != opt else opt, record.trial_id)
        position = bisect_left(entries, entry)
        entries.insert(position, entry)
        rank = position + 1
        size = len(entries)
        cap = -(-size // self.config.reduction_factor)
        promoted = self._rung_promotions[record.iteration]
        if rank <= cap and promoted < cap:
            self._rung_promotions[record.iteration] = promoted + 1
            return Action.CONTINUE, rank, size
        return Action.STOP, rank, size


class NoStoppingScheduler(TrialScheduler):
    """Runs every trial to its full iteration budget."""


class ConstraintCallback(TrialScheduler):
    """Wraps a constraint-agnostic scheduler with a final-iteration check.

    The wrapped run certifies each completing trial's feasibility at its
    last training iteration, and at no other; stopping decisions stay with
    the inner scheduler. Wrapping a scheduler that evaluates the constraint
    itself raises ValueError, since its evaluations would be lost.
    """

    performs_constraint_evaluations = True

    def __init__(self, inner: TrialScheduler):
        if inner.performs_constraint_evaluations:
            raise ValueError(
                "ConstraintCallback wraps a constraint-agnostic scheduler, "
                f"not {type(inner).__name__}"
            )
        super().__init__(inner.history)
        self.inner = inner

    def wants_constraint(
        self, row: TrialSnapshot | None, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        return iteration >= max_iterations

    def decide(self, record: CheckpointRecord, row: TrialSnapshot | None) -> _Decision:
        return self.inner.decide(record, row)


@dataclass(frozen=True)
class ScanResult:
    evaluations: int


def post_hoc_feasibility_scan(
    history: RunningHistory,
    candidates: Iterable[tuple[int, int, float]],
    evaluate: Callable[[int, int], float],
) -> ScanResult:
    """Certify a constraint-agnostic run's results after the budget is spent.

    ``candidates`` are (trial_id, best iteration, best optimization metric)
    tuples already sorted best-first. The constraint is evaluated at each
    candidate's best checkpoint, best candidate first, until one proves
    feasible; every evaluation is recorded into the history. ``evaluate``
    performs (and charges) one evaluation and returns the constraint value.

    Returns the number of evaluations; the history carries the rest. The
    scan's records are the last ``evaluations`` of ``history.records``. A
    feasible candidate is the last of them, VALID, and moves the incumbent
    like any valid record.
    """
    evaluations = 0
    for trial_id, iteration, opt_metric in candidates:
        value = evaluate(trial_id, iteration)
        evaluations += 1
        record = history.constraint.classify(trial_id, iteration, opt_metric, value)
        history.record_checkpoint(record)
        if record.group is Group.VALID:
            break
    return ScanResult(evaluations)
