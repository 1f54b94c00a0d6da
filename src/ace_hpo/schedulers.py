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
:class:`~ace_hpo.history.RunningHistory` and attaches its decision to that
checkpoint's entry; the simulator performs the actual metered metric
evaluations and charges their costs. A trial's constraint-evaluation
interval is whatever ``on_trial_start`` returns (None: no schedule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .cost_model import choose_interval
from .history import CheckpointRecord, ConstraintSpec, Group, RunningHistory

__all__ = [
    "Action",
    "SchedulerDecision",
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


class Action(str, Enum):
    CONTINUE = "continue"
    STOP = "stop"


class StoppingMode(str, Enum):
    STRATUM = "stratum"
    HARD = "hard"


class IntervalMode(str, Enum):
    ADAPTIVE = "adaptive"
    FIXED_1 = "fixed_1"
    FIXED_T = "fixed_t"


@dataclass(frozen=True)
class SchedulerDecision:
    """Outcome of one checkpoint step; rank fields feed the decision trace."""

    action: Action
    evaluate_constraint: bool
    group: Group | None = None
    rank: int | None = None
    group_size: int | None = None


@dataclass(frozen=True)
class AceConfig:
    truncation_percentage: float = 0.25
    low_overhead_gate: bool = True
    stopping_mode: StoppingMode = StoppingMode.STRATUM
    interval_mode: IntervalMode = IntervalMode.ADAPTIVE

    def __post_init__(self) -> None:
        if not 0.0 < self.truncation_percentage < 1.0:
            raise ValueError("truncation_percentage must be in (0, 1)")


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
    cost). As a bootstrap, a trial's final iteration always evaluates while
    the ledger holds no constraint-cost sample yet, so the empirical cost
    ratio can be estimated at all.
    """
    if at_final_iteration and history.ledger.constraint_cost_count == 0:
        return True
    if not at_interval_boundary:
        return False
    return not gate_enabled or opt_metric <= history.best_feasible_score


def _stratum_rank(history: RunningHistory, trial_id: int, group: Group) -> tuple[int, int]:
    """Rank-from-worst of a trial inside its group and the group size.

    Invalid trials order ascending by (latest violation, best optimization
    metric); the other groups by best optimization metric alone. Ties break
    by trial id. Rank 1 is the worst member.
    """
    snap = history.trial_snapshot(trial_id)
    if snap is None or snap.group is not group:
        raise ValueError("trial has no current record in the queried group")
    members = history.group_members(group)
    if group is Group.INVALID:
        keys = sorted((m.latest_violation, m.best_opt, m.trial_id) for m in members)
        position = keys.index((snap.latest_violation, snap.best_opt, snap.trial_id))
    else:
        keys = sorted((m.best_opt, m.trial_id) for m in members)
        position = keys.index((snap.best_opt, snap.trial_id))
    return len(keys) - position, len(keys)


def stratum_should_stop(
    config: AceConfig, history: RunningHistory, trial_id: int, group: Group
) -> Action:
    """Stop the trial iff it sits in the bottom floor(P * n) of its n-trial group."""
    rank_from_worst, size = _stratum_rank(history, trial_id, group)
    if rank_from_worst <= math.floor(config.truncation_percentage * size):
        return Action.STOP
    return Action.CONTINUE


class TrialScheduler:
    """Base scheduler: records every checkpoint, never evaluates, never stops."""

    performs_constraint_evaluations = False

    def __init__(self, history: RunningHistory):
        self.history = history

    @property
    def constraint(self) -> ConstraintSpec:
        return self.history.constraint

    def on_trial_start(self, trial_id: int, max_iterations: int) -> int | None:
        """Start a trial; return its constraint-evaluation interval, if any."""
        return None

    def wants_constraint(
        self, trial_id: int, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        return False

    def decide(
        self, trial_id: int, iteration: int, max_iterations: int, record: CheckpointRecord
    ) -> tuple[Action, int | None, int | None]:
        return Action.CONTINUE, None, None

    def step(
        self,
        trial_id: int,
        iteration: int,
        max_iterations: int,
        opt_metric: float,
        evaluate: Callable[[], float],
    ) -> SchedulerDecision:
        """One checkpoint: maybe evaluate the constraint, record, then rule.

        ``evaluate`` performs (and charges) the constraint evaluation at the
        current iteration; it is called at most once. A trial reaching its
        final iteration completes regardless of the stopping rule. The
        decision is attached to the checkpoint's history entry.
        """
        want = self.wants_constraint(trial_id, iteration, max_iterations, opt_metric)
        value = evaluate() if want else None
        record = self.constraint.classify(trial_id, iteration, opt_metric, value)
        entry = self.history.record_checkpoint(record)
        action, rank, size = self.decide(trial_id, iteration, max_iterations, record)
        if iteration >= max_iterations:
            action = Action.CONTINUE
        entry.decision = SchedulerDecision(action, want, record.group, rank, size)
        return entry.decision


class AceScheduler(TrialScheduler):
    """Adaptive constraint-aware early stopping."""

    performs_constraint_evaluations = True

    def __init__(self, config: AceConfig, history: RunningHistory):
        super().__init__(history)
        self.config = config
        self.interval_choices: dict[int, int] = {}

    def on_trial_start(self, trial_id: int, max_iterations: int) -> int:
        """Fix the trial's constraint-evaluation interval for its lifetime.

        Adaptive mode applies the endpoint rule to the ledger's empirical
        cost ratio with the truncation percentage standing in for the
        per-check stop probability; with no ratio yet (no constraint has
        ever been evaluated) it defaults to a single final check.
        """
        mode = self.config.interval_mode
        if mode is IntervalMode.FIXED_1:
            interval = 1
        elif mode is IntervalMode.FIXED_T:
            interval = max_iterations
        else:
            ratio = self.history.ledger.cost_ratio()
            if ratio is None:
                interval = max_iterations
            else:
                interval = choose_interval(
                    ratio, self.config.truncation_percentage, max_iterations
                )
        self.interval_choices[trial_id] = interval
        return interval

    def wants_constraint(
        self, trial_id: int, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        interval = self.interval_choices[trial_id]
        return ace_gate(
            opt_metric,
            self.history,
            at_interval_boundary=iteration % interval == 0,
            gate_enabled=self.config.low_overhead_gate,
            at_final_iteration=iteration >= max_iterations,
        )

    def decide(
        self, trial_id: int, iteration: int, max_iterations: int, record: CheckpointRecord
    ) -> tuple[Action, int | None, int | None]:
        if self.config.stopping_mode is StoppingMode.HARD:
            action = Action.STOP if record.group is Group.INVALID else Action.CONTINUE
            return action, None, None
        rank, size = _stratum_rank(self.history, trial_id, record.group)
        threshold = math.floor(self.config.truncation_percentage * size)
        action = Action.STOP if rank <= threshold else Action.CONTINUE
        return action, rank, size


@dataclass(frozen=True)
class AshaConfig:
    max_time_units: int
    reduction_factor: int = 4
    grace_period: int = 1
    stratum_mode: bool = False
    constraint_interval_fixed: bool = True

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
    In stratum mode the rung test applies within the trial's constraint
    group instead of the whole rung population.
    """

    def __init__(self, config: AshaConfig, history: RunningHistory):
        super().__init__(history)
        self.config = config
        self._rung_set = set(config.rungs)
        self._rung_entries: dict[tuple, list[tuple]] = {}
        self._rung_promotions: dict[tuple, int] = {}
        self._final_only: dict[int, bool] = {}

    @property
    def performs_constraint_evaluations(self) -> bool:  # type: ignore[override]
        return self.config.stratum_mode

    def on_trial_start(self, trial_id: int, max_iterations: int) -> int | None:
        """In adaptive stratum mode, T for a single final check, else 1.

        The endpoint rule maps onto the two schedules this scheduler has:
        evaluate at every rung (reported as interval 1), or once at the
        final iteration. The per-check stop fraction of a halving rung is
        1 - 1/eta. Other modes have no interval schedule.
        """
        if not self.config.stratum_mode or self.config.constraint_interval_fixed:
            return None
        ratio = self.history.ledger.cost_ratio()
        if ratio is None:
            final_only = True
        else:
            stop_fraction = 1.0 - 1.0 / self.config.reduction_factor
            final_only = (
                choose_interval(ratio, stop_fraction, max_iterations) == max_iterations
            )
        self._final_only[trial_id] = final_only
        return max_iterations if final_only else 1

    def wants_constraint(
        self, trial_id: int, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        if not self.config.stratum_mode:
            return False
        if iteration >= max_iterations and self.history.ledger.constraint_cost_count == 0:
            return True
        if self._final_only.get(trial_id, False):
            return iteration >= max_iterations
        return iteration in self._rung_set

    def decide(
        self, trial_id: int, iteration: int, max_iterations: int, record: CheckpointRecord
    ) -> tuple[Action, int | None, int | None]:
        if iteration not in self._rung_set:
            return Action.CONTINUE, None, None
        if self.config.stratum_mode:
            key: tuple = (iteration, record.group)
            if record.group is Group.INVALID:
                entry: tuple = (record.violation_amount, record.opt_metric, trial_id)
            else:
                entry = (record.opt_metric, trial_id)
        else:
            key = (iteration,)
            entry = (record.opt_metric, trial_id)
        entries = self._rung_entries.setdefault(key, [])
        entries.append(entry)
        entries.sort()
        rank = entries.index(entry) + 1
        size = len(entries)
        cap = -(-size // self.config.reduction_factor)
        promoted = self._rung_promotions.get(key, 0)
        if rank <= cap and promoted < cap:
            self._rung_promotions[key] = promoted + 1
            return Action.CONTINUE, rank, size
        return Action.STOP, rank, size


class NoStoppingScheduler(TrialScheduler):
    """Runs every trial to its full iteration budget."""


class ConstraintCallback(TrialScheduler):
    """Wraps a constraint-agnostic scheduler with a final-iteration check.

    The wrapped run certifies each completing trial's feasibility at its
    last training iteration; stopping decisions stay with the inner
    scheduler.
    """

    performs_constraint_evaluations = True

    def __init__(self, inner: TrialScheduler):
        super().__init__(inner.history)
        self.inner = inner

    def on_trial_start(self, trial_id: int, max_iterations: int) -> int | None:
        return self.inner.on_trial_start(trial_id, max_iterations)

    def wants_constraint(
        self, trial_id: int, iteration: int, max_iterations: int, opt_metric: float
    ) -> bool:
        return iteration >= max_iterations or self.inner.wants_constraint(
            trial_id, iteration, max_iterations, opt_metric
        )

    def decide(
        self, trial_id: int, iteration: int, max_iterations: int, record: CheckpointRecord
    ) -> tuple[Action, int | None, int | None]:
        return self.inner.decide(trial_id, iteration, max_iterations, record)


@dataclass(frozen=True)
class ScanResult:
    feasible_trial_id: int | None
    feasible_opt_metric: float | None
    evaluations: int
    extra_cost: float


def post_hoc_feasibility_scan(
    history: RunningHistory,
    candidates: list[tuple[int, int, float]],
    evaluate: Callable[[int, int], tuple[float, float]],
) -> ScanResult:
    """Certify a constraint-agnostic run's results after the budget is spent.

    ``candidates`` are (trial_id, best iteration, best optimization metric)
    tuples already sorted best-first. The constraint is evaluated at each
    candidate's best checkpoint, best candidate first, until one proves
    feasible; every evaluation is recorded into the history and its cost
    accumulated. ``evaluate`` returns (constraint value, charged cost).
    """
    total_cost = 0.0
    evaluations = 0
    for trial_id, iteration, opt_metric in candidates:
        value, cost = evaluate(trial_id, iteration)
        total_cost += cost
        evaluations += 1
        record = history.constraint.classify(trial_id, iteration, opt_metric, value)
        history.record_checkpoint(record)
        if record.group is Group.VALID:
            return ScanResult(trial_id, opt_metric, evaluations, total_cost)
    return ScanResult(None, None, evaluations, total_cost)
