"""Running tuning history: checkpoint records, trial rows, incumbent, cost ledger.

Every checkpoint of every trial lands here exactly once, as one record of
``RunningHistory.records``: the observation tagged with its constraint group
(``no_constraint`` when the constraint was not evaluated, else ``valid`` or
``invalid`` against an upper-bound threshold), stamped with the ledger's
total cost when it landed and, for checkpoints of the training loop, with
the scheduler's action and rank. Every trial owns one row of
``RunningHistory.trials``, kept current as its records land. The trace,
decision and trial files are projections of these two lists. The history
also tracks the best feasible optimization metric seen so far and the cost
clock when it was set (metrics are minimized internally), and a ledger of
charged costs from which the empirical constraint-to-training cost ratio is
estimated.

The history stratifies but does not rank: a row's group is the group of its
latest record, and ranking state belongs to the stopping rule that ranks
(see :mod:`ace_hpo.schedulers`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Group",
    "Action",
    "ConstraintSpec",
    "CheckpointRecord",
    "CostLedger",
    "TrialSnapshot",
    "RunningHistory",
]


class Group(str, Enum):
    NO_CONSTRAINT = "no_constraint"
    VALID = "valid"
    INVALID = "invalid"


class Action(str, Enum):
    CONTINUE = "continue"
    STOP = "stop"


@dataclass(frozen=True)
class ConstraintSpec:
    """Upper-bound constraint: a checkpoint is feasible iff value <= threshold.

    A non-finite value (NaN or either infinity) is never feasible and
    violates the constraint by +inf.
    """

    threshold: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold):
            raise ValueError("constraint threshold must be finite")

    def classify(
        self, trial_id: int, iteration: int, opt_metric: float, constraint_value: float | None
    ) -> "CheckpointRecord":
        """Build a consistent record from an observation (None = not evaluated). A finite
        value violates by ``value - threshold``, which is <= 0 iff ``value <= threshold``:
        the difference of two distinct floats never rounds to 0."""
        if constraint_value is None:
            return CheckpointRecord(trial_id, iteration, opt_metric, None, Group.NO_CONSTRAINT)
        finite = math.isfinite(constraint_value)
        violation = constraint_value - self.threshold if finite else math.inf
        if violation <= 0.0:
            return CheckpointRecord(trial_id, iteration, opt_metric, constraint_value, Group.VALID)
        return CheckpointRecord(
            trial_id, iteration, opt_metric, constraint_value, Group.INVALID, violation
        )


@dataclass(slots=True)
class CheckpointRecord:
    """One checkpoint of a run.

    The first six fields are the observation. ``sim_time`` is the cost clock
    when the history recorded it (None until then); ``action`` is the
    scheduler's action, with the trial's rank-from-worst and group size
    behind it (``action`` stays None for post-hoc scan evaluations; the rank
    fields stay None when the rule ranked nothing). A plain record that checks
    nothing: :meth:`ConstraintSpec.classify`, its only maker, makes it consistent.
    """

    trial_id: int
    iteration: int
    opt_metric: float
    constraint_value: float | None
    group: Group
    violation_amount: float | None = None
    sim_time: float | None = None
    action: Action | None = None
    rank: int | None = None
    group_size: int | None = None

    @property
    def evaluate_constraint(self) -> bool:
        return self.constraint_value is not None


@dataclass
class CostLedger:
    """Accumulated charges, split by kind, with sample counts for averaging. Unchecked: each
    charge is a curve's cost, which its ``ProblemSpec`` admits only finite, >= 0 (primary > 0)."""

    total_primary_cost: float = 0.0
    primary_cost_count: int = 0
    total_constraint_cost: float = 0.0
    constraint_cost_count: int = 0

    def add_primary(self, cost: float) -> None:
        self.total_primary_cost += cost
        self.primary_cost_count += 1

    def add_constraint(self, cost: float) -> None:
        self.total_constraint_cost += cost
        self.constraint_cost_count += 1

    @property
    def total_cost(self) -> float:
        """Every charge so far; the simulated clock reads exactly this sum."""
        return self.total_primary_cost + self.total_constraint_cost

    def cost_ratio(self) -> float | None:
        """Average constraint cost over average training-iteration cost.

        None until at least one sample of each kind has been charged.
        """
        if self.primary_cost_count == 0 or self.constraint_cost_count == 0:
            return None
        mean_primary = self.total_primary_cost / self.primary_cost_count
        mean_constraint = self.total_constraint_cost / self.constraint_cost_count
        return mean_constraint / mean_primary


@dataclass(slots=True)
class TrialSnapshot:
    """The one row of a trial, kept current as its records land.

    ``max_iterations`` and ``interval`` are fixed at start (None for a trial
    recorded without being started; ``interval`` None means no evaluation
    schedule). A trial sits in the group of its most recent checkpoint (None
    before its first); it ranks by its best-so-far optimization metric and,
    when invalid, by the violation from its latest constraint evaluation.
    ``best_iteration`` is the first iteration reaching ``best_opt`` (0 while
    no checkpoint has beaten +inf). ``status`` is set when the trial ends.
    """

    trial_id: int
    max_iterations: int | None = None
    interval: int | None = None
    group: Group | None = None
    best_opt: float = math.inf
    best_iteration: int = 0
    latest_violation: float | None = None
    status: str | None = None


class RunningHistory:
    """Single-writer record store shared by the simulator and the scheduler."""

    def __init__(self, constraint: ConstraintSpec):
        self.constraint = constraint
        self.records: list[CheckpointRecord] = []
        self.best_feasible_score: float = math.inf
        self.best_feasible_time: float | None = None
        self.ledger = CostLedger()
        self._trials: dict[int, TrialSnapshot] = {}

    @property
    def trials(self) -> list[TrialSnapshot]:
        """Every trial row, in the order the trials were first seen."""
        return list(self._trials.values())

    def start_trial(self, trial_id: int, max_iterations: int, interval: int | None) -> None:
        """Create the trial's row with the facts fixed for its lifetime. Not checked:
        the run loop starts each trial once, before its first record."""
        self._trials[trial_id] = TrialSnapshot(trial_id, max_iterations, interval)

    def record_checkpoint(self, record: CheckpointRecord) -> CheckpointRecord:
        """Stamp the record's ``sim_time``, append it, update the incumbent and
        the trial's row; return the record.

        The record must come fresh from ``self.constraint.classify``; it is not checked.
        A record of a trial never started gets a fresh row.
        Only a strictly lower metric moves a best, so ties keep the earlier
        one and NaN never wins.
        """
        record.sim_time = self.ledger.total_cost
        self.records.append(record)
        if record.group is Group.VALID and record.opt_metric < self.best_feasible_score:
            self.best_feasible_score = record.opt_metric
            self.best_feasible_time = record.sim_time
        row = self._trials.get(record.trial_id)
        if row is None:
            row = self._trials[record.trial_id] = TrialSnapshot(record.trial_id)
        row.group = record.group
        if record.opt_metric < row.best_opt:
            row.best_opt = record.opt_metric
            row.best_iteration = record.iteration
        if record.group is Group.INVALID:
            row.latest_violation = record.violation_amount
        return record

    def group_members(self, group: Group) -> list[TrialSnapshot]:
        """Trials whose most recent checkpoint sits in the given group."""
        return [s for s in self._trials.values() if s.group is group]

    def trial_snapshot(self, trial_id: int) -> TrialSnapshot | None:
        return self._trials.get(trial_id)
