"""Synthetic constrained-tuning problems and a deterministic event-loop simulator.

Trials follow exponential-approach metric curves toward per-configuration
asymptotes; the constraint trajectory adds a sinusoidal term so feasibility
can cross the threshold more than once. All randomness is counter-based:
noise is keyed by (problem seed, trial id, iteration, metric tag), so every
metric value is a pure function of its position and runs replay exactly.

The simulator keeps a fixed number of trial slots busy, interleaving their
iterations by per-slot virtual time, while a single cost clock accumulates
every charged cost. The budget gates issuing new work on that clock; an
iteration already issued always completes. Constraint-evaluation cost never
consumes training iterations: a trial's iteration budget counts iterations,
the clock counts cost.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator

from .history import ConstraintSpec, CostLedger, RunningHistory, TrialSnapshot
from .schedulers import Action, TrialScheduler, post_hoc_feasibility_scan
from .search_space import Configuration, ParamKind, ParamSpec, SearchSpace, sample, unit_values
from .streams import grid_draws, seed_draws

__all__ = [
    "TrialCurve",
    "opt_curve_value",
    "constraint_curve_value",
    "metric_noise",
    "CostMeter",
    "eval_opt_metric",
    "eval_constraint_metric",
    "LandscapeTerm",
    "ProblemSpec",
    "SyntheticProblem",
    "problem_spec",
    "make_problem",
    "PRESET_NAMES",
    "RunResult",
    "run_experiment",
]

_OPT_TAG = 0
_CONSTRAINT_TAG = 1
# Above every |z| of numpy's ziggurat (Marsaglia and Tsang, J. Stat. Softw. 2000): its layers
# give |z| < r = 3.65415; its tail r - log1p(-u) / r, with u <= 1 - 2**-53, at most 13.7076.
_Z = 13.71
_OPT_FIELDS = "opt_base, opt_gain, opt_start, opt_start_gain and opt_noise"
_CONSTRAINT_FIELDS = ("constraint_base, constraint_gain, constraint_lift, osc_base, osc_gain"
                      " and constraint_noise")


@dataclass(slots=True)
class TrialCurve:
    """Metric trajectories and costs of one trial.

    Both metrics approach their limit exponentially from their start value;
    the constraint trajectory additionally oscillates with the given
    amplitude and period, which makes feasibility non-monotone whenever the
    amplitude exceeds the gap between the limit and the threshold.

    A plain record that checks nothing. Its one maker is :meth:`ProblemSpec.curve`,
    whose spec checks the curves it makes at both ends of each score's range, and its
    ``max_iterations`` is a sampled configuration's, which :func:`sample` keeps >= 1.
    """

    opt_limit: float
    opt_start: float
    opt_rate: float
    opt_noise: float
    constraint_limit: float
    constraint_start: float
    constraint_rate: float
    osc_amplitude: float
    osc_period: float
    constraint_noise: float
    primary_cost: float
    constraint_cost: float
    max_iterations: int


def opt_curve_value(curve: TrialCurve, t: float) -> float:
    """Noise-free optimization metric at iteration t (t=0 gives the start value)."""
    return curve.opt_limit + (curve.opt_start - curve.opt_limit) * math.exp(-curve.opt_rate * t)


def constraint_curve_value(curve: TrialCurve, t: float) -> float:
    """Noise-free constraint metric at iteration t, oscillation included."""
    level = curve.constraint_limit + (curve.constraint_start - curve.constraint_limit) * math.exp(
        -curve.constraint_rate * t
    )
    return level + curve.osc_amplitude * math.sin(2.0 * math.pi * t / curve.osc_period)


def _min_constraint_value(curve: TrialCurve) -> float:
    """The smallest noise-free constraint value over iterations 1..T: the best a
    trial trained to its end could ever read, which calibration ranks."""
    return min(constraint_curve_value(curve, t) for t in range(1, curve.max_iterations + 1))


# A noise tile holds `span` iterations from `first` (a power of two below
# _TILE_KEYS, else a multiple of it) for each of _TILE_KEYS // span trial ids.
_TILE_KEYS = 512


def metric_noise(problem_seed: int, trial_id: int, iteration: int, tag: int) -> float:
    """The standard normal an ``eval_*`` call takes, keyed by position alone: the first
    draw of ``PCG64(SeedSequence(problem_seed, spawn_key=(trial_id, iteration, tag)))``."""
    span = min(1 << max(iteration.bit_length() - 1, 0), _TILE_KEYS)
    width, first = _TILE_KEYS // span, iteration & -span
    offset = trial_id % width
    tile = grid_draws(problem_seed, trial_id - offset, width, first, span, (tag,))
    return tile.normal(offset * span + iteration - first)


@dataclass
class CostMeter:
    """Simulated clock advanced only by ledger charges, so time equals total cost.

    The clock reads the ledger's two kind-sums, making clock == total
    primary cost + total constraint cost an exact identity rather than a
    float-summation-order coincidence.
    """

    ledger: CostLedger

    @property
    def clock(self) -> float:
        return self.ledger.total_cost

    def charge_primary(self, cost: float) -> None:
        self.ledger.add_primary(cost)

    def charge_constraint(self, cost: float) -> None:
        self.ledger.add_constraint(cost)


def eval_opt_metric(curve: TrialCurve, t: int, normal: float, meter: CostMeter) -> float:
    """Observed optimization metric at t given its standard normal draw; charges its cost.
    ``t`` is not checked: the run loop and the scan pass only 1 <= t <= max_iterations."""
    meter.charge_primary(curve.primary_cost)
    return opt_curve_value(curve, t) + curve.opt_noise * normal


def eval_constraint_metric(curve: TrialCurve, t: int, normal: float, meter: CostMeter) -> float:
    """Observed constraint metric at t given its standard normal draw; charges its cost.
    ``t`` is not checked, as in :func:`eval_opt_metric`."""
    meter.charge_constraint(curve.constraint_cost)
    return constraint_curve_value(curve, t) + curve.constraint_noise * normal


@dataclass(frozen=True)
class LandscapeTerm:
    """One squared-distance pull toward a center on a parameter's [0, 1] scale."""

    param: str
    center: float
    weight: float


@dataclass(frozen=True)
class ProblemSpec:
    """Deterministic mapping from configurations to trial curves.

    Two Gaussian bump scores over the hyperparameters' unit values shape each
    trial: a quality score lowers the optimization-metric asymptote and a
    feasibility score lowers the constraint asymptote. Their centers differ
    on purpose, so the configurations with the best raw metric tend to sit
    where the constraint is hard to satisfy.
    """

    space: SearchSpace
    quality_terms: tuple[LandscapeTerm, ...]
    feasibility_terms: tuple[LandscapeTerm, ...]
    rate_param: str
    rate_low: float
    rate_high: float
    opt_base: float
    opt_gain: float
    opt_start: float
    opt_start_gain: float
    constraint_base: float
    constraint_gain: float
    constraint_lift: float
    constraint_rate_scale: float
    osc_base: float
    osc_gain: float
    osc_period: float
    opt_noise: float
    constraint_noise: float
    primary_cost: float
    constraint_cost: float
    feasible_fraction: float
    maximize: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.feasible_fraction < 1.0:
            raise ValueError("feasible_fraction must be in (0, 1)")
        if not 0.0 < self.rate_low < self.rate_high < math.inf:
            raise ValueError("rate bounds must satisfy 0 < rate_low < rate_high < inf")
        if not sum(self.log_rate) <= math.log(sys.float_info.max):
            raise ValueError("rate_high's fastest rate exp(log(rate_low) + log range) overflows")
        names = {p.name for p in self.space.params}
        if self.rate_param not in names:
            raise ValueError(f"rate_param {self.rate_param!r} is not in the space")
        for term in self.quality_terms + self.feasibility_terms:
            if term.param not in names:
                raise ValueError(f"landscape term references unknown parameter {term.param!r}")
        # The one check of every TrialCurve built from this spec, made on curves from its
        # own maker. A score exp(-sum(w * d**2)) has each d**2 in [0, max(|c|, |1 - c|)**2],
        # a bound that must be a float (else d**2 overflows), so it lies in [0, exp(peak)],
        # with peak the sum over negative weights, which must keep exp(peak) a float. Each
        # curve quantity is affine in its score and each rate least at u = 0, so the curves
        # at both ends of each score's range, at the slowest rate, bound them all. One rule
        # holds both metrics' observed values, curve + noise * z, to max float / 2, as rounding
        # between the ends and in start - limit can cross it. Every ledger charge is a curve's
        # cost, checked only here: the run loop ends when the clock reaches the budget, which a
        # NaN clock never does, nor one that training never moves.
        if not 0.0 < self.primary_cost < math.inf:
            raise ValueError("primary_cost must be positive and finite")
        if not 0.0 <= self.constraint_cost < math.inf:
            raise ValueError("constraint_cost must be nonnegative and finite")
        if not (self.opt_noise >= 0.0 and self.constraint_noise >= 0.0):
            raise ValueError("opt_noise and constraint_noise must be nonnegative")
        angle = 2.0 * math.pi * self.space.max_iterations
        if not (self.osc_period > 0.0 and math.isfinite(angle / self.osc_period)):
            raise ValueError("osc_period must be positive, with sin's angle 2π·T/osc_period finite")
        tops = []
        for field in ("quality_terms", "feasibility_terms"):
            peak = 0.0
            for t in getattr(self, field):
                reach = max(abs(t.center), abs(1.0 - t.center))
                square = reach * reach  # * overflows to inf, where ** raises OverflowError
                if not math.isfinite(square):
                    raise ValueError(f"{field}: center {t.center!r} has no float distance squared")
                if t.weight < 0.0:
                    peak -= t.weight * square
            if not peak < math.log(sys.float_info.max):
                raise ValueError(f"{field}: the score's peak exp({peak:.6g}) exceeds every float")
            tops.append(math.exp(peak))
        slowest = math.exp(self.log_rate[0])
        for quality, headroom in ((0.0, 0.0), tops):
            curve = self.curve(quality, headroom, slowest, self.space.max_iterations)
            if not curve.constraint_rate > 0.0:
                raise ValueError("constraint_rate_scale must keep every constraint rate above 0")
            if not curve.osc_amplitude >= 0.0:
                raise ValueError(
                    "osc_base and osc_gain give the oscillation a negative amplitude at"
                    f" headroom score {headroom:.6g}, which the feasibility_terms allow"
                )
            for fields, ends, swing, noise in (
                (_OPT_FIELDS, (curve.opt_limit, curve.opt_start), 0.0, curve.opt_noise),
                (_CONSTRAINT_FIELDS, (curve.constraint_limit, curve.constraint_start),
                 curve.osc_amplitude, curve.constraint_noise),
            ):  # all(), not max(): max(1.0, nan) is 1.0
                if not all(math.isfinite(2.0 * (abs(end) + swing + _Z * noise)) for end in ends):
                    raise ValueError(f"{fields} give an observed value beyond max float / 2")

    def curve(
        self, quality: float, headroom: float, rate: float, max_iterations: int
    ) -> TrialCurve:
        """The one maker of a :class:`TrialCurve`, from a trial's two scores, rate and budget."""
        constraint_limit = self.constraint_base - self.constraint_gain * headroom
        return TrialCurve(
            opt_limit=self.opt_base - self.opt_gain * quality,
            opt_start=self.opt_start - self.opt_start_gain * quality,
            opt_rate=rate,
            opt_noise=self.opt_noise,
            constraint_limit=constraint_limit,
            constraint_start=constraint_limit + self.constraint_lift,
            constraint_rate=rate * self.constraint_rate_scale,
            osc_amplitude=self.osc_base + self.osc_gain * (1.0 - headroom),
            osc_period=self.osc_period,
            constraint_noise=self.constraint_noise,
            primary_cost=self.primary_cost,
            constraint_cost=self.constraint_cost,
            max_iterations=max_iterations,
        )

    @cached_property
    def log_rate(self) -> tuple[float, float]:
        """``(log(rate_low), log(rate_high) - log(rate_low))``, taken once per spec."""
        low = math.log(self.rate_low)
        return low, math.log(self.rate_high) - low


class SyntheticProblem:
    """A problem spec bound to a seed, with a calibrated constraint threshold.

    The threshold is the feasible_fraction quantile, across a fixed probe
    sample of the space, of each probe's smallest noise-free constraint value
    over iterations 1..T, so roughly that fraction of configurations is
    ever-feasible. Every probe's T values are computed: a bound tested at
    each iteration to stop early costs about as much time as it saves.
    """

    PROBE_COUNT = 512
    _PROBE_SEED_OFFSET = 1_000_003

    def __init__(self, spec: ProblemSpec, problem_seed: int):
        self.spec = spec
        self.problem_seed = problem_seed
        self.constraint = ConstraintSpec(self._calibrated_threshold())

    def reported(self, internal: float) -> float:
        """Map an internally-minimized metric back to its reporting orientation."""
        return -internal if self.spec.maximize else internal

    @staticmethod
    def _score(terms: tuple[LandscapeTerm, ...], u: dict[str, float]) -> float:
        return math.exp(-sum(t.weight * (u[t.param] - t.center) ** 2 for t in terms))

    def curve_for(self, config: Configuration) -> TrialCurve:
        s = self.spec
        u = unit_values(s.space, config)
        low, width = s.log_rate
        rate = math.exp(low + u[s.rate_param] * width)
        quality, headroom = self._score(s.quality_terms, u), self._score(s.feasibility_terms, u)
        return s.curve(quality, headroom, rate, config.max_iterations)

    def _calibrated_threshold(self) -> float:
        import numpy as np  # here, not at the top: a config load does not import numpy

        probe_seed = self._PROBE_SEED_OFFSET + self.problem_seed
        minima = [
            _min_constraint_value(self.curve_for(sample(self.spec.space, probe_seed, i)))
            for i in range(self.PROBE_COUNT)
        ]
        return float(np.quantile(np.asarray(minima), self.spec.feasible_fraction))


def _preset(**own: object) -> ProblemSpec:
    """A ProblemSpec from the values both presets share plus a preset's ``own`` fields."""
    return ProblemSpec(
        rate_param="learning_rate",
        opt_gain=0.20,
        opt_start_gain=0.12,
        constraint_base=0.40,
        constraint_gain=0.25,
        constraint_lift=0.15,
        constraint_rate_scale=0.9,
        osc_period=7.0,
        opt_noise=0.004,
        constraint_noise=0.004,
        primary_cost=1.0,
        feasible_fraction=0.15,
        **own,  # type: ignore[arg-type]
    )


# The presets' specs, each built and checked once, at import.
_PRESETS: dict[str, ProblemSpec] = {
    "fairness-like": _preset(
        space=SearchSpace((
            ParamSpec("learning_rate", ParamKind.LOG_UNIFORM_REAL, 1e-4, 1e-1),
            ParamSpec("regularization", ParamKind.LOG_UNIFORM_REAL, 1e-5, 1e-1),
            ParamSpec("hidden_width", ParamKind.CHOICE, choices=(32, 64, 128, 256)),
            ParamSpec(
                "training_iterations", ParamKind.LOG_UNIFORM_INT, 64, 256, iteration_axis=True
            ),
        )),
        quality_terms=(
            LandscapeTerm("learning_rate", 0.55, 6.0),
            LandscapeTerm("regularization", 0.35, 2.5),
            LandscapeTerm("hidden_width", 0.80, 2.0),
        ),
        feasibility_terms=(
            LandscapeTerm("learning_rate", 0.35, 5.0),
            LandscapeTerm("regularization", 0.75, 5.0),
        ),
        rate_low=0.08,
        rate_high=0.60,
        opt_base=-0.70,
        opt_start=-0.50,
        osc_base=0.06,
        osc_gain=0.04,
        constraint_cost=1.94,
        maximize=True,
    ),
    "robustness-like": _preset(
        space=SearchSpace((
            ParamSpec("learning_rate", ParamKind.LOG_UNIFORM_REAL, 1e-4, 1e-1),
            ParamSpec("augmentation_strength", ParamKind.UNIFORM_REAL, 0.0, 1.0),
            ParamSpec("weight_decay", ParamKind.LOG_UNIFORM_REAL, 1e-6, 1e-2),
            ParamSpec(
                "training_iterations", ParamKind.LOG_UNIFORM_INT, 8, 256, iteration_axis=True
            ),
        )),
        quality_terms=(
            LandscapeTerm("learning_rate", 0.60, 5.0),
            LandscapeTerm("augmentation_strength", 0.35, 3.0),
        ),
        feasibility_terms=(
            LandscapeTerm("augmentation_strength", 0.75, 5.0),
            LandscapeTerm("weight_decay", 0.70, 4.0),
        ),
        rate_low=0.02,
        rate_high=0.30,
        opt_base=0.30,
        opt_start=0.90,
        osc_base=0.01,
        osc_gain=0.02,
        constraint_cost=23.98,
        maximize=False,
    ),
}
PRESET_NAMES = tuple(sorted(_PRESETS))


def problem_spec(preset: str, **overrides: object) -> ProblemSpec:
    """A preset's spec with any of its fields (the space included) overridden."""
    try:
        spec = _PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; expected one of {PRESET_NAMES}") from None
    return replace(spec, **overrides) if overrides else spec  # type: ignore[arg-type]


def make_problem(preset: str, problem_seed: int, **overrides: object) -> SyntheticProblem:
    """Build a preset problem (overrides as in :func:`problem_spec`) and calibrate it."""
    return SyntheticProblem(problem_spec(preset, **overrides), problem_seed)


STATUS_COMPLETED = "completed"
STATUS_STOPPED = "stopped"
STATUS_BUDGET_TRUNCATED = "budget_truncated"


@dataclass
class RunResult:
    """Everything one run produced; file emission happens in the CLI layer.

    Per-checkpoint data lives only in ``history.records``, one record per
    training-loop checkpoint followed by one per post-hoc scan evaluation
    (the only records without an action); per-trial data only in
    ``history.trials``, in trial-id order. Everything else is derived from
    those rows, the ledger and the incumbent; the budget is the caller's. The
    properties are the summary columns; any other fact is read from its
    home: cost totals by kind from ``history.ledger``, the internally
    minimized incumbent from ``history.best_feasible_score``.
    """

    problem: SyntheticProblem
    history: RunningHistory

    @property
    def time_to_best(self) -> float | None:
        return self.history.best_feasible_time

    def _count(self, predicate: Callable[[TrialSnapshot], bool]) -> int:
        return sum(1 for r in self.history.trials if predicate(r))

    @property
    def total_trials(self) -> int:
        return len(self.history.trials)

    @property
    def completed_trials(self) -> int:
        return self._count(lambda r: r.status == STATUS_COMPLETED)

    @property
    def stopped_trials(self) -> int:
        return self._count(lambda r: r.status == STATUS_STOPPED)

    @property
    def truncated_trials(self) -> int:
        return self._count(lambda r: r.status == STATUS_BUDGET_TRUNCATED)

    @property
    def interval_every_iteration(self) -> int:
        return self._count(lambda r: r.interval == 1 and r.max_iterations > 1)

    @property
    def interval_final_only(self) -> int:
        return self._count(lambda r: r.interval is not None and r.interval == r.max_iterations)

    @property
    def interval_unscheduled(self) -> int:
        return self._count(lambda r: r.interval is None)

    @property
    def feasible_found(self) -> bool:
        return math.isfinite(self.history.best_feasible_score)

    @property
    def best_feasible_score(self) -> float | None:
        if not self.feasible_found:
            return None
        return self.problem.reported(self.history.best_feasible_score)

    @property
    def total_cost(self) -> float:
        return self.history.ledger.total_cost

    @property
    def primary_iterations(self) -> int:
        return self.history.ledger.primary_cost_count

    @property
    def constraint_evaluations(self) -> int:
        return self.history.ledger.constraint_cost_count


@dataclass
class _Slot:
    """One concurrent worker: its virtual time and the trial it is running.

    ``trial_id`` is None while the slot is idle; ``curve`` and ``iteration``
    (iterations done so far) describe the running trial and are meaningful
    only while ``trial_id`` is set.
    """

    virtual_time: float = 0.0
    trial_id: int | None = None
    curve: TrialCurve | None = None
    iteration: int = 0


def _scan_normals(problem_seed: int, candidates: list[tuple[int, int, float]]) -> Iterator[float]:
    """Each candidate's constraint-noise draw, _TILE_KEYS at a time as the scan reaches
    them (best-first order hits noise tiles at random). One draw per evaluation is exact:
    :func:`post_hoc_feasibility_scan` evaluates each candidate once, in candidate order."""
    for start in range(0, len(candidates), _TILE_KEYS):
        chunk = candidates[start : start + _TILE_KEYS]
        draws = seed_draws(problem_seed, [(t_id, t, _CONSTRAINT_TAG) for t_id, t, _ in chunk])
        yield from map(draws.normal, range(len(chunk)))


def run_experiment(
    problem: SyntheticProblem,
    scheduler_factory: Callable[[RunningHistory], TrialScheduler],
    budget: float,
    max_concurrent: int,
    seed: int,
) -> RunResult:
    """Run one tuning experiment under a simulated cost budget.

    New work (a trial or a single iteration) is issued only while the clock
    is strictly below the budget; an issued iteration always completes, and
    a trial caught mid-flight when the budget runs out is recorded as
    truncated. Candidate configurations come from the seed-keyed sample
    sequence in issue order, so the set of started configurations is a
    prefix of that sequence regardless of concurrency.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    if max_concurrent < 1:
        raise ValueError("max_concurrent must be >= 1")

    history = RunningHistory(problem.constraint)
    scheduler = scheduler_factory(history)
    meter = CostMeter(history.ledger)
    problem_seed = problem.problem_seed
    curves: dict[int, TrialCurve] = {}

    def start_trial(slot: _Slot) -> None:
        trial_id = len(curves)
        config = sample(problem.spec.space, seed, trial_id)
        slot.curve = curves[trial_id] = problem.curve_for(config)
        slot.trial_id, slot.iteration = trial_id, 0
        scheduler.on_trial_start(trial_id, config.max_iterations)

    def finish_trial(slot: _Slot, status: str) -> None:
        history.trial_snapshot(slot.trial_id).status = status
        slot.trial_id = None

    # A slot that has never run is at time 0, ahead of every busy slot (primary_cost > 0),
    # so each of the first max_concurrent turns taken while budget is left makes one.
    heap: list[tuple[float, int, _Slot]] = []
    seq = 0
    while True:
        if seq < max_concurrent and meter.clock < budget:
            slot = _Slot()
        elif heap:
            _, _, slot = heapq.heappop(heap)
        else:
            break
        if meter.clock >= budget:
            if slot.trial_id is not None:
                finish_trial(slot, STATUS_BUDGET_TRUNCATED)
            continue
        if slot.trial_id is None:
            start_trial(slot)
        slot.iteration += 1
        trial_id, t, curve = slot.trial_id, slot.iteration, slot.curve

        opt = eval_opt_metric(curve, t, metric_noise(problem_seed, trial_id, t, _OPT_TAG), meter)
        slot.virtual_time += curve.primary_cost

        def evaluate(trial_id=trial_id, t=t, curve=curve, slot=slot) -> float:
            slot.virtual_time += curve.constraint_cost
            normal = metric_noise(problem_seed, trial_id, t, _CONSTRAINT_TAG)
            return eval_constraint_metric(curve, t, normal, meter)

        record = scheduler.step(trial_id, t, curve.max_iterations, opt, evaluate)
        if t >= curve.max_iterations:
            finish_trial(slot, STATUS_COMPLETED)
        elif record.action is Action.STOP:
            finish_trial(slot, STATUS_STOPPED)
        heapq.heappush(heap, (slot.virtual_time, seq, slot))
        seq += 1

    if not scheduler.performs_constraint_evaluations:
        ranked = sorted(history.trials, key=lambda r: (r.best_opt, r.trial_id))
        candidates = [
            (r.trial_id, r.best_iteration, r.best_opt) for r in ranked if r.best_iteration >= 1
        ]

        normals = _scan_normals(problem_seed, candidates)

        def scan_eval(trial_id: int, iteration: int) -> float:
            return eval_constraint_metric(curves[trial_id], iteration, next(normals), meter)

        post_hoc_feasibility_scan(history, candidates, scan_eval)

    return RunResult(problem, history)
