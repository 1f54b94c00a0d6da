import cProfile
import math
import pstats
import random
import statistics
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ace_hpo import search_space, streams
from ace_hpo.cost_model import CostParams, expected_cost_exact
from ace_hpo.history import ConstraintSpec, CostLedger, Group, RunningHistory
from ace_hpo.schedulers import (
    AceConfig,
    AceScheduler,
    Action,
    AshaConfig,
    AshaScheduler,
    ConstraintCallback,
    NoStoppingScheduler,
    TrialScheduler,
)
from ace_hpo.search_space import (
    Configuration,
    ParamKind,
    ParamSpec,
    SearchSpace,
    sample,
    unit_values,
)
from ace_hpo.simulate import (
    PRESET_NAMES,
    CostMeter,
    LandscapeTerm,
    ProblemSpec,
    SyntheticProblem,
    TrialCurve,
    constraint_curve_value,
    eval_constraint_metric,
    eval_opt_metric,
    make_problem,
    metric_noise,
    opt_curve_value,
    problem_spec,
    run_experiment,
)


def flat_curve(**kwargs):
    base = dict(
        opt_limit=0.0,
        opt_start=1.0,
        opt_rate=math.log(2.0),
        opt_noise=0.0,
        constraint_limit=0.2,
        constraint_start=0.2,
        constraint_rate=0.5,
        osc_amplitude=0.0,
        osc_period=7.0,
        constraint_noise=0.0,
        primary_cost=1.0,
        constraint_cost=0.5,
        max_iterations=16,
    )
    base.update(kwargs)
    return TrialCurve(**base)


class TestCurves:
    def test_opt_halving_point(self):
        # limit 0, start 1, rate ln2: value at t=1 is exp(-ln 2) = 0.5 exactly.
        assert opt_curve_value(flat_curve(), 1) == pytest.approx(0.5, abs=1e-15)

    def test_opt_start_and_asymptote(self):
        curve = flat_curve()
        assert opt_curve_value(curve, 0) == pytest.approx(1.0, abs=1e-15)
        assert opt_curve_value(curve, 200) == pytest.approx(0.0, abs=1e-12)

    def test_constraint_asymptote_without_oscillation(self):
        curve = flat_curve(constraint_start=0.9, constraint_limit=0.3)
        assert constraint_curve_value(curve, 500) == pytest.approx(0.3, abs=1e-12)

    def test_oscillation_makes_feasibility_non_monotone(self):
        # Flat level 0.2 with amplitude 0.1 swings across a 0.25 threshold.
        curve = flat_curve(osc_amplitude=0.1)
        tau = 0.25
        feasible = [constraint_curve_value(curve, t) <= tau for t in range(1, 15)]
        flips = sum(1 for a, b in zip(feasible, feasible[1:]) if a != b)
        assert flips >= 2


class TestNoise:
    def test_keyed_reproducibility(self):
        assert metric_noise(7, 3, 5, 0) == metric_noise(7, 3, 5, 0)

    def test_distinct_positions_differ(self):
        draws = {
            metric_noise(7, 3, 5, 0),
            metric_noise(7, 3, 5, 1),
            metric_noise(7, 3, 6, 0),
            metric_noise(7, 4, 5, 0),
            metric_noise(8, 3, 5, 0),
        }
        assert len(draws) == 5


class TestMeteredEvaluation:
    def test_charges_once_per_call(self):
        meter = CostMeter(CostLedger())
        curve = flat_curve()
        eval_opt_metric(curve, 3, 0.0, meter)
        assert meter.ledger.primary_cost_count == 1
        assert meter.clock == pytest.approx(1.0)
        eval_constraint_metric(curve, 3, 0.0, meter)
        assert meter.ledger.constraint_cost_count == 1
        assert meter.clock == pytest.approx(1.5)

    def test_noisy_value_matches_components(self):
        meter = CostMeter(CostLedger())
        curve = flat_curve(opt_noise=0.01, constraint_noise=0.02)
        opt = eval_opt_metric(curve, 4, -1.5, meter)
        assert opt == opt_curve_value(curve, 4) + 0.01 * -1.5
        value = eval_constraint_metric(curve, 4, 0.75, meter)
        assert value == constraint_curve_value(curve, 4) + 0.02 * 0.75


def fixed_length_problem(constraint_cost=0.5, iterations=4):
    """Every trial runs exactly `iterations` iterations at unit primary cost."""
    space = SearchSpace(
        (
            ParamSpec("x", ParamKind.UNIFORM_REAL, 0.0, 1.0),
            ParamSpec("steps", ParamKind.CHOICE, choices=(iterations,), iteration_axis=True),
        )
    )
    spec = ProblemSpec(
        space=space,
        quality_terms=(LandscapeTerm("x", 0.5, 2.0),),
        feasibility_terms=(LandscapeTerm("x", 0.8, 2.0),),
        rate_param="x",
        rate_low=0.1,
        rate_high=0.5,
        opt_base=0.5,
        opt_gain=0.2,
        opt_start=0.9,
        opt_start_gain=0.0,
        constraint_base=0.3,
        constraint_gain=0.25,
        constraint_lift=0.1,
        constraint_rate_scale=1.0,
        osc_base=0.0,
        osc_gain=0.0,
        osc_period=7.0,
        opt_noise=0.0,
        constraint_noise=0.0,
        primary_cost=1.0,
        constraint_cost=constraint_cost,
        feasible_fraction=0.5,
        maximize=False,
    )
    return SyntheticProblem(spec, problem_seed=0)


class TestRunExperiment:
    def test_budget_of_three_trials_runs_three_trials(self):
        problem = fixed_length_problem()
        result = run_experiment(problem, NoStoppingScheduler, budget=12.0, max_concurrent=1, seed=5)
        assert result.total_trials == 3
        assert result.completed_trials == 3
        assert result.truncated_trials == 0
        assert result.primary_iterations == 12

    def test_cost_conservation_exact(self):
        problem = make_problem("fairness-like", problem_seed=1)
        result = run_experiment(
            problem,
            lambda h: AceScheduler(AceConfig(), h),
            budget=300.0,
            max_concurrent=4,
            seed=1,
        )
        ledger = result.history.ledger
        assert result.total_cost == ledger.total_primary_cost + ledger.total_constraint_cost

    def test_reruns_are_identical(self):
        problem = make_problem("fairness-like", problem_seed=3)

        def once():
            return run_experiment(
                problem,
                lambda h: AceScheduler(AceConfig(), h),
                budget=250.0,
                max_concurrent=4,
                seed=3,
            )

        a, b = once(), once()
        assert a.history.records == b.history.records
        assert a.history.trials == b.history.trials
        assert a.best_feasible_score == b.best_feasible_score
        assert a.time_to_best == b.time_to_best
        assert a.total_cost == b.total_cost

    def test_candidates_are_seed_prefix_for_any_concurrency(self):
        problem = fixed_length_problem()
        results = [
            run_experiment(problem, NoStoppingScheduler, budget=40.0, max_concurrent=m, seed=9)
            for m in (1, 3)
        ]
        for result in results:
            for row in result.history.trials:
                config = sample(problem.spec.space, 9, row.trial_id)
                assert row.max_iterations == config.max_iterations

    def test_idle_slots_are_never_made(self):
        # Budget 50 at unit primary cost gives work to 50 slots; 200,000 must cost no more.
        problem = make_problem("fairness-like", problem_seed=0)
        tracemalloc.start()
        try:
            wide = run_experiment(
                problem, NoStoppingScheduler, budget=50.0, max_concurrent=200_000, seed=0
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        narrow = run_experiment(problem, NoStoppingScheduler, 50.0, max_concurrent=50, seed=0)
        assert wide.history.records == narrow.history.records

    def test_mid_trial_budget_exhaustion_truncates(self):
        problem = fixed_length_problem(iterations=8)
        result = run_experiment(problem, NoStoppingScheduler, budget=12.0, max_concurrent=1, seed=2)
        assert result.total_trials == 2
        assert result.completed_trials == 1
        assert result.truncated_trials == 1
        truncated = [r for r in result.history.trials if r.status == "budget_truncated"]
        assert truncated[0].max_iterations == 8

    def test_gate_reduces_constraint_evaluations(self):
        problem = make_problem("fairness-like", problem_seed=4)

        def run(gate):
            return run_experiment(
                problem,
                lambda h: AceScheduler(AceConfig(low_overhead_gate=gate), h),
                budget=400.0,
                max_concurrent=4,
                seed=4,
            )

        assert run(True).constraint_evaluations <= run(False).constraint_evaluations

    def test_scan_runs_only_for_constraint_agnostic_schedulers(self):
        problem = make_problem("fairness-like", problem_seed=6)
        agnostic = run_experiment(
            problem, NoStoppingScheduler, budget=300.0, max_concurrent=2, seed=6
        )
        aware = run_experiment(
            problem,
            lambda h: ConstraintCallback(NoStoppingScheduler(h)),
            budget=300.0,
            max_concurrent=2,
            seed=6,
        )
        # Only post-hoc scan records have no action.
        assert any(r.action is None for r in agnostic.history.records)
        assert all(r.action is not None for r in aware.history.records)

    def test_scan_certification_time_exceeds_budget(self):
        problem = make_problem("fairness-like", problem_seed=2)
        result = run_experiment(
            problem, NoStoppingScheduler, budget=1500.0, max_concurrent=2, seed=2
        )
        assert result.feasible_found
        assert result.time_to_best is not None
        assert result.time_to_best >= 1500.0
        scan = [r for r in result.history.records if r.action is None]
        assert result.constraint_evaluations == len(scan)

    def test_one_record_per_checkpoint(self):
        history = RunningHistory(ConstraintSpec(0.25))
        sched = AceScheduler(AceConfig(), history)
        sched.on_trial_start(0, 4)
        history.ledger.add_primary(1.0)
        record = sched.step(0, 1, 4, 0.5, lambda: 0.1)
        assert record is history.records[-1]
        assert (record.sim_time, record.action) == (1.0, Action.CONTINUE)
        assert not hasattr(record, "__dict__")
        assert len(history.records) == 1

        problem = make_problem("fairness-like", problem_seed=2)
        result = run_experiment(
            problem, NoStoppingScheduler, budget=1500.0, max_concurrent=2, seed=2
        )
        n_loop = result.primary_iterations
        loop, scan = result.history.records[:n_loop], result.history.records[n_loop:]
        assert scan and all(r.action is not None for r in loop)
        assert all(r.action is None and r.evaluate_constraint for r in scan)
        assert all(r.sim_time > 1500.0 for r in scan)

    @pytest.mark.parametrize("method", ["ace", "asha", "no-stopping"])
    def test_run_evaluates_only_iterations_in_range_and_records_each_once(
        self, method, monkeypatch
    ):
        # eval_*, record_checkpoint and start_trial check none of these facts: the run
        # loop and the post-hoc scan are what keep 1 <= t <= max_iterations, one record
        # per call and one start per trial, made before the trial has a row.
        import ace_hpo.simulate as simulate

        seen, started = Counter(), []
        start_trial = RunningHistory.start_trial

        def start_once(history, trial_id, max_iterations, interval):
            assert history.trial_snapshot(trial_id) is None
            started.append(trial_id)
            return start_trial(history, trial_id, max_iterations, interval)

        def in_range(name, evaluate):
            def checked(curve, t, normal, meter):
                assert 1 <= t <= curve.max_iterations
                seen[name] += 1
                return evaluate(curve, t, normal, meter)

            return checked

        monkeypatch.setattr(simulate, "eval_opt_metric", in_range("opt", eval_opt_metric))
        monkeypatch.setattr(
            simulate, "eval_constraint_metric", in_range("constraint", eval_constraint_metric)
        )
        monkeypatch.setattr(RunningHistory, "start_trial", start_once)
        problem = make_problem("fairness-like", problem_seed=0)
        factory = {
            "ace": lambda h: AceScheduler(AceConfig(), h),
            "asha": lambda h: AshaScheduler(
                AshaConfig(max_time_units=problem.spec.space.max_iterations), h
            ),
            "no-stopping": NoStoppingScheduler,
        }[method]
        result = run_experiment(problem, factory, budget=1500.0, max_concurrent=3, seed=0)
        records = result.history.records
        assert len({id(r) for r in records}) == len(records)
        assert seen["opt"] == result.primary_iterations > 0
        assert seen["constraint"] == result.constraint_evaluations > 0
        assert started == list(range(result.total_trials))

    def test_reported_score_is_unnegated_for_maximize(self):
        problem = make_problem("fairness-like", problem_seed=0)
        result = run_experiment(
            problem,
            lambda h: AceScheduler(AceConfig(), h),
            budget=2000.0,
            max_concurrent=4,
            seed=0,
        )
        assert result.feasible_found
        assert result.best_feasible_score == pytest.approx(-result.history.best_feasible_score)
        assert result.best_feasible_score > 0.4

    def test_interval_tally_matches_trial_rows(self):
        problem = make_problem("fairness-like", problem_seed=7)
        result = run_experiment(
            problem,
            lambda h: AceScheduler(AceConfig(), h),
            budget=400.0,
            max_concurrent=4,
            seed=7,
        )
        rows = result.history.trials
        every = sum(1 for r in rows if r.interval == 1 and r.max_iterations > 1)
        final = sum(1 for r in rows if r.interval is not None and r.interval == r.max_iterations)
        assert result.interval_every_iteration == every
        assert result.interval_final_only == final
        assert every + final == result.total_trials

    def test_asha_arm_runs_and_reaches_rungs(self):
        problem = make_problem("fairness-like", problem_seed=8)
        result = run_experiment(
            problem,
            lambda h: AshaScheduler(AshaConfig(max_time_units=64), h),
            budget=300.0,
            max_concurrent=4,
            seed=8,
        )
        assert result.total_trials > 0
        assert any(r.action is None for r in result.history.records)
        ranked = [r for r in result.history.records if r.rank is not None]
        assert ranked
        assert all(r.iteration in (1, 4, 16, 64) for r in ranked)

    def test_stratum_ranking_never_scans_group_members(self, monkeypatch):
        def scan(history, group):
            raise AssertionError("stratum ranking scanned every member of a group")

        monkeypatch.setattr(RunningHistory, "group_members", scan)
        problem = make_problem("fairness-like", problem_seed=8)
        result = run_experiment(
            problem, lambda h: AceScheduler(AceConfig(), h), budget=300.0, max_concurrent=4, seed=8
        )
        assert any(e.rank is not None for e in result.history.records)

    @pytest.mark.parametrize("kind", ["ace", "asha", "asha_callback", "no_stopping"])
    @pytest.mark.parametrize(
        "make, budget, max_concurrent",
        [
            (lambda: fixed_length_problem(iterations=1), 300.0, 4),
            (lambda: make_problem("fairness-like", 0, constraint_cost=0.0), 300.0, 4),
            (lambda: make_problem("fairness-like", 0), 0.5, 4),
            (lambda: make_problem("fairness-like", 0), 300.0, 500),
        ],
        ids=["one_iteration", "free_constraint", "budget_below_one_iteration", "500_slots"],
    )
    def test_degenerate_inputs_complete_consistently(self, make, budget, max_concurrent, kind):
        problem = make()
        asha = AshaConfig(max_time_units=problem.spec.space.max_iterations)
        factory = {
            "ace": lambda h: AceScheduler(AceConfig(), h),
            "asha": lambda h: AshaScheduler(asha, h),
            "asha_callback": lambda h: ConstraintCallback(AshaScheduler(asha, h)),
            "no_stopping": NoStoppingScheduler,
        }[kind]
        result = run_experiment(problem, factory, budget, max_concurrent, seed=0)
        assert result.total_trials == (
            result.completed_trials + result.stopped_trials + result.truncated_trials
        )
        ledger, records = result.history.ledger, result.history.records
        assert result.total_cost == ledger.total_primary_cost + ledger.total_constraint_cost
        assert records[-1].sim_time == result.total_cost
        scan_evaluations = sum(1 for r in records if r.action is None)
        assert len(records) == result.primary_iterations + scan_evaluations

    def test_invalid_arguments(self):
        problem = fixed_length_problem()
        with pytest.raises(ValueError):
            run_experiment(problem, NoStoppingScheduler, budget=0.0, max_concurrent=1, seed=0)
        with pytest.raises(ValueError):
            run_experiment(problem, NoStoppingScheduler, budget=10.0, max_concurrent=0, seed=0)


def run_shape(kind, budget):
    """Python calls per simulated iteration, as cProfile counts them, and derivations of
    draw batches (``streams._draws`` calls) of one fairness-like run at seed 0 on 4 slots,
    begun with the draw cache cleared. Counts pin the shape of a run's cost, not its time."""
    problem = make_problem("fairness-like", 0)
    factory = {
        "ace": lambda h: AceScheduler(AceConfig(), h),
        "asha": lambda h: AshaScheduler(AshaConfig(problem.spec.space.max_iterations), h),
    }[kind]
    streams.grid_draws.cache_clear()
    search_space._last_block = (None, None)  # sample's memo of its last block
    profile = cProfile.Profile()
    result = profile.runcall(run_experiment, problem, factory, budget, 4, 0)
    stats = pstats.Stats(profile)
    draws = sum(v[1] for (_, _, name), v in stats.stats.items() if name == "_draws")
    return stats.total_calls / result.primary_iterations, draws


class TestRunShape:
    """Deterministic counts that pin how much indirection and derivation a run pays."""

    @pytest.mark.parametrize("kind, ceiling", [("ace", 30), ("asha", 40)])
    def test_python_calls_per_iteration(self, kind, ceiling):
        calls, _ = run_shape(kind, 12_000.0)
        assert calls <= ceiling

    def test_asha_derives_few_draw_batches(self):
        _, draws = run_shape("asha", 24_000.0)
        assert draws <= 400


class CoinScheduler(TrialScheduler):
    """The trial the cost model prices: the constraint is checked every ``interval``
    iterations and at the last, and a check stops the trial with probability ``p``,
    by a coin keyed on (trial id, iteration)."""

    performs_constraint_evaluations = True

    def __init__(self, history: RunningHistory, interval: int, p: float):
        super().__init__(history)
        self.interval, self.p = interval, p

    def interval_for(self, max_iterations):
        return self.interval

    def wants_constraint(self, row, iteration, max_iterations, opt_metric):
        return iteration % self.interval == 0 or iteration >= max_iterations

    def decide(self, record, row):
        key = record.trial_id << 32 | record.iteration
        if record.evaluate_constraint and random.Random(key).random() < self.p:
            return Action.STOP, None, None
        return Action.CONTINUE, None, None


class TestModelConformance:
    """The simulator charges a trial what the cost model expects it to cost."""

    # T = 16, p = 0.25 and c1 = 0.5 keep every cost a dyadic rational, so sums are exact.
    @pytest.mark.parametrize(
        "interval, budget",
        [(1, 10_000.0), (16, 2_000.0), (4, 10_000.0), (7, 20_000.0), (10, 20_000.0)],
        ids=["every_iteration", "final_only", "divides_t", "partial_window_7", "partial_window_10"],
    )
    def test_mean_trial_cost_matches_expected_cost(self, interval, budget):
        t, p, c1 = 16, 0.25, 0.5
        problem = fixed_length_problem(constraint_cost=c1, iterations=t)
        result = run_experiment(
            problem, lambda h: CoinScheduler(h, interval, p), budget, max_concurrent=1, seed=0
        )
        costs = Counter()
        for record in result.history.records:
            costs[record.trial_id] += 1.0 + (c1 if record.evaluate_constraint else 0.0)
        assert math.fsum(costs.values()) == result.total_cost
        done = [costs[r.trial_id] for r in result.history.trials if r.status != "budget_truncated"]
        if interval == t:
            assert set(done) == {t + c1}
        mean = statistics.fmean(done)
        standard_error = statistics.stdev(done) / math.sqrt(len(done))
        expected = expected_cost_exact(CostParams(1.0, c1, p, t, interval))
        assert abs(mean - expected) <= 4 * standard_error


# A feasibility term whose headroom score exp(5000 * 0.65**2) overflows.
_OVERFLOWING = (LandscapeTerm("learning_rate", 0.35, -5000.0),)
_MAX = sys.float_info.max
_OPT_FIELDS = ("opt_base", "opt_gain", "opt_start", "opt_start_gain")
_CONSTRAINT_FIELDS = ("constraint_base", "constraint_gain", "constraint_lift")
_PARAMS = st.sampled_from(["learning_rate", "regularization"])
# The largest |z| numpy's ziggurat returns: its tail r - log1p(-u) / r at u = 1 - 2**-53.
_R = 3.6541528853610088
_LARGEST_NORMAL = _R + 53 * math.log(2) / _R
_TERMS = st.lists(st.tuples(_PARAMS, st.floats(-0.5, 1.5), st.floats(0.0, 1e4)), max_size=3)


def _near(bound):
    """Magnitudes within a factor of two of a bound, on both sides of it."""
    return st.floats(bound / 2, min(2 * bound, _MAX))


def _signed(magnitudes):
    return st.tuples(magnitudes, st.sampled_from((-1.0, 1.0))).map(lambda m: m[0] * m[1])


@st.composite
def _accepted_or_near_a_bound(draw):
    """fairness-like overrides from ranges the spec accepts, except that one bound the
    spec enforces (or none) takes values within a factor of two of it, on either side."""
    spec = {
        "quality_terms": draw(_TERMS),
        "feasibility_terms": draw(_TERMS),
        **{name: draw(st.floats(-1.0, 1.0)) for name in _OPT_FIELDS + _CONSTRAINT_FIELDS},
        # osc_base + osc_gain * (1 - headroom) >= 0 for every headroom in [0, 1].
        "osc_base": draw(st.floats(0.2, 0.4)),
        "osc_gain": draw(st.floats(-0.2, 0.2)),
        "osc_period": draw(st.floats(0.5, 14.0)),
        "rate_low": draw(st.floats(1e-3, 1.0)),
        "rate_high": draw(st.floats(2.0, 10.0)),
        "constraint_rate_scale": draw(st.floats(0.1, 10.0)),
        "primary_cost": draw(st.floats(1e-3, 30.0)),
        "constraint_cost": draw(st.floats(0.0, 30.0)),
        "opt_noise": draw(st.floats(0.0, 1.0)),
        "constraint_noise": draw(st.floats(0.0, 1.0)),
    }
    bound = draw(st.sampled_from((
        None, "center", "peak", "amplitude", "opt", "constraint", "period", "rate", "cost", "noise"
    )))
    scores = draw(st.sampled_from(("quality_terms", "feasibility_terms")))
    center = draw(st.floats(0.0, 1.0))
    reach = max(center, 1.0 - center)
    if bound == "center":  # (u - c)**2 overflows past |c| = sqrt(max float)
        term = (draw(_PARAMS), draw(_signed(_near(math.sqrt(_MAX)))), draw(st.floats(0.0, 1e4)))
        spec[scores] = (*spec[scores], term)
    elif bound == "peak":  # exp(peak) overflows past peak = log(max float)
        term = (draw(_PARAMS), center, -draw(_near(math.log(_MAX))) / reach**2)
        spec[scores] = (*spec[scores], term)
    elif bound == "amplitude":  # osc_base + osc_gain * (1 - top) is 0 at top - 1 = base / gain
        spec["osc_gain"] = draw(st.floats(0.01, 0.2))
        top = 1.0 + draw(_near(spec["osc_base"] / spec["osc_gain"]))
        term = (draw(_PARAMS), center, -math.log(top) / reach**2)
        spec["feasibility_terms"] = (*spec["feasibility_terms"], term)
    elif bound == "opt":  # a curve's limit or start passes max float / 2
        for name in _OPT_FIELDS:
            spec[name] = draw(_signed(_near(_MAX / 2)))
    elif bound == "constraint":  # each field near max float / 2 or not: about half pass it
        for name in _CONSTRAINT_FIELDS:
            spec[name] = draw(st.one_of(st.floats(-1.0, 1.0), _signed(_near(_MAX / 2))))
        spec["osc_base"] = draw(st.one_of(st.floats(0.2, 0.4), _near(_MAX / 2)))
    elif bound == "period":  # sin's angle 2π·T/osc_period overflows; T is 256
        spec["osc_period"] = draw(_near(2.0 * math.pi * 256 / _MAX))
    elif bound == "rate":  # the slowest constraint rate underflows, the fastest rate overflows
        spec["rate_low"] = draw(st.floats(1e-300, 1e-10))
        spec["constraint_rate_scale"] = draw(_near(5e-324)) / spec["rate_low"]  # 0, 5e-324, 1e-323
        spec["rate_high"] = draw(_near(_MAX / 2))
    elif bound == "cost":  # the largest and the smallest positive costs
        for name in ("primary_cost", "constraint_cost"):
            spec[name] = draw(st.one_of(_near(_MAX / 2), st.floats(5e-324, 1e-300)))
    elif bound == "noise":  # curve + noise * z passes max float / 2 at noise = max / (2 * |z|),
        # and a rule that left out |z| would accept noise up to max float / 2
        largest = _MAX / (2 * _LARGEST_NORMAL)
        for name in ("opt_noise", "constraint_noise"):
            spec[name] = draw(st.one_of(
                st.floats(0.0, 1.0), _near(largest), st.floats(largest, _MAX / 2)
            ))
    spec["quality_terms"], spec["feasibility_terms"] = (
        tuple(LandscapeTerm(*term) for term in spec[name])
        for name in ("quality_terms", "feasibility_terms")
    )
    return spec


class TestProblems:
    def test_preset_names(self):
        with pytest.raises(ValueError):
            make_problem("unknown-preset", 0)
        assert make_problem("fairness-like", 0).spec.maximize
        assert not make_problem("robustness-like", 0).spec.maximize

    @staticmethod
    def feasible_share(preset, seed):
        """Share of the calibration probes whose curve ever meets the threshold."""
        problem = make_problem(preset, problem_seed=seed)
        probe_seed = SyntheticProblem._PROBE_SEED_OFFSET + seed
        feasible = 0
        for i in range(SyntheticProblem.PROBE_COUNT):
            config = sample(problem.spec.space, probe_seed, i)
            curve = problem.curve_for(config)
            best = min(constraint_curve_value(curve, t) for t in range(1, curve.max_iterations + 1))
            if best <= problem.constraint.threshold:
                feasible += 1
        return feasible / SyntheticProblem.PROBE_COUNT

    @settings(max_examples=300, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-20.0, 20.0), st.floats(-0.5, 1.5), st.floats(0.0, 1.0)),
            max_size=6,
        ),
        quality=st.dictionaries(
            st.sampled_from(["learning_rate", "regularization", "hidden_width"]),
            st.floats(0.0, 1.0),
        ),
    )
    def test_score_adds_its_terms_left_to_right(self, terms, quality):
        # From Python 3.12, sum() of floats is compensated, so a score by sum() would move
        # curve bytes with the Python version.
        def left_to_right(terms, u):
            total = 0.0
            for t in terms:
                total = total + t.weight * (u[t.param] - t.center) ** 2
            return math.exp(-total)

        landscape = tuple(LandscapeTerm(f"p{i}", c, w) for i, (w, c, _) in enumerate(terms))
        u = {f"p{i}": x for i, (_, _, x) in enumerate(terms)}
        assert SyntheticProblem._score(landscape, u) == left_to_right(landscape, u)
        fairness = problem_spec("fairness-like").quality_terms
        u = {"learning_rate": 0.3, "regularization": 0.6, "hidden_width": 1.0, **quality}
        assert SyntheticProblem._score(fairness, u) == left_to_right(fairness, u)

    def test_calibration_hits_feasible_fraction(self):
        assert abs(self.feasible_share("fairness-like", 0) - 0.15) <= 0.03

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_every_preset_calibrates_at_other_seeds(self, preset, seed):
        assert abs(self.feasible_share(preset, seed) - 0.15) <= 0.03

    @pytest.mark.parametrize("preset, ratio", [("fairness-like", 1.94), ("robustness-like", 23.98)])
    def test_every_curve_takes_the_spec_costs(self, preset, ratio):
        # So a run's constraint-to-primary cost ratio is the spec's own.
        problem = make_problem(preset, problem_seed=0)
        assert problem.spec.constraint_cost / problem.spec.primary_cost == ratio
        for config in (sample(problem.spec.space, 5, i) for i in range(20)):
            curve = problem.curve_for(config)
            assert curve.primary_cost == problem.spec.primary_cost
            assert curve.constraint_cost == problem.spec.constraint_cost

    def test_curves_deterministic_per_config(self):
        problem = make_problem("robustness-like", problem_seed=1)
        config = sample(problem.spec.space, 0, 0)
        assert problem.curve_for(config) == problem.curve_for(config)

    def test_normalized_values_in_unit_box(self):
        problem = make_problem("robustness-like", problem_seed=1)
        for config in (sample(problem.spec.space, 3, i) for i in range(20)):
            for value in unit_values(problem.spec.space, config).values():
                assert 0.0 <= value <= 1.0

    def test_override_replaces_fields(self):
        problem = make_problem("fairness-like", 0, constraint_cost=3.0, feasible_fraction=0.3)
        assert problem.spec.constraint_cost == 3.0
        assert problem.spec.feasible_fraction == 0.3

    def test_invalid_spec_fields(self):
        base = make_problem("fairness-like", 0).spec
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(base, feasible_fraction=0.0)
        with pytest.raises(ValueError):
            replace(base, rate_param="nope")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("constraint_cost", math.nan),
            ("constraint_cost", math.inf),
            ("constraint_cost", -1.0),
            ("constraint_cost", -math.inf),
            ("primary_cost", 0.0),
            ("primary_cost", math.inf),
            ("primary_cost", math.nan),
            ("primary_cost", -1.0),
            ("primary_cost", -math.inf),
            ("primary_cost", -0.0),
            ("opt_noise", -0.1),
            ("constraint_noise", math.nan),
            ("osc_period", 0.0),
            ("constraint_rate_scale", 0.0),
            # The slowest constraint rate exp(log(rate_low)) * constraint_rate_scale underflows.
            (
                "constraint_rate_scale",
                {"rate_low": 1e-300, "rate_high": 1e-299, "constraint_rate_scale": 1e-300},
            ),
            # log(rate_high) - log(rate_low) is inf, and u = 0 times it is NaN.
            ("rate_high", math.inf),
            ("rate_low", {"rate_low": 0.1, "rate_high": 0.1}),
            # log(rate_low) + the log range rounds past log(max float): the last choice's
            # rate, at u = 1, overflows exp().
            (
                "rate_high",
                {"rate_param": "hidden_width", "rate_low": 1.0891837371143e-155, "rate_high": _MAX},
            ),
            ("osc_base", -1.0),
            ("osc_gain", -1.0),
            # A negative weight lifts the headroom score above 1.
            ("feasibility_terms", (LandscapeTerm("learning_rate", 0.35, -5.0),)),
            # A score whose peak exp() overflows builds no curve, whatever the gains.
            ("quality_terms", (LandscapeTerm("learning_rate", 0.5, -3000.0),)),
            ("feasibility_terms", {"feasibility_terms": _OVERFLOWING, "osc_gain": 0.0}),
            ("feasibility_terms", {"feasibility_terms": _OVERFLOWING, "osc_gain": -0.01}),
            # sin's angle 2*pi*t/osc_period overflows.
            ("osc_period", 1e-320),
            # (u - center)**2 overflows, whatever the weight's sign.
            ("quality_terms", (LandscapeTerm("learning_rate", 1e200, 5.0),)),
            ("quality_terms", (LandscapeTerm("learning_rate", 1e200, -5.0),)),
            # Finite fields whose curve values overflow to inf, or to NaN once they meet.
            ("opt_base", {"opt_base": 1e308, "opt_gain": -1e308}),
            ("osc_base", {"osc_base": 1e308, "osc_gain": 1e308}),
            ("constraint_base", {"constraint_base": 1e308, "constraint_gain": -1e308}),
            ("opt_start", {"opt_start": 1e308, "opt_base": -1e308}),
            ("constraint_lift", {"constraint_base": 1e308, "constraint_lift": 1e308}),
            # Finite at both ends, but start - limit can round past the largest float.
            (
                "constraint_lift",
                {"constraint_gain": -1.7976931348623155e308, "constraint_lift": -_MAX},
            ),
            # sin's angle 2*pi*T/osc_period at T = 256 overflows just below 9e-306.
            ("osc_period", 4.5e-306),
        ],
    )
    def test_spec_rejects_values_no_curve_takes(self, field, value):
        # A dict value also sets the other fields the rejected value needs.
        overrides = value if isinstance(value, dict) else {field: value}
        with pytest.raises(ValueError, match=field):
            make_problem("fairness-like", 0, **overrides)

    @settings(max_examples=400, deadline=None)
    @given(overrides=_accepted_or_near_a_bound())
    def test_every_accepted_feasibility_term_builds_every_curve(self, overrides):
        try:
            spec = problem_spec("fairness-like", **overrides)
        except ValueError:
            event("rejected")  # --hypothesis-show-statistics reports the accepted share
            return
        event("accepted")
        problem = object.__new__(SyntheticProblem)  # curve_for reads only the spec
        problem.spec = spec
        # Each parameter at either bound or at a term's center, in normalized space; each
        # curve is read at t = 1 and at the axis's top value, where sin's angle is largest.
        terms = spec.quality_terms + spec.feasibility_terms
        points = [0.0, 1.0, *(min(max(t.center, 0.0), 1.0) for t in terms)]
        for lr in points:
            for reg in points:
                values = {
                    "learning_rate": math.exp(math.log(1e-4) + lr * math.log(1e3)),
                    "regularization": math.exp(math.log(1e-5) + reg * math.log(1e4)),
                    "hidden_width": 64,
                    "training_iterations": 256,
                }
                curve = problem.curve_for(Configuration(values, 256))
                # Every bound the curve functions rely on; only the spec checks them.
                assert curve.opt_rate > 0.0 and curve.constraint_rate > 0.0
                assert curve.opt_noise >= 0.0 and curve.constraint_noise >= 0.0
                assert curve.osc_amplitude >= 0.0 and curve.osc_period > 0.0
                assert math.isfinite(curve.primary_cost) and math.isfinite(curve.constraint_cost)
                assert curve.primary_cost > 0.0 and curve.constraint_cost >= 0.0
                assert curve.max_iterations >= 1
                for t in (1, curve.max_iterations):
                    assert math.isfinite(opt_curve_value(curve, t))
                    assert math.isfinite(constraint_curve_value(curve, t))
                    # The observed value, curve + noise * z, at the largest |z| a draw can take.
                    for z in (-_LARGEST_NORMAL, _LARGEST_NORMAL):
                        assert math.isfinite(opt_curve_value(curve, t) + curve.opt_noise * z)
                        assert math.isfinite(
                            constraint_curve_value(curve, t) + curve.constraint_noise * z
                        )

    def test_negative_quality_weight_runs(self):
        # A quality weight shapes the objective only, unlike a feasibility weight.
        result = run_experiment(
            make_problem(
                "fairness-like", 0, quality_terms=(LandscapeTerm("learning_rate", 0.35, -5.0),)
            ),
            NoStoppingScheduler,
            budget=200.0,
            max_concurrent=2,
            seed=0,
        )
        assert result.history.records
