import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace_hpo.history import ConstraintSpec, Group, RunningHistory
from ace_hpo.schedulers import (
    AceConfig,
    AceScheduler,
    Action,
    AshaConfig,
    AshaScheduler,
    ConstraintCallback,
    IntervalMode,
    NoStoppingScheduler,
    StoppingMode,
    ace_gate,
    post_hoc_feasibility_scan,
    stratum_should_stop,
)

TAU = ConstraintSpec(0.25)


def fresh_history():
    return RunningHistory(TAU)


def charging_eval(history, value, cost=1.0):
    def _eval():
        history.ledger.add_constraint(cost)
        return value

    return _eval


def seed_ledger(history, n_primary=4, primary=1.0, n_constraint=4, constraint=1.0):
    for _ in range(n_primary):
        history.ledger.add_primary(primary)
    for _ in range(n_constraint):
        history.ledger.add_constraint(constraint)


class TestIntervalChoice:
    def test_first_trial_defaults_to_final_check(self):
        history = fresh_history()
        AceScheduler(AceConfig(), history).on_trial_start(0, 32)
        assert history.trial_snapshot(0).interval == 32

    def test_cheap_constraint_checks_every_iteration(self):
        history = fresh_history()
        seed_ledger(history, constraint=1.94)
        sched = AceScheduler(AceConfig(truncation_percentage=0.25), history)
        # threshold(0.25, 16) ~ 4.07 > 1.94
        sched.on_trial_start(0, 16)
        assert history.trial_snapshot(0).interval == 1

    def test_expensive_constraint_checks_once(self):
        history = fresh_history()
        seed_ledger(history, constraint=23.98)
        sched = AceScheduler(AceConfig(truncation_percentage=0.25), history)
        # threshold(0.25, 8) ~ 1.69 < 23.98
        sched.on_trial_start(0, 8)
        assert history.trial_snapshot(0).interval == 8

    def test_fixed_modes_ignore_ledger(self):
        history = fresh_history()
        seed_ledger(history)
        AceScheduler(AceConfig(interval_mode=IntervalMode.FIXED_1), history).on_trial_start(0, 16)
        AceScheduler(AceConfig(interval_mode=IntervalMode.FIXED_T), history).on_trial_start(1, 16)
        assert [history.trial_snapshot(i).interval for i in (0, 1)] == [1, 16]

    def test_interval_fixed_per_trial_own_budget(self):
        history = fresh_history()
        seed_ledger(history, constraint=3.0)
        sched = AceScheduler(AceConfig(), history)
        # threshold(0.25, 8) ~ 1.69 < 3.0 -> final; threshold(0.25, 32) ~ 9.33 > 3.0 -> every iteration
        sched.on_trial_start(0, 8)
        sched.on_trial_start(1, 32)
        assert [(r.trial_id, r.max_iterations, r.interval) for r in history.trials] == [
            (0, 8, 8),
            (1, 32, 1),
        ]

    def test_truncation_percentage_validated(self):
        with pytest.raises(ValueError):
            AceConfig(truncation_percentage=0.0)
        with pytest.raises(ValueError):
            AceConfig(truncation_percentage=1.0)


class TestGate:
    def test_blocks_off_boundary(self):
        history = fresh_history()
        seed_ledger(history)
        assert not ace_gate(0.1, history, at_interval_boundary=False, gate_enabled=True)

    def test_boundary_with_gate_off_always_evaluates(self):
        history = fresh_history()
        seed_ledger(history)
        history.record_checkpoint(TAU.classify(0, 1, 0.2, 0.1))
        assert ace_gate(0.9, history, at_interval_boundary=True, gate_enabled=False)

    def test_gate_compares_against_best_feasible(self):
        history = fresh_history()
        seed_ledger(history)
        history.record_checkpoint(TAU.classify(0, 1, 0.5, 0.1))
        assert ace_gate(0.5, history, at_interval_boundary=True, gate_enabled=True)
        assert not ace_gate(0.6, history, at_interval_boundary=True, gate_enabled=True)

    def test_unset_incumbent_passes_everything(self):
        history = fresh_history()
        seed_ledger(history)
        assert ace_gate(1e9, history, at_interval_boundary=True, gate_enabled=True)

    def test_bootstrap_forces_final_iteration_evaluation(self):
        history = fresh_history()
        assert history.ledger.constraint_cost_count == 0
        assert ace_gate(
            1e9, history, at_interval_boundary=False, gate_enabled=True, at_final_iteration=True
        )
        history.ledger.add_constraint(1.0)
        assert not ace_gate(
            1e9, history, at_interval_boundary=False, gate_enabled=True, at_final_iteration=True
        )


class TestStratum:
    def test_worst_invalid_of_four_stops(self):
        history = fresh_history()
        for trial, violation in enumerate([0.5, 0.3, 0.1, 0.05]):
            history.record_checkpoint(TAU.classify(trial, 1, 0.5, TAU.threshold + violation))
        config = AceConfig(truncation_percentage=0.25)
        assert stratum_should_stop(config, history, 0, Group.INVALID) is Action.STOP
        for trial in (1, 2, 3):
            assert stratum_should_stop(config, history, trial, Group.INVALID) is Action.CONTINUE

    def test_small_valid_group_never_stops(self):
        history = fresh_history()
        for trial, opt in enumerate([0.10, 0.20, 0.30]):
            history.record_checkpoint(TAU.classify(trial, 1, opt, 0.1))
        config = AceConfig(truncation_percentage=0.25)
        for trial in (0, 1, 2):
            assert stratum_should_stop(config, history, trial, Group.VALID) is Action.CONTINUE

    def test_two_trial_invalid_group_continues(self):
        history = fresh_history()
        history.record_checkpoint(TAU.classify(0, 1, 0.5, 0.9))
        history.record_checkpoint(TAU.classify(1, 1, 0.5, 0.6))
        config = AceConfig(truncation_percentage=0.25)
        assert stratum_should_stop(config, history, 0, Group.INVALID) is Action.CONTINUE

    def test_ranking_uses_best_opt_so_far(self):
        history = fresh_history()
        history.record_checkpoint(TAU.classify(0, 1, 0.9, None))
        history.record_checkpoint(TAU.classify(0, 2, 0.2, None))
        history.record_checkpoint(TAU.classify(0, 3, 0.8, None))
        for trial, opt in enumerate([0.3, 0.4, 0.5], start=1):
            history.record_checkpoint(TAU.classify(trial, 1, opt, None))
        config = AceConfig(truncation_percentage=0.25)
        # Trial 0 ranks by 0.2, so trial 3 (0.5) is the worst of four.
        assert stratum_should_stop(config, history, 3, Group.NO_CONSTRAINT) is Action.STOP
        assert stratum_should_stop(config, history, 0, Group.NO_CONSTRAINT) is Action.CONTINUE

    def test_invalid_ranking_uses_latest_violation(self):
        history = fresh_history()
        history.record_checkpoint(TAU.classify(0, 1, 0.5, TAU.threshold + 0.9))
        history.record_checkpoint(TAU.classify(0, 2, 0.5, TAU.threshold + 0.01))
        for trial, violation in enumerate([0.1, 0.2, 0.3], start=1):
            history.record_checkpoint(TAU.classify(trial, 1, 0.5, TAU.threshold + violation))
        config = AceConfig(truncation_percentage=0.25)
        # Trial 0's latest violation (0.01) is the smallest, so trial 3 is worst.
        assert stratum_should_stop(config, history, 3, Group.INVALID) is Action.STOP
        assert stratum_should_stop(config, history, 0, Group.INVALID) is Action.CONTINUE

    def test_queried_trial_must_be_in_group(self):
        history = fresh_history()
        history.record_checkpoint(TAU.classify(0, 1, 0.5, None))
        with pytest.raises(ValueError):
            stratum_should_stop(AceConfig(), history, 0, Group.VALID)


class TestAceStep:
    def test_ranks_rows_recorded_before_it_was_built(self):
        history = fresh_history()
        for trial, opt in enumerate([0.1, 0.2, 0.3]):
            history.record_checkpoint(TAU.classify(trial, 1, opt, 0.1))
        history.start_trial(7, 4, None)  # a row with no record yet ranks nowhere
        sched = AceScheduler(AceConfig(truncation_percentage=0.5), history)

        def decide(record):
            return sched.decide(record, history.trial_snapshot(record.trial_id))

        record = history.record_checkpoint(TAU.classify(3, 1, 0.9, 0.1))
        assert decide(record) == (Action.STOP, 1, 4)
        record = history.record_checkpoint(TAU.classify(0, 2, 0.05, 0.1))
        assert decide(record) == (Action.CONTINUE, 4, 4)
        record = history.record_checkpoint(TAU.classify(2, 2, 0.3, 0.9))
        assert decide(record) == (Action.CONTINUE, 1, 1)
        record = history.record_checkpoint(TAU.classify(1, 2, 0.4, 0.1))
        assert decide(record) == (Action.CONTINUE, 2, 3)

    def test_hard_mode_stops_at_first_invalid(self):
        history = fresh_history()
        sched = AceScheduler(
            AceConfig(stopping_mode=StoppingMode.HARD, interval_mode=IntervalMode.FIXED_1),
            history,
        )
        sched.on_trial_start(0, 10)
        d1 = sched.step(0, 1, 10, 0.9, charging_eval(history, 0.2))
        assert d1.action is Action.CONTINUE and d1.group is Group.VALID
        d2 = sched.step(0, 2, 10, 0.8, charging_eval(history, 0.4))
        assert d2.action is Action.STOP and d2.group is Group.INVALID

    def test_final_iteration_completes_regardless(self):
        history = fresh_history()
        sched = AceScheduler(
            AceConfig(stopping_mode=StoppingMode.HARD, interval_mode=IntervalMode.FIXED_1),
            history,
        )
        sched.on_trial_start(0, 1)
        decision = sched.step(0, 1, 1, 0.9, charging_eval(history, 0.9))
        assert decision.group is Group.INVALID
        assert decision.action is Action.CONTINUE

    def test_gate_skip_records_no_constraint(self):
        history = fresh_history()
        seed_ledger(history)
        history.record_checkpoint(TAU.classify(99, 1, 0.3, 0.1))
        sched = AceScheduler(AceConfig(interval_mode=IntervalMode.FIXED_1), history)
        sched.on_trial_start(0, 10)
        calls = []

        def never():
            calls.append(1)
            return 0.0

        decision = sched.step(0, 1, 10, 0.9, never)
        assert not calls
        assert not decision.evaluate_constraint
        assert decision.group is Group.NO_CONSTRAINT

    def test_interval_boundary_only(self):
        history = fresh_history()
        seed_ledger(history, constraint=100.0)  # expensive -> final-only
        sched = AceScheduler(AceConfig(), history)
        sched.on_trial_start(0, 4)
        assert history.trial_snapshot(0).interval == 4
        evals = []
        for t in (1, 2, 3):
            d = sched.step(0, t, 4, 0.5 - 0.1 * t, charging_eval(history, 0.1))
            evals.append(d.evaluate_constraint)
        assert evals == [False, False, False]
        d = sched.step(0, 4, 4, 0.1, charging_eval(history, 0.1))
        assert d.evaluate_constraint


class TestAsha:
    def test_rung_ladder(self):
        assert AshaConfig(max_time_units=64).rungs == (1, 4, 16, 64)
        assert AshaConfig(max_time_units=81, reduction_factor=3, grace_period=1).rungs == (1, 3, 9, 27, 81)

    def test_first_arrival_promotes(self):
        sched = AshaScheduler(AshaConfig(max_time_units=64), fresh_history())
        sched.on_trial_start(0, 64)
        decision = sched.step(0, 1, 64, 0.9, lambda: 0.0)
        assert decision.action is Action.CONTINUE
        assert (decision.rank, decision.group_size) == (1, 1)

    def test_third_of_eight_at_rung_stops(self):
        history = fresh_history()
        sched = AshaScheduler(AshaConfig(max_time_units=64), history)
        opts = [0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8]
        for trial, opt in enumerate(opts):
            sched.on_trial_start(trial, 64)
            sched.step(trial, 4, 64, opt, lambda: 0.0)
        sched.on_trial_start(7, 64)
        decision = sched.step(7, 4, 64, 0.3, lambda: 0.0)
        assert (decision.rank, decision.group_size) == (3, 8)
        assert decision.action is Action.STOP

    def test_off_rung_iterations_continue(self):
        sched = AshaScheduler(AshaConfig(max_time_units=64), fresh_history())
        sched.on_trial_start(0, 64)
        for t in (2, 3, 5, 63):
            assert sched.step(0, t, 64, 0.9, lambda: 0.0).action is Action.CONTINUE

    def test_promotion_cap_under_improving_arrivals(self):
        history = fresh_history()
        sched = AshaScheduler(AshaConfig(max_time_units=16), history)
        promoted = 0
        for trial in range(12):
            sched.on_trial_start(trial, 16)
            opt = 1.0 - trial * 0.05  # every arrival is the new best
            if sched.step(trial, 1, 16, opt, lambda: 0.0).action is Action.CONTINUE:
                promoted += 1
            assert promoted <= math.ceil((trial + 1) / 4)

    def test_plain_asha_never_evaluates_constraint(self):
        sched = AshaScheduler(AshaConfig(max_time_units=16), fresh_history())
        sched.on_trial_start(0, 16)
        assert not sched.performs_constraint_evaluations
        decision = sched.step(0, 1, 16, 0.5, lambda: pytest.fail("should not evaluate"))
        assert not decision.evaluate_constraint
        assert decision.group is Group.NO_CONSTRAINT

    def test_nan_arrival_ranks_behind_every_number(self):
        history = fresh_history()
        sched = AshaScheduler(AshaConfig(max_time_units=16), history)
        ranks = []
        for trial, opt in enumerate([0.5, math.nan, 0.3, 0.1]):
            sched.on_trial_start(trial, 16)
            entry = sched.step(trial, 1, 16, opt, lambda: 0.0)
            ranks.append((entry.rank, entry.group_size))
        assert ranks == [(1, 1), (2, 2), (1, 3), (1, 4)]
        assert math.isnan(history.records[1].opt_metric)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 4, 16]),
                st.one_of(st.sampled_from([0.2, 0.5]), st.floats(-1.0, 1.0)),
            ),
            max_size=40,
        ),
    )
    def test_rung_rank_matches_sort_and_index(self, arrivals):
        history = fresh_history()
        sched = AshaScheduler(AshaConfig(max_time_units=16), history)
        pools: dict[int, list] = {}
        for trial, (rung, opt) in enumerate(arrivals):
            sched.on_trial_start(trial, 16)
            record = sched.step(trial, rung, 16, opt, lambda: 0.0)
            key = (opt, trial)
            keys = pools.setdefault(rung, [])
            keys.append(key)
            keys.sort()
            assert (record.rank, record.group_size) == (keys.index(key) + 1, len(keys))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AshaConfig(max_time_units=16, reduction_factor=1)
        with pytest.raises(ValueError):
            AshaConfig(max_time_units=0)


class TestBaselines:
    def test_no_stopping_continues_everywhere(self):
        history = fresh_history()
        sched = NoStoppingScheduler(history)
        sched.on_trial_start(0, 4)
        for t in (1, 2, 3, 4):
            decision = sched.step(0, t, 4, 0.9, lambda: pytest.fail("no evaluation expected"))
            assert decision.action is Action.CONTINUE
            assert not decision.evaluate_constraint

    def test_callback_wrapper_evaluates_at_final_iteration_only(self):
        history = fresh_history()
        sched = ConstraintCallback(NoStoppingScheduler(history))
        assert sched.performs_constraint_evaluations
        sched.on_trial_start(0, 3)
        for t in (1, 2):
            assert not sched.step(0, t, 3, 0.5, charging_eval(history, 0.1)).evaluate_constraint
        decision = sched.step(0, 3, 3, 0.5, charging_eval(history, 0.1))
        assert decision.evaluate_constraint
        assert decision.group is Group.VALID
        assert history.best_feasible_score == 0.5

    def test_callback_keeps_inner_stopping(self):
        history = fresh_history()
        inner = AshaScheduler(AshaConfig(max_time_units=16), history)
        sched = ConstraintCallback(inner)
        sched.on_trial_start(0, 16)
        sched.step(0, 1, 16, 0.1, charging_eval(history, 0.1))
        sched.on_trial_start(1, 16)
        sched.on_trial_start(2, 16)
        sched.step(1, 1, 16, 0.2, charging_eval(history, 0.1))
        decision = sched.step(2, 1, 16, 0.9, charging_eval(history, 0.1))
        assert decision.action is Action.STOP

    def test_callback_asha_ranks_a_rung_on_the_metric_alone(self):
        # The final check classifies each arrival, but the inner ASHA keeps
        # one pool per rung: a VALID trial ranks behind better INVALID ones.
        history = fresh_history()
        sched = ConstraintCallback(AshaScheduler(AshaConfig(max_time_units=16), history))
        seen = []
        for trial, (opt, value) in enumerate([(0.1, 0.9), (0.5, 0.1), (0.3, 0.9)]):
            sched.on_trial_start(trial, 16)
            record = sched.step(trial, 16, 16, opt, charging_eval(history, value))
            assert record.evaluate_constraint
            assert record.action is Action.CONTINUE
            seen.append((record.group, record.rank, record.group_size))
        assert seen == [(Group.INVALID, 1, 1), (Group.VALID, 2, 2), (Group.INVALID, 2, 3)]

    def test_callback_rejects_a_constraint_evaluating_inner_scheduler(self):
        with pytest.raises(ValueError, match="AceScheduler"):
            ConstraintCallback(AceScheduler(AceConfig(), fresh_history()))


class TestPostHocScan:
    def make_eval(self, values):
        calls = []

        def _eval(trial_id, iteration):
            calls.append((trial_id, iteration))
            return values[trial_id]

        return _eval, calls

    def test_first_candidate_feasible(self):
        history = fresh_history()
        evaluate, calls = self.make_eval({5: 0.1})
        result = post_hoc_feasibility_scan(history, [(5, 7, 0.3)], evaluate)
        assert history.records[-1].trial_id == 5
        assert history.records[-1].group is Group.VALID
        assert result.evaluations == 1
        assert calls == [(5, 7)]
        assert history.best_feasible_score == 0.3

    def test_scans_until_first_feasible(self):
        history = fresh_history()
        evaluate, calls = self.make_eval({1: 0.9, 2: 0.8, 3: 0.2, 4: 0.1})
        candidates = [(1, 3, 0.1), (2, 9, 0.2), (3, 2, 0.3), (4, 1, 0.4)]
        result = post_hoc_feasibility_scan(history, candidates, evaluate)
        assert history.records[-1].trial_id == 3
        assert history.records[-1].group is Group.VALID
        assert result.evaluations == 3
        assert len(calls) == 3

    def test_no_feasible_candidate(self):
        history = fresh_history()
        evaluate, _ = self.make_eval({1: 0.9, 2: 0.8})
        result = post_hoc_feasibility_scan(history, [(1, 1, 0.1), (2, 1, 0.2)], evaluate)
        assert history.records[-1].group is not Group.VALID
        assert result.evaluations == 2
        assert history.best_feasible_score == math.inf


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.26, 2.0), min_size=1, max_size=12), st.integers(2, 12))
def test_hard_never_outlives_stratum_on_invalid_only_trials(violating_values, n_trials):
    # Every checkpoint of every trial is invalid; hard stopping must never
    # keep a trial past the iteration where stratum stopping would cut it.
    def run(mode):
        history = fresh_history()
        sched = AceScheduler(
            AceConfig(stopping_mode=mode, interval_mode=IntervalMode.FIXED_1, low_overhead_gate=False),
            history,
        )
        stops = {}
        horizon = len(violating_values)
        for trial in range(n_trials):
            sched.on_trial_start(trial, horizon)
            for t, value in enumerate(violating_values, start=1):
                decision = sched.step(trial, t, horizon, 0.5, charging_eval(history, value))
                if decision.action is Action.STOP:
                    stops[trial] = t
                    break
            else:
                stops[trial] = horizon
        return stops

    hard = run(StoppingMode.HARD)
    stratum = run(StoppingMode.STRATUM)
    for trial in range(n_trials):
        assert hard[trial] <= stratum[trial]


def test_identical_drives_yield_identical_decisions():
    def drive():
        history = fresh_history()
        sched = AceScheduler(AceConfig(), history)
        out = []
        for trial in range(6):
            t_max = 8
            sched.on_trial_start(trial, t_max)
            for t in range(1, t_max + 1):
                opt = 1.0 / (1 + t) + 0.05 * trial
                g = 0.2 + 0.03 * ((trial + t) % 4)
                decision = sched.step(trial, t, t_max, opt, charging_eval(history, g))
                out.append((trial, t, decision))
                if decision.action is Action.STOP:
                    break
        return out

    assert drive() == drive()
