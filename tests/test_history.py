import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ace_hpo.history import (
    CheckpointRecord,
    ConstraintSpec,
    CostLedger,
    Group,
    RunningHistory,
)
from ace_hpo.schedulers import _StratumIndex

TAU = ConstraintSpec(0.25)


def group_rank(history, trial_id):
    """The trial's rank from worst and its group's size, in an index of the history's rows."""
    return _StratumIndex(history.trials).decide(trial_id, 0.5)[1:]


def test_classify_each_group():
    assert TAU.classify(1, 1, 0.5, None).group is Group.NO_CONSTRAINT
    assert TAU.classify(1, 1, 0.5, 0.25).group is Group.VALID
    rec = TAU.classify(1, 1, 0.5, 0.3)
    assert rec.group is Group.INVALID
    assert rec.violation_amount == pytest.approx(0.05)


@settings(max_examples=500, deadline=None)
@given(
    threshold=st.floats(allow_nan=False, allow_infinity=False),
    trial_id=st.integers(0, 2**31),
    iteration=st.integers(min_value=1),
    opt_metric=st.floats(),
    incumbent=st.one_of(st.none(), st.floats()),
    charged=st.floats(0.0, 1e6),
    data=st.data(),
)
def test_classify_makes_consistent_records(
    threshold, trial_id, iteration, opt_metric, incumbent, charged, data
):
    # The shape rules of a record hold for every record classify makes, which is
    # why neither the record nor the history checks them again.
    spec = ConstraintSpec(threshold)
    value = data.draw(st.one_of(st.none(), st.floats(), st.just(threshold)), label="value")
    record = spec.classify(trial_id, iteration, opt_metric, value)
    assert type(record) is CheckpointRecord
    assert (record.trial_id, record.iteration, record.sim_time) == (trial_id, iteration, None)
    assert record.opt_metric == opt_metric or math.isnan(opt_metric)
    assert record.constraint_value is value
    if value is None:
        assert record.group is Group.NO_CONSTRAINT and record.violation_amount is None
    elif math.isfinite(value) and value <= threshold:
        assert record.group is Group.VALID and record.violation_amount is None
    else:
        assert record.group is Group.INVALID
        expected = value - threshold if math.isfinite(value) else math.inf
        assert record.violation_amount == expected and record.violation_amount > 0

    history = RunningHistory(spec)
    if incumbent is not None:
        history.record_checkpoint(spec.classify(trial_id + 1, 1, incumbent, threshold))
    history.ledger.add_primary(charged)
    before = (history.best_feasible_score, history.best_feasible_time)
    assert history.record_checkpoint(record) is record is history.records[-1]
    assert record.sim_time == history.ledger.total_cost
    # Only a VALID record with a strictly lower metric moves the incumbent; NaN < x is
    # false, so a NaN metric never does.
    if record.group is Group.VALID and opt_metric < before[0]:
        assert (history.best_feasible_score, history.best_feasible_time) == (opt_metric, charged)
    else:
        assert (history.best_feasible_score, history.best_feasible_time) == before


def test_best_feasible_updates_only_on_valid_improvement():
    history = RunningHistory(TAU)
    assert history.best_feasible_score == math.inf
    history.record_checkpoint(TAU.classify(1, 1, 0.9, None))
    assert history.best_feasible_score == math.inf
    history.record_checkpoint(TAU.classify(1, 2, 0.8, 0.2))
    assert history.best_feasible_score == 0.8
    history.record_checkpoint(TAU.classify(2, 1, 0.5, 0.9))
    assert history.best_feasible_score == 0.8
    history.record_checkpoint(TAU.classify(2, 2, 0.4, 0.1))
    assert history.best_feasible_score == 0.4
    history.record_checkpoint(TAU.classify(3, 1, 0.7, 0.1))
    assert history.best_feasible_score == 0.4


def test_snapshots_track_current_group_best_opt_latest_violation():
    history = RunningHistory(TAU)
    history.record_checkpoint(TAU.classify(1, 1, 0.9, 0.45))
    history.record_checkpoint(TAU.classify(1, 2, 0.5, None))
    history.record_checkpoint(TAU.classify(1, 3, 0.7, 0.30))
    snap = history.trial_snapshot(1)
    assert snap.group is Group.INVALID
    assert snap.best_opt == 0.5
    assert snap.latest_violation == pytest.approx(0.05)
    assert [s.trial_id for s in history.group_members(Group.INVALID)] == [1]
    assert history.group_members(Group.VALID) == []


def test_trial_rows_own_start_facts_best_and_incumbent_time():
    history = RunningHistory(TAU)
    history.start_trial(4, 16, 2)
    row = history.trial_snapshot(4)
    assert (row.max_iterations, row.interval, row.group, row.status) == (16, 2, None, None)
    assert (row.best_opt, row.best_iteration) == (math.inf, 0)
    assert history.group_members(Group.NO_CONSTRAINT) == []

    history.ledger.add_primary(1.0)
    history.record_checkpoint(TAU.classify(4, 1, math.nan, None))
    history.ledger.add_primary(1.0)
    history.record_checkpoint(TAU.classify(4, 2, 0.3, None))
    history.ledger.add_primary(1.0)
    history.record_checkpoint(TAU.classify(4, 3, 0.3, None))
    assert (row.best_opt, row.best_iteration) == (0.3, 2)
    assert row.group is Group.NO_CONSTRAINT

    # A record of a trial that was never started gets a fresh row.
    history.ledger.add_constraint(2.5)
    history.record_checkpoint(TAU.classify(9, 5, 0.4, 0.6))
    unstarted = history.trial_snapshot(9)
    assert (unstarted.max_iterations, unstarted.interval) == (None, None)
    assert (unstarted.best_opt, unstarted.best_iteration) == (0.4, 5)
    assert unstarted.latest_violation == pytest.approx(0.35)
    assert [r.trial_id for r in history.trials] == [4, 9]
    assert history.best_feasible_time is None

    history.ledger.add_constraint(2.0)
    entry = history.record_checkpoint(TAU.classify(4, 4, 0.2, 0.1))
    history.ledger.add_constraint(2.0)
    history.record_checkpoint(TAU.classify(9, 6, 0.2, 0.1))
    assert history.best_feasible_score == 0.2
    assert history.best_feasible_time == entry.sim_time == 7.5
    assert (row.best_opt, row.best_iteration) == (0.2, 4)


def test_non_finite_constraint_values_are_invalid_with_infinite_violation():
    history = RunningHistory(TAU)
    history.record_checkpoint(TAU.classify(1, 1, 0.5, 0.1))
    history.record_checkpoint(TAU.classify(2, 1, 0.9, 0.3))
    history.record_checkpoint(TAU.classify(3, 1, 0.8, 5.0))
    assert group_rank(history, 3) == (1, 2)
    # Each non-finite trial has a better metric than the incumbent and ranks
    # by (inf, metric), so the newest, with the largest metric, is the worst.
    for trial, (opt, value) in enumerate([(0.1, math.nan), (0.2, math.inf), (0.3, -math.inf)], 4):
        record = history.record_checkpoint(TAU.classify(trial, 1, opt, value))
        assert record.group is Group.INVALID
        assert record.violation_amount == math.inf
        assert history.best_feasible_score == 0.5
        assert group_rank(history, trial) == (1, trial - 1)
    assert history.best_feasible_time == 0.0


def test_ledger_ratio():
    ledger = CostLedger()
    assert ledger.cost_ratio() is None
    ledger.add_primary(1.0)
    assert ledger.cost_ratio() is None
    ledger.add_primary(1.0)
    ledger.add_constraint(2.0)
    assert ledger.cost_ratio() == pytest.approx(2.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(1, 20), st.integers(1, 20))
def test_ledger_ratio_scale_invariant(scale, n_primary, n_constraint):
    a, b = CostLedger(), CostLedger()
    for i in range(n_primary):
        a.add_primary(1.0 + i)
        b.add_primary((1.0 + i) * scale)
    for i in range(n_constraint):
        a.add_constraint(2.0 + i)
        b.add_constraint((2.0 + i) * scale)
    assert a.cost_ratio() == pytest.approx(b.cost_ratio())


_OPS = st.one_of(
    st.tuples(st.just("start"), st.integers(0, 5)),
    st.tuples(
        st.just("record"),
        st.integers(0, 5),
        st.one_of(st.sampled_from([0.1, 0.2, 0.3, math.nan, math.inf]), st.floats(0.0, 1.0)),
        st.one_of(st.none(), st.sampled_from([0.1, 0.25, 0.3, 0.5, math.inf])),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=60), st.integers(0, 60))
def test_stratum_index_matches_brute_force_count(stream, first_rank_at):
    # Rows are mirrored here (group, best metric under the strict "<" rule,
    # latest violation) and ranked by counting better members of the group.
    # The stratum index is built from the history's rows at op `first_rank_at`,
    # mid-stream, and from then on each recorded row is placed in it.
    # As in the run loop, a trial is started at most once, before its first record.
    history = RunningHistory(TAU)
    rows: dict[int, list] = {}
    index = None

    def key(trial):
        group, best, violation = rows[trial]
        return (violation, best, trial) if group is Group.INVALID else (best, trial)

    for i, op in enumerate(stream):
        if op[0] == "start":
            if op[1] not in rows:
                history.start_trial(op[1], 8, None)
                rows[op[1]] = [None, math.inf, None]
        else:
            _, trial, opt, value = op
            record = TAU.classify(trial, i + 1, opt, value)
            history.record_checkpoint(record)
            row = rows.setdefault(trial, [None, math.inf, None])
            row[0] = record.group
            if opt < row[1]:
                row[1] = opt
            if record.group is Group.INVALID:
                row[2] = record.violation_amount
            if index is not None:
                index.place(history.trial_snapshot(trial))
        if i < first_rank_at:
            continue
        if index is None:
            index = _StratumIndex(history.trials)
        for trial, (group, _, _) in rows.items():
            if group is None:
                continue
            members = [t for t, r in rows.items() if r[0] is group]
            better = sum(1 for t in members if key(t) < key(trial))
            assert index.decide(trial, 0.5)[1:] == (len(members) - better, len(members))
