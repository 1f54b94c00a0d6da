"""End-to-end tests for the command-line interface."""

import copy
import csv
import functools
import hashlib
import json
import multiprocessing
import operator
import os
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ace_hpo import cli
from ace_hpo.cli import ConfigError, _build, _scheduler_factory, load_config, main
from ace_hpo.history import ConstraintSpec, RunningHistory
from ace_hpo.schedulers import AceConfig, AshaConfig, IntervalMode, StoppingMode
from ace_hpo.search_space import SearchSpace

REPO = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    config = {
        "problem": {"preset": "fairness-like"},
        "budget": 900.0,
        "max_concurrent": 2,
        "seeds": [0, 1],
        "arms": [
            {"name": "ace", "scheduler": "ace"},
            {"name": "nostop", "scheduler": "no_stopping"},
        ],
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _arm(scheduler, **params):
    return {"name": scheduler, "scheduler": scheduler, "params": params}


def _overrides(**overrides):
    return {"problem": {"preset": "fairness-like", "overrides": overrides}}


_AXIS = {"name": "steps", "kind": "log_uniform_int", "low": 1, "high": 8, "iteration_axis": True}


class TestConfigValidation:
    def test_missing_budget_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        config = write_config(path)
        del config["budget"]
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ConfigError, match="budget"):
            load_config(path)

    def test_cli_exit_code_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        write_config(path, retries=1)
        code = main(["run", str(path)])
        assert code == 2
        assert "retries" in capsys.readouterr().err

    def test_cli_exit_code_on_missing_config(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.json")])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"budget": True}, "budget"),
            ({"arms": [_arm("ace", low_overhead_gate="no")]}, "low_overhead_gate"),
            ({"max_concurrent": 2.5}, "max_concurrent"),
            ({"seeds": [-1]}, "seeds"),
            ({"arms": []}, "arms"),
            ({"arms": [{"name": "../x", "scheduler": "ace"}]}, "name"),
            ({"arms": [{"name": "x", "scheduler": "hyperband"}]}, "hyperband"),
            ({"arms": [_arm("no_stopping", max_time_units=64)]}, "max_time_units"),
            (_overrides(name="x"), "'name'"),
            ({"space": {"params": [{"name": "x", "kind": "gaussian"}]}}, "kind"),
            ({"problem": {"preset": "mnist"}}, "preset"),
            (_overrides(quality_terms=[{"param": "learning_rate", "center": 0.5}]), "weight"),
            ({"arms": [{"name": "ace", "scheduler": "ace", "params": []}]}, "params"),
            # Typed correctly, but rejected by the config classes themselves.
            ({"arms": [_arm("asha", max_time_units=1, grace_period=2)]}, "max_time_units"),
            (_overrides(feasible_fraction=1.5), "feasible_fraction"),
            (_overrides(rate_param="nope"), "rate_param"),
            ({"space": {"params": [_AXIS, dict(_AXIS, name="epochs")]}}, "iteration_axis"),
            ({"space": {"params": [dict(_AXIS, kind="choice", choices=[True, 4])]}}, "steps"),
            # index() would map the second 32 onto the first one's position.
            ({"space": {"params": [dict(_AXIS, kind="choice", choices=[32, 64, 32])]}}, "distinct"),
            ({"seeds": [1.0]}, "seeds"),
            # A sweep arm's P must lie strictly inside (0, 1).
            ({"arms": [_arm("ace", truncation_percentage=0)]}, "truncation_percentage"),
            ({"arms": [_arm("ace", truncation_percentage=1.5)]}, "1.5"),
            # Each arm and seed names output files and counts once in the aggregates.
            ({"arms": [_arm("ace"), _arm("ace")]}, "duplicate"),
            ({"seeds": [0, 0]}, "duplicate"),
            # Keys of the removed constraint-evaluating ASHA mode are unknown keys.
            ({"arms": [_arm("asha", constraint_interval_fixed=False)]}, "constraint_interval_fixed"),
            ({"arms": [_arm("asha", stratum_mode=True)]}, "stratum_mode"),
            # Values no trial curve can take: each once crashed calibration.
            (_overrides(primary_cost=0), "primary_cost"),
            (_overrides(constraint_cost=-1), "constraint_cost"),
            (_overrides(osc_period=0), "osc_period"),
            (_overrides(opt_noise=-0.1), "opt_noise"),
            (_overrides(constraint_rate_scale=0), "constraint_rate_scale"),
            # The slowest constraint rate underflows to 0.
            (
                _overrides(rate_low=1e-300, rate_high=1e-299, constraint_rate_scale=1e-300),
                "constraint_rate_scale",
            ),
            (_overrides(osc_base=-1), "osc_base"),
            # A negative feasibility weight lifts the headroom score above 1.
            (
                _overrides(
                    feasibility_terms=[{"param": "learning_rate", "center": 0.35, "weight": -5.0}]
                ),
                "feasibility_terms",
            ),
            # Valid JSON that no file system takes as a path.
            ({"output_dir": "out\0x"}, "output_dir"),
            # A center whose (u - center)**2 overflows once crashed the run mid-output.
            (
                _overrides(
                    quality_terms=[{"param": "learning_rate", "center": 1e200, "weight": 5.0}]
                ),
                "quality_terms",
            ),
            # Finite gains whose amplitude overflows once crashed calibration.
            (_overrides(osc_base=1e308, osc_gain=1e308), "osc_base"),
            # An axis this long would calibrate for hours before any output.
            ({"space": {"params": [dict(_AXIS, high=1e9)]}}, "at space: steps: the iteration axis"),
            # A noise scale whose observed value curve + noise * z can overflow.
            (_overrides(opt_noise=1e308), "opt_noise"),
            (_overrides(constraint_noise=1e308), "constraint_noise"),
            # Costs and a budget each finite whose cost clock overflows: these exited 0 and
            # wrote Infinity.
            (
                {
                    **_overrides(primary_cost=6e307, constraint_cost=8e307),
                    "budget": 1.7e308,
                    "arms": [
                        _arm("ace"), _arm("asha"),
                        dict(_arm("ace", interval_mode="fixed_1"), name="ace_fixed_1"),
                    ],
                },
                "at budget",
            ),
            # Keys that a kind ignores.
            ({"space": {"params": [dict(_AXIS, choices=[2, 4])]}}, "takes no choices"),
            (
                {"space": {"params": [dict(_AXIS, kind="choice", choices=[2, 4])]}},
                "takes no low or high",
            ),
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, changes, key):
        path = tmp_path / "config.json"
        write_config(path, **{"output_dir": str(tmp_path / "out"), **changes})
        assert main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [["-1"], ["0", "0"]])
    def test_seed_flag_checked_like_config_seeds(self, tmp_path, capsys, seeds):
        path = tmp_path / "config.json"
        write_config(path, output_dir=str(tmp_path / "out"))
        seed_args = [arg for seed in seeds for arg in ("--seed", seed)]
        assert main(["run", str(path), *seed_args]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Every section and every field type, so that a substitution can reach each check.
_FULL_CONFIG = {
    "problem": {
        "preset": "fairness-like",
        "overrides": {
            "feasible_fraction": 0.2,
            "maximize": True,
            "rate_param": "learning_rate",
            "quality_terms": [{"param": "learning_rate", "center": 0.5, "weight": 2}],
        },
    },
    "space": {
        "params": [
            {"name": "learning_rate", "kind": "log_uniform_real", "low": 1e-4, "high": 0.1},
            {"name": "regularization", "kind": "uniform_real", "low": 0, "high": 1},
            {"name": "width", "kind": "choice", "choices": [32, 64]},
            _AXIS,
        ]
    },
    "budget": 100.0,
    "max_concurrent": 2,
    "seeds": [0, 1],
    "output_dir": "out",
    "arms": [
        _arm("ace", truncation_percentage=0.3, low_overhead_gate=False,
             stopping_mode="hard", interval_mode="fixed_1"),
        _arm("asha_callback", max_time_units=8, reduction_factor=2, grace_period=1),
        {"name": "none", "scheduler": "no_stopping"},
    ],
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*path, key))


def test_full_config_loads(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_FULL_CONFIG), encoding="utf-8")
    assert load_config(path) == _FULL_CONFIG


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    load_config(path)


def test_truncation_sweep_config_varies_only_the_percentage():
    """The sweep is ``run`` over ace arms that differ only in P, on the ordering
    experiment's problem, budget, concurrency and seeds."""
    sweep = load_config(REPO / "configs" / "truncation_sweep.json")
    ordering = load_config(REPO / "configs" / "ordering_experiment.json")
    shared = ("problem", "space", "budget", "max_concurrent", "seeds")
    assert {k: sweep.get(k) for k in shared} == {k: ordering.get(k) for k in shared}
    arms = sweep["arms"]
    assert all(arm["scheduler"] == "ace" and list(arm["params"]) == ["truncation_percentage"]
               for arm in arms)
    percentages = [arm["params"]["truncation_percentage"] for arm in arms]
    assert sorted(percentages) == [0.03, 0.13, 0.25, 0.5, 0.75]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_loader_raises_only_config_error(tmp_path, data):
    """Any JSON value at any path of a valid config loads or raises ConfigError."""
    config = copy.deepcopy(_FULL_CONFIG)
    where = data.draw(st.sampled_from(list(_paths(config))))
    value = data.draw(_JSON)
    if where:
        functools.reduce(operator.getitem, where[:-1], config)[where[-1]] = value
    else:
        config = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        load_config(path)
    except ConfigError:
        pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_loading_a_config_imports_no_schema_library_and_builds_no_tables():
    code = (
        "import sys\n"
        "from ace_hpo import streams\n"
        "from ace_hpo.cli import load_config\n"
        "load_config(sys.argv[1])\n"
        "assert 'jsonschema' not in sys.modules\n"
        "assert streams._tables is None and streams._generator is None\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    config = REPO / "configs" / "ordering_experiment.json"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config)],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_commands_that_draw_nothing_run_without_numpy(tmp_path):
    """A config check, ``cost-curve``, ``--help`` and a config error never need numpy."""
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ace_hpo.cli import load_config, main\n"
        "config, curve, absent = sys.argv[1:]\n"
        "load_config(config)\n"
        "codes = [main(['cost-curve', '--output', curve])]\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    codes.append(exc.code)\n"
        "codes.append(main(['run', absent]))\n"
        "print(codes)\n"
    )
    curve = tmp_path / "curve.csv"
    config = REPO / "configs" / "ordering_experiment.json"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config), str(curve), str(tmp_path / "absent.json")],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 2]"
    assert "absent.json" in proc.stderr
    assert main(["cost-curve", "--output", str(tmp_path / "with_numpy.csv")]) == 0
    assert curve.read_bytes() == (tmp_path / "with_numpy.csv").read_bytes()


class TestRunCommand:
    def test_writes_expected_files(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, seeds=[0, 1, 2], output_dir=str(tmp_path / "out"))
        assert main(["run", str(config_path)]) == 0
        out = tmp_path / "out"
        # 3 seeds x 2 arms means 6 trace files plus one combined summary.
        assert len(list(out.glob("*_trace.csv"))) == 6
        assert len(list(out.glob("*_decisions.csv"))) == 6
        assert len(list(out.glob("*_trials.csv"))) == 6
        assert (out / "ace_summary.json").exists()
        assert (out / "nostop_summary.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()

    def test_prints_the_summary_table(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_config(config_path, seeds=[0], output_dir=str(tmp_path / "out"))
        assert main(["run", str(config_path)]) == 0
        table = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
        assert table in capsys.readouterr().out

    def test_seed_flag_overrides_config_seeds(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(config_path, output_dir=str(tmp_path / "out"))
        assert main(["run", str(config_path), "--seed", "5"]) == 0
        out = tmp_path / "out"
        assert (out / "ace_seed5_trace.csv").exists()
        assert not (out / "ace_seed0_trace.csv").exists()

    def test_flag_beats_config_output_dir(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(
            config_path, seeds=[0], arms=[{"name": "ace", "scheduler": "ace"}],
            output_dir=str(tmp_path / "from_config"),
        )
        assert main(
            ["run", str(config_path), "--output-dir", str(tmp_path / "from_flag")]
        ) == 0
        assert (tmp_path / "from_flag" / "summary.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_output_dir_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        write_config(
            config_path, seeds=[0], arms=[{"name": "ace", "scheduler": "ace"}],
            output_dir=str(tmp_path / "from_config"),
        )
        monkeypatch.setenv("ACE_HPO_OUTPUT_DIR", str(tmp_path / "from_env"))
        assert main(["run", str(config_path)]) == 0
        assert (tmp_path / "from_config" / "summary.csv").exists()
        assert not (tmp_path / "from_env").exists()

    def test_empty_output_dir_flag_rejected_before_any_output(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        write_config(config_path, output_dir=str(tmp_path / "out"))
        assert main(["run", str(config_path), "--output-dir", ""]) == 2
        captured = capsys.readouterr()
        assert "--output-dir" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_sweep_arms_report_each_percentage(self, tmp_path, capsys):
        """A P sweep is a run over ace arms that differ only in P: each arm's
        summary records its P and its means, and the table prints them."""
        path = tmp_path / "config.json"
        arms = [
            {"name": name, "scheduler": "ace", "params": {"truncation_percentage": pct}}
            for name, pct in (("p13", 0.13), ("p50", 0.5))
        ]
        write_config(path, budget=700.0, output_dir=str(tmp_path / "out"), arms=arms)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        scores = []
        for name, pct in (("p13", 0.13), ("p50", 0.5)):
            summary = json.loads((tmp_path / "out" / f"{name}_summary.json").read_text())
            assert summary["params"] == {"truncation_percentage": pct}
            aggregate = summary["aggregate"]
            score = aggregate["best_feasible_score_mean"]
            scores.append(score)
            assert aggregate["total_trials_mean"] > 0
            row = next(line for line in out.splitlines() if line.startswith(f"{name} "))
            # An arm that found nothing in any seed has a null mean, printed as n/a.
            assert row.split()[1] == ("n/a" if score is None else format(score, ".6g"))
            assert format(aggregate["total_trials_mean"], ".6g") in row
        assert scores[0] is None and scores[1] is not None

    def test_summary_aggregates_recomputable_from_per_seed_rows(self, tmp_path):
        config_path = tmp_path / "config.json"
        # Budget 4000 makes both arms certify a feasible trial at seed 0, so
        # the score-mean branch below is exercised, not just the None branch.
        write_config(
            config_path,
            seeds=[0, 1, 2],
            budget=4000.0,
            output_dir=str(tmp_path / "out"),
        )
        assert main(["run", str(config_path)]) == 0
        rows = read_csv(tmp_path / "out" / "summary.csv")
        for arm in ("ace", "nostop"):
            summary = json.loads(
                (tmp_path / "out" / f"{arm}_summary.json").read_text(encoding="utf-8")
            )
            arm_rows = [r for r in rows if r["arm"] == arm]
            assert len(arm_rows) == 3
            scores = [
                float(r["best_feasible_score"])
                for r in arm_rows
                if r["best_feasible_score"] != ""
            ]
            assert scores
            agg = summary["aggregate"]
            assert agg["best_feasible_score_mean"] == pytest.approx(
                statistics.fmean(scores), rel=0, abs=0
            )
            assert agg["success_rate"] == len(scores) / 3
            trials = [float(r["total_trials"]) for r in arm_rows]
            assert agg["total_trials_mean"] == statistics.fmean(trials)
            expected_std = statistics.stdev(trials) if len(trials) > 1 else 0.0
            assert agg["total_trials_std"] == expected_std

    def test_best_score_recomputable_from_trace(self, tmp_path):
        config_path = tmp_path / "config.json"
        # Budget 4000 guarantees at least one non-empty score at seed 0.
        write_config(
            config_path, seeds=[0], budget=4000.0, output_dir=str(tmp_path / "out")
        )
        assert main(["run", str(config_path)]) == 0
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert any(row["best_feasible_score"] != "" for row in rows)
        for row in rows:
            trace = read_csv(tmp_path / "out" / f"{row['arm']}_seed0_trace.csv")
            valid_opts = [
                float(t["opt_metric"]) for t in trace if t["group"] == "valid"
            ]
            if row["best_feasible_score"] == "":
                assert not valid_opts
            else:
                # The preset maximizes, so the report negates the internal
                # minimized metric.
                assert float(row["best_feasible_score"]) == -min(valid_opts)

    def test_space_override_controls_trial_lengths(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(
            config_path,
            seeds=[0],
            arms=[{"name": "ace", "scheduler": "ace"}],
            budget=200.0,
            output_dir=str(tmp_path / "out"),
            space={
                "params": [
                    {"name": "learning_rate", "kind": "log_uniform_real",
                     "low": 1e-4, "high": 1e-1},
                    {"name": "regularization", "kind": "log_uniform_real",
                     "low": 1e-5, "high": 1e-1},
                    {"name": "hidden_width", "kind": "choice",
                     "choices": [32, 64, 128, 256]},
                    {"name": "training_iterations", "kind": "choice",
                     "choices": [4, 8], "iteration_axis": True},
                ]
            },
        )
        assert main(["run", str(config_path)]) == 0
        trials = read_csv(tmp_path / "out" / "ace_seed0_trials.csv")
        assert trials
        assert all(t["max_iterations"] in ("4", "8") for t in trials)

    def test_all_scheduler_kinds_run(self, tmp_path):
        config_path = tmp_path / "config.json"
        write_config(
            config_path,
            seeds=[0],
            budget=700.0,
            output_dir=str(tmp_path / "out"),
            arms=[
                {"name": "ace_hard", "scheduler": "ace",
                 "params": {"stopping_mode": "hard"}},
                {"name": "asha", "scheduler": "asha"},
                {"name": "asha_cb", "scheduler": "asha_callback"},
            ],
        )
        assert main(["run", str(config_path)]) == 0
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert sorted({r["arm"] for r in rows}) == ["ace_hard", "asha", "asha_cb"]

    def test_asha_on_choice_axis_defaults_to_largest_choice(self, tmp_path):
        space = {
            "params": [
                {"name": "learning_rate", "kind": "log_uniform_real",
                 "low": 1e-4, "high": 1e-1},
                {"name": "regularization", "kind": "log_uniform_real",
                 "low": 1e-5, "high": 1e-1},
                {"name": "hidden_width", "kind": "choice",
                 "choices": [32, 64, 128, 256]},
                {"name": "training_iterations", "kind": "choice",
                 "choices": [16, 64, 32], "iteration_axis": True},
            ]
        }
        config_path = tmp_path / "config.json"
        write_config(
            config_path,
            seeds=[0],
            budget=400.0,
            output_dir=str(tmp_path / "out"),
            space=space,
            arms=[
                {"name": "asha", "scheduler": "asha"},
                {"name": "asha_cb", "scheduler": "asha_callback"},
            ],
        )
        assert main(["run", str(config_path)]) == 0
        for arm in ("asha", "asha_cb"):
            decisions = read_csv(tmp_path / "out" / f"{arm}_seed0_decisions.csv")
            assert {d["iteration"] for d in decisions if d["rank"]} <= {"1", "4", "16", "64"}
        factory = _scheduler_factory("asha", {}, _build(SearchSpace, space, "space"))
        assert factory(RunningHistory(ConstraintSpec(0.0))).config.max_time_units == 64


def test_scheduler_factory_defaults_are_the_config_defaults():
    epochs = {"name": "epochs", "kind": "log_uniform_int", "low": 1, "high": 27}
    space = _build(SearchSpace, {"params": [dict(epochs, iteration_axis=True)]}, "space")
    history = RunningHistory(ConstraintSpec(0.0))
    assert _scheduler_factory("ace", {}, space)(history).config == AceConfig()
    asha = AshaConfig(max_time_units=space.max_iterations)
    assert _scheduler_factory("asha", {}, space)(history).config == asha
    assert _scheduler_factory("asha_callback", {}, space)(history).inner.config == asha
    # The enum fields arrive as strings and must become members: the schedulers test them with `is`.
    ace = _scheduler_factory("ace", {"stopping_mode": "hard", "interval_mode": "fixed_1"}, space)
    config = ace(history).config
    assert config.stopping_mode is StoppingMode.HARD
    assert config.interval_mode is IntervalMode.FIXED_1


class TestOutputContract:
    """The shipped configs' output files are byte-identical to the reference.

    Together these runs cover every scheduler kind the configs use, both
    presets and the post-hoc feasibility scan.
    """

    @pytest.mark.parametrize(
        "workload, config, seeds",
        [
            ("ordering", "configs/ordering_experiment.json", [0]),
            ("gate-ablation", "configs/gate_ablation.json", [0, 1, 2]),
            ("scale", "bench/configs/scale.json", [0]),
        ],
    )
    def test_outputs_match_reference_digests(self, tmp_path, workload, config, seeds):
        reference_path = REPO / "bench" / "reference" / "digests.json"
        reference = json.loads(reference_path.read_text(encoding="utf-8"))
        expected = reference[workload][",".join(str(s) for s in seeds)]
        seed_args = [arg for s in seeds for arg in ("--seed", str(s))]
        assert main(["run", str(REPO / config), "--output-dir", str(tmp_path), *seed_args]) == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert digests == expected


_GET_CONTEXT = multiprocessing.get_context


def _run_on_cpus(monkeypatch, config, out_dir, cpus, start_method=None):
    """``run`` under an affinity mask of ``cpus`` CPUs, each pool made with
    ``start_method`` if given; returns the exit code and each pool's start method."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    methods = []

    def get_context(method=None):
        context = _GET_CONTEXT(start_method or method)
        methods.append(context.get_start_method())
        return context

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return main(["run", str(config), "--output-dir", str(out_dir)]), methods


class TestWorkerPool:
    """``run`` maps its (arm, seed) jobs over the CPUs in its affinity mask."""

    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, budget=300.0, arms=[_arm(kind) for kind in cli.SCHEDULER_KINDS])
        return path

    def test_outputs_identical_across_worker_counts_and_start_methods(
        self, tmp_path, monkeypatch, config
    ):
        trees, methods = [], []
        for cpus, start_method in ((1, None), (4, None), (4, "spawn")):
            out = tmp_path / f"out{len(trees)}"
            code, made = _run_on_cpus(monkeypatch, config, out, cpus, start_method)
            assert code == 0
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
            methods.append(made)
        default = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        assert methods == [[], [_GET_CONTEXT(default).get_start_method()], ["spawn"]]
        # 4 arms x 2 seeds x 3 run files, 4 arm summaries, summary.csv and summary.txt.
        assert len(trees[0]) == 4 * 2 * 3 + 4 + 2
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_no_worker_outlives_a_run(self, tmp_path, monkeypatch, config):
        code, methods = _run_on_cpus(monkeypatch, config, tmp_path / "out", 4)
        assert code == 0 and len(methods) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, pools", [(1, 0), (4, 1)])
    def test_io_error_in_a_job_exits_2_and_leaves_no_worker(
        self, tmp_path, monkeypatch, capsys, config, cpus, pools
    ):
        out = tmp_path / "out"
        (out / "asha_seed1_trials.csv").mkdir(parents=True)
        code, methods = _run_on_cpus(monkeypatch, config, out, cpus)
        assert code == 2 and len(methods) == pools
        assert "i/o error" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_killed_worker_exits_2_naming_the_job(self, tmp_path, config):
        """A worker killed mid-job, as by the OOM killer, ends the run instead of hanging it."""
        code = (
            "import multiprocessing, os, signal, sys, time\n"
            "from ace_hpo import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2, 3}\n"
            "run_job = cli._run_job\n"
            "def dying(job):\n"
            "    if job[0]['name'] == 'no_stopping' and job[-1] == 1:\n"
            "        time.sleep(1)  # lets the other workers finish every earlier job\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return run_job(job)\n"
            "cli._run_job = dying\n"
            "code = cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]])\n"
            "assert multiprocessing.active_children() == []\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(config), str(tmp_path / "out")],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        # The killed job is the last one, so it is the first left without a result.
        [line] = proc.stderr.splitlines()
        assert line.startswith("worker died: arm no_stopping seed 1 got no result")

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_ctrl_c_exits_130_with_one_line_and_leaves_no_process(self, tmp_path, config):
        """SIGINT to the run's process group, as a terminal's Ctrl-C sends it, while one
        worker runs a job and the other waits idle for one."""
        code = (
            "import os, sys, time\n"
            "from ace_hpo import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "run_job = cli._run_job\n"
            "def slow(job):\n"
            "    if job[0]['name'] == 'no_stopping' and job[-1] == 1:\n"
            "        time.sleep(3)  # the other worker ends every other job meanwhile\n"
            "    return run_job(job)\n"
            "cli._run_job = slow\n"
            "sys.exit(cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]]))\n"
        )
        out = tmp_path / "out"
        # A new session, so the signal reaches only the run; SIG_DFL, because a
        # process started with SIGINT ignored keeps it ignored.
        proc = subprocess.Popen(
            [sys.executable, "-c", code, str(config), str(out)],
            env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 60
            others = 2 * len(cli.SCHEDULER_KINDS) - 1
            while len(list(out.glob("*_trials.csv"))) < others and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err
        [line] = err.splitlines()  # and no worker's traceback
        assert line.startswith("interrupted")
        assert not (out / "summary.csv").exists()
        with pytest.raises(ProcessLookupError):  # the group has no process left
            os.killpg(proc.pid, 0)

    def test_wrapped_run_experiment_sees_every_job_in_process(self, tmp_path, monkeypatch, config):
        """An in-process wrapper, such as the benchmark's tracer, gets the serial path."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return cli._RUN_EXPERIMENT(*args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", counting)
        code, methods = _run_on_cpus(monkeypatch, config, tmp_path / "out", 4)
        assert code == 0 and methods == []
        assert calls == [0, 1] * len(cli.SCHEDULER_KINDS)


def test_traced_benchmark_run_writes_spans(tmp_path):
    """``bench/tracer.py`` still hooks the package: a traced smoke run succeeds."""
    spans = tmp_path / "spans.npz"
    command = [
        sys.executable, str(REPO / "bench" / "tracer.py"), str(spans),
        "run", str(REPO / "bench" / "configs" / "smoke.json"),
        "--output-dir", str(tmp_path / "out"),
    ]
    proc = subprocess.run(command, env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert spans.exists()


def _lines(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read().splitlines(keepends=True)


def test_no_written_csv_cell_needs_quoting(tmp_path):
    """Every CSV the commands write reads back the same by csv.reader and by a
    plain split: cells are joined unquoted, so none may hold a comma, a quote
    or a line break."""
    config_path = tmp_path / "config.json"
    write_config(
        config_path,
        seeds=[0],
        budget=300.0,
        arms=[_arm(kind) for kind in ("ace", "asha", "asha_callback", "no_stopping")],
    )
    assert main(["run", str(config_path), "--output-dir", str(tmp_path / "run")]) == 0
    assert main(["cost-curve", "--output", str(tmp_path / "curve" / "cost_curve.csv")]) == 0
    paths = sorted(tmp_path.glob("*/*.csv"))
    assert len(paths) == 4 * 3 + 1 + 1
    for path in paths:
        lines = _lines(path)
        assert lines and all(line.endswith("\r\n") for line in lines), path
        assert list(csv.reader(lines)) == [line.rstrip("\r\n").split(",") for line in lines], path


class TestCostCurveCommand:
    def test_default_emits_both_sweeps(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["cost-curve", "--output", str(out)]) == 0
        rows = read_csv(out)
        horizons = sum(t for t in (2, 4, 8, 16, 32, 64, 128, 256))
        ratios = 15 * 16
        assert len(rows) == horizons + ratios

    def test_min_interval_matches_threshold_sides(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["cost-curve", "--output", str(out)]) == 0
        rows = read_csv(out)
        slice_20 = [
            r for r in rows
            if float(r["cost_ratio"]) == 20.0 and r["max_iterations"] == "16"
        ]
        best = min(slice_20, key=lambda r: float(r["expected_cost"]))
        assert best["interval"] == "16"
        slice_1 = [
            r for r in rows
            if float(r["cost_ratio"]) == 1.0 and r["max_iterations"] == "16"
        ]
        best = min(slice_1, key=lambda r: float(r["expected_cost"]))
        assert best["interval"] == "1"

    def test_final_interval_rows_equal_ratio_plus_horizon(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["cost-curve", "--output", str(out)]) == 0
        for row in read_csv(out):
            if row["interval"] == row["max_iterations"]:
                expected = float(row["cost_ratio"]) + float(row["max_iterations"])
                assert float(row["expected_cost"]) == expected

    def test_explicit_ratio_and_iterations(self, tmp_path):
        # Either flag sweeps every ratio x horizon pair; one left out keeps 20 or 16.
        out = tmp_path / "curve.csv"
        for flags, pairs in (
            (["--ratio", "2.0", "--iterations", "8", "--iterations", "4"], [(2.0, 8), (2.0, 4)]),
            (["--ratio", "2.0", "--ratio", "0.5"], [(2.0, 16), (0.5, 16)]),
            (["--iterations", "8"], [(20.0, 8)]),
        ):
            assert main(["cost-curve", *flags, "--output", str(out)]) == 0
            rows = read_csv(out)
            expected = [(r, t, i) for r, t in pairs for i in range(1, t + 1)]
            got = [
                (float(row["cost_ratio"]), int(row["max_iterations"]), int(row["interval"]))
                for row in rows
            ]
            assert got == expected, flags

    def test_rows_are_written_as_they_are_made(self, tmp_path, capsys):
        # Held in a list, 40,000 rows take about 6 MB; written as made, about 0.25 MB.
        out = tmp_path / "curve.csv"
        tracemalloc.start()
        try:
            assert main(["cost-curve", "--iterations", "40000", "--output", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert f"wrote 40000 rows to {out}" in capsys.readouterr().out
        assert out.read_bytes().count(b"\r\n") == 40_001


class TestValidateTheoremCommand:
    def test_small_sweep_passes(self, capsys):
        code = main(
            ["validate-theorem", "--cases", "300", "--equivalence-cases", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "300 cases" in out
        assert "200 cases" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cost-curve", "--stop-probability", "0"], "--stop-probability"),
        (["cost-curve", "--ratio", "-1"], "--ratio"),
        (["cost-curve", "--ratio", "nan"], "--ratio"),
        (["cost-curve", "--ratio", "inf"], "--ratio"),
        (["cost-curve", "--ratio", "2", "--iterations", "0"], "--iterations"),
        (["validate-theorem", "--cases", "0"], "--cases"),
        (["validate-theorem", "--cases", "1", "--equivalence-cases", "0"], "--equivalence-cases"),
        (["validate-theorem", "--seed", "-1"], "--seed"),
    ],
)
def test_flag_value_rejected_without_output(tmp_path, capsys, argv, flag):
    out = tmp_path / "curve.csv"
    extra = ["--output", str(out)] if argv[0] == "cost-curve" else []
    assert main([*argv, *extra]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()
