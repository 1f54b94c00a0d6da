"""Metamorphic relations between whole runs of ``ace-hpo run``.

Each test runs the command on two related configs and checks a relation
between their output files, so it needs no expected value and stays true
when a declared output change moves the bytes (Chen, Cheung and Yiu,
HKUST-CS98-01, 1998):

- R1, cost scale: scaling ``primary_cost``, ``constraint_cost`` and the budget
  by a power of two leaves ``trials.csv`` and every trace and decision column
  but ``sim_time`` unchanged, and scales ``sim_time`` exactly;
- R3, seed selection: ``--seed S`` writes the same files for S as the full
  config does;
- R4, arm subset: a config with some of the arms writes the same files for
  those arms.

Both presets run every kind of arm. R3 and R4 run serially and on a pool of
two workers.
"""

import json
import os

import pytest

from ace_hpo.cli import main
from ace_hpo.simulate import PRESET_NAMES, problem_spec

ARMS = (
    {"name": "ace", "scheduler": "ace"},
    {"name": "ace_hard", "scheduler": "ace", "params": {"stopping_mode": "hard"}},
    {"name": "ace_fixed_1", "scheduler": "ace", "params": {"interval_mode": "fixed_1"}},
    {"name": "asha", "scheduler": "asha"},
    {"name": "asha_callback", "scheduler": "asha_callback"},
    {"name": "no_stopping", "scheduler": "no_stopping"},
)
SEEDS = (0, 1)
BUDGET = 300.0
RUN_TABLES = ("trace", "decisions", "trials")


def _config(preset, scale=1.0, arms=ARMS):
    spec = problem_spec(preset)
    overrides = {
        "primary_cost": spec.primary_cost * scale,
        "constraint_cost": spec.constraint_cost * scale,
    }
    return {
        "problem": {"preset": preset, "overrides": overrides},
        "budget": BUDGET * scale,
        "max_concurrent": 3,
        "seeds": list(SEEDS),
        "arms": list(arms),
    }


def _run(tmp_path_factory, config, cpus, *flags):
    """The files ``run`` writes for ``config`` with ``cpus`` CPUs in its affinity mask."""
    where = tmp_path_factory.mktemp("run")
    path, out = where / "config.json", where / "out"
    path.write_text(json.dumps(config), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert main(["run", str(path), "--output-dir", str(out), *flags]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """The unscaled config with every arm and seed, per (preset, CPU count), run once."""
    cache = {}

    def runs(preset, cpus):
        if (preset, cpus) not in cache:
            cache[preset, cpus] = _run(tmp_path_factory, _config(preset), cpus)
        return cache[preset, cpus]

    return runs


def _rows(data):
    """A CSV file's header and rows, split as it is written: no cell is quoted."""
    header, *rows = (line.split(",") for line in data.decode("utf-8").splitlines())
    return header, rows


def _arm_rows(files, arm, seed=None):
    """``summary.csv``'s rows for an arm, or for one seed of it."""
    _, rows = _rows(files["summary.csv"])
    return [row for row in rows if row[0] == arm and (seed is None or int(row[1]) == seed)]


@pytest.mark.parametrize("scale", [2.0, 0.125])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_r1_cost_scale_scales_only_sim_time(tmp_path_factory, full_runs, preset, scale):
    """Powers of two keep every sum of costs exact, and the interval rule reads only
    the cost ratio, so a scaled run makes every decision the unscaled one makes."""
    base = full_runs(preset, 1)
    scaled = _run(tmp_path_factory, _config(preset, scale), 1)
    assert scaled.keys() == base.keys()
    for arm in ARMS:
        for seed in SEEDS:
            stem = f"{arm['name']}_seed{seed}"
            assert scaled[f"{stem}_trials.csv"] == base[f"{stem}_trials.csv"]
            for table in ("trace", "decisions"):
                header, rows = _rows(base[f"{stem}_{table}.csv"])
                scaled_header, scaled_rows = _rows(scaled[f"{stem}_{table}.csv"])
                assert scaled_header == header and len(scaled_rows) == len(rows) > 0
                at = header.index("sim_time")
                for row, scaled_row in zip(rows, scaled_rows):
                    assert float(scaled_row[at]) == float(row[at]) * scale
                    assert scaled_row[:at] + scaled_row[at + 1 :] == row[:at] + row[at + 1 :]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_r3_seed_flag_writes_the_full_configs_files(tmp_path_factory, full_runs, preset, cpus):
    full = full_runs(preset, cpus)
    seed = SEEDS[cpus % len(SEEDS)]
    picked = _run(tmp_path_factory, _config(preset), cpus, "--seed", str(seed))
    names = {arm["name"] for arm in ARMS}
    run_files = {f"{name}_seed{seed}_{table}.csv" for name in names for table in RUN_TABLES}
    summaries = {f"{name}_summary.json" for name in names}
    assert picked.keys() == run_files | summaries | {"summary.csv", "summary.txt"}
    for name in run_files:
        assert picked[name] == full[name]
    for arm in names:
        assert _arm_rows(picked, arm) == _arm_rows(full, arm, seed)
        records = json.loads(full[f"{arm}_summary.json"])["per_seed"]
        expected = [record for record in records if record["seed"] == seed]
        assert json.loads(picked[f"{arm}_summary.json"])["per_seed"] == expected


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_r4_arm_subset_writes_the_full_configs_files(tmp_path_factory, full_runs, preset, cpus):
    full = full_runs(preset, cpus)
    subset = (ARMS[4], ARMS[1])  # in another order than the full config's
    config = _config(preset, arms=subset)
    some = _run(tmp_path_factory, config, cpus)
    names = [arm["name"] for arm in subset]
    run_files = {
        f"{name}_seed{seed}_{table}.csv" for name in names for seed in SEEDS for table in RUN_TABLES
    }
    summaries = {f"{name}_summary.json" for name in names}
    assert some.keys() == run_files | summaries | {"summary.csv", "summary.txt"}
    for name in run_files | summaries:
        assert some[name] == full[name]
    for arm in names:
        assert _arm_rows(some, arm) == _arm_rows(full, arm)
