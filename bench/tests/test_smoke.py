"""Harness self-test on the tiny `smoke` workload; runs in a few seconds.

    python3 -m pytest bench/tests -q

It exercises spawning `ace-hpo run` children, the digest comparison, the
semantic output check and the traced run, so that a broken harness fails
here instead of after a full benchmark run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import run  # noqa: E402


def bench_run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> set[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[kind]}


def test_plain_run_reports_every_end_to_end_metric():
    result = bench_run(trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert set(result["metrics"]) == declared("end_to_end")
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_run_reports_every_per_layer_metric():
    result = bench_run(trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["simulate.make_problem.calls"] == 3
    assert metrics["schedulers.step.calls"] == metrics["simulate.eval_opt_metric.calls"]
    assert metrics["schedulers.scan.calls"] == 1


def test_checks_catch_a_changed_output():
    work = BENCH / ".out" / "test-smoke"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    config = json.loads((run.ROOT / run.WORKLOADS["smoke"].config).read_text(encoding="utf-8"))
    arms = [arm["name"] for arm in config["arms"]]
    seeds = [0]
    try:
        work.mkdir(parents=True)
        cmd = [sys.executable, "-m", "ace_hpo.cli",
               *run.cli_args(run.ROOT / run.WORKLOADS["smoke"].config, out_dir, seeds)]
        assert run.spawn(cmd, work / "child.err").exit_code == 0
        reference = outputs.load_reference("smoke")[outputs.group_key(seeds)]
        assert outputs.check_digests(outputs.file_digests(out_dir), reference, arms, seeds) == {}
        assert outputs.check_semantics(out_dir, config["arms"], seeds)[0] == {}

        trace = out_dir / "ace_seed0_trace.csv"
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        trace.write_text("".join(lines[:-1]), encoding="utf-8")
        changed = outputs.check_digests(outputs.file_digests(out_dir), reference, arms, seeds)
        assert set(changed) == {("ace", 0)}
        assert set(outputs.check_semantics(out_dir, config["arms"], seeds)[0]) == {("ace", 0)}

        (out_dir / "no_stopping_seed0_trials.csv").unlink()
        changed = outputs.check_digests(outputs.file_digests(out_dir), reference, arms, seeds)
        assert set(changed) == {("ace", 0), ("no_stopping", 0)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
