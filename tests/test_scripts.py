"""Smoke tests for the scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _interval_report(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    command = [sys.executable, str(REPO / "scripts" / "interval_report.py"), *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def test_interval_report_prints_both_presets():
    proc = _interval_report("--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    assert "fairness-like:" in proc.stdout
    assert "robustness-like:" in proc.stdout


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_interval_report_rejects_fewer_than_one_seed(seeds):
    proc = _interval_report("--seeds", seeds)
    assert proc.returncode == 2
    assert "--seeds" in proc.stderr
