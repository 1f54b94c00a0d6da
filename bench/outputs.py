"""Correctness checks for the output directory of one `ace-hpo run`.

Two independent checks decide whether an (arm, seed) run failed:

* digests: the sha256 of every output file must equal the reference digest
  recorded for that workload and seed group (``reference/digests.json``);
* semantics: invariants that any correct output satisfies, read from the
  files alone, so that a change which declares new output bytes is still
  checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "digests.json"
RUN_FILE_KINDS = ("trace", "decisions", "trials")
SUMMARY_FILES = ("summary.csv", "summary.txt")


def group_key(seeds: list[int]) -> str:
    return ",".join(str(s) for s in seeds)


def load_reference(workload: str) -> dict[str, dict[str, str]]:
    """Reference digests of one workload, keyed by seed group."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def file_digests(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.is_file():
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_files(arm: str, seed: int) -> list[str]:
    return [f"{arm}_seed{seed}_{kind}.csv" for kind in RUN_FILE_KINDS]


def check_digests(
    digests: dict[str, str], reference: dict[str, str], arms: list[str], seeds: list[int]
) -> dict[tuple[str, int], str]:
    """Runs whose files are missing or differ from the reference, with a reason."""
    failed: dict[tuple[str, int], str] = {}
    for arm in arms:
        for seed in seeds:
            for name in run_files(arm, seed):
                if digests.get(name) != reference[name]:
                    failed.setdefault((arm, seed), f"{name} differs from reference")
        name = f"{arm}_summary.json"
        if digests.get(name) != reference[name]:
            for seed in seeds:
                failed.setdefault((arm, seed), f"{name} differs from reference")
    for name in SUMMARY_FILES:
        if digests.get(name) != reference[name]:
            for arm in arms:
                for seed in seeds:
                    failed.setdefault((arm, seed), f"{name} differs from reference")
    return failed


def scans_post_hoc(arm: dict) -> bool:
    """True for arms that never evaluate the constraint while running.

    The simulator certifies such a run afterwards with a post-hoc
    feasibility scan, whose evaluations are appended to the trace.
    """
    if arm["scheduler"] == "no_stopping":
        return True
    return arm["scheduler"] == "asha" and not arm.get("params", {}).get("stratum_mode", False)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _check_run(
    out_dir: Path, arm: dict, seed: int, row: dict[str, str], budget: float
) -> str | None:
    """First violated invariant of one run, or None."""
    trace_path, decisions_path, trials_path = (out_dir / n for n in run_files(arm["name"], seed))
    trace = _read_csv(trace_path)
    decisions = _read_csv(decisions_path)
    trials = _read_csv(trials_path)
    iterations = int(row["primary_iterations"])
    evaluations = int(row["constraint_evaluations"])
    scan_evaluations = evaluations if scans_post_hoc(arm) else 0

    if len(decisions) != iterations:
        return f"{len(decisions)} decision rows for {iterations} primary iterations"
    if len(trace) != iterations + scan_evaluations:
        return (
            f"{len(trace)} trace rows for {iterations} primary iterations"
            f" + {scan_evaluations} scan evaluations"
        )
    if sum(1 for r in trace if r["constraint_value"]) != evaluations:
        return f"trace rows with a constraint value differ from {evaluations} evaluations"
    loop_rows = trace[:iterations]
    if sum(1 for r in decisions if r["evaluate_constraint"] == "true") != sum(
        1 for r in loop_rows if r["constraint_value"]
    ):
        return "decisions marked evaluate_constraint differ from evaluated trace rows"
    if any(t["sim_time"] != d["sim_time"] for t, d in zip(loop_rows, decisions)):
        return "trace and decision clocks disagree"
    if len(trials) != int(row["total_trials"]):
        return f"{len(trials)} trial rows for {row['total_trials']} trials"
    if not trace:
        return "empty trace"
    times = [float(r["sim_time"]) for r in trace]
    if any(b <= a for a, b in zip(times, times[1:])):
        return "simulated clock is not strictly increasing"
    # Work is issued only while the clock is below the budget, so every loop
    # row but the last ends in budget; the last one may overrun it.
    if iterations > 1 and times[iterations - 2] >= budget:
        return "an iteration was issued after the budget was spent"
    if float(row["total_cost"]) != times[-1]:
        return f"total_cost {row['total_cost']} differs from last sim_time {times[-1]!r}"
    return None


def check_semantics(
    out_dir: Path, arms: list[dict], seeds: list[int]
) -> tuple[dict[tuple[str, int], str], int]:
    """Runs that violate an output invariant, and the primary iterations run.

    The iteration count is the sum of ``primary_iterations`` over the rows
    of ``summary.csv``.
    """
    expected = [(arm["name"], seed) for arm in arms for seed in seeds]
    try:
        rows = _read_csv(out_dir / "summary.csv")
        listed = [(r["arm"], int(r["seed"])) for r in rows]
    except (OSError, ValueError, KeyError) as exc:
        return {key: f"summary.csv unreadable: {exc!r}" for key in expected}, 0
    if listed != expected:
        return {key: "summary.csv rows are not arms x seeds" for key in expected}, 0
    by_name = {arm["name"]: arm for arm in arms}
    failed: dict[tuple[str, int], str] = {}
    iterations = 0
    for (name, seed), row in zip(expected, rows):
        try:
            iterations += int(row["primary_iterations"])
            with open(out_dir / f"{name}_summary.json", encoding="utf-8") as handle:
                budget = float(json.load(handle)["budget"])
            problem = _check_run(out_dir, by_name[name], seed, row, budget)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            failed[(name, seed)] = problem
    return failed, iterations
