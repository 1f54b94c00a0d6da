"""Benchmark of the user-facing job: `ace-hpo run` over a config's arms x seeds.

    python3 bench/run.py --workload ordering --seed 0 --seconds 30 --trace 0

Each workload is a closed loop: one `ace-hpo run` child process at a time,
single-threaded, each on a group of seeds drawn from the workload's fixed
seed pool in an order set by ``--seed``. Children start until ``--seconds``
of measurement have passed; the last one is not started if it would end
past that. Every child's output directory is checked against the reference
digests and the semantic invariants in ``outputs.py``; an (arm, seed) run
fails when its child exits non-zero, a file is missing or differs, or an
invariant breaks.

``--trace 0`` reports the end-to-end metrics, all in host time:

* setup_s: median over at least seven children, one before each `ace-hpo
  run` child, of spawn to exit of a child that imports ``ace_hpo.cli`` and
  validates the workload's config;
* wall_s: median spawn-to-exit time of an `ace-hpo run` child;
* sim_iters_per_s: median over children of simulated training iterations
  (``primary_iterations`` summed over ``summary.csv``) per second of the
  child's wall time;
* peak_rss_mb: the largest child ``ru_maxrss``;
* ok_frac: (arm, seed) runs that passed every check over runs attempted.

``--trace 1`` runs each seed group twice, untraced and under ``tracer.py``,
and reports the per-layer metrics of the traced children: calls and
seconds per `ace-hpo run` child, microseconds per call, ratios, and the
tracing overhead against the untraced twin.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import outputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 7
# os._exit skips interpreter teardown, which users do not wait for before work.
SETUP_CODE = (
    "import os, sys\n"
    "from ace_hpo.cli import load_config\n"
    "load_config(sys.argv[1])\n"
    "os._exit(0)\n"
)


@dataclass(frozen=True)
class Workload:
    config: str
    seed_pool: tuple[int, ...]
    group_size: int

    def groups(self) -> list[list[int]]:
        pool = list(self.seed_pool)
        return [pool[i : i + self.group_size] for i in range(0, len(pool), self.group_size)]


# Why each workload exists is recorded in BENCHMARK.json; "smoke" is the
# harness self-test run by tests/test_smoke.py.
WORKLOADS = {
    "ordering": Workload("configs/ordering_experiment.json", tuple(range(10)), 1),
    "gate-ablation": Workload("configs/gate_ablation.json", tuple(range(24)), 3),
    "scale": Workload("bench/configs/scale.json", tuple(range(10)), 1),
    "smoke": Workload("bench/configs/smoke.json", (0, 1), 1),
}


@dataclass
class Child:
    wall_s: float
    exit_code: int
    maxrss_mb: float


def spawn(cmd: list[str], stderr_path: Path) -> Child:
    """Run one child to exit and return its wall time, exit code and peak RSS."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def cli_args(config: Path, out_dir: Path, seeds: list[int]) -> list[str]:
    args = ["run", str(config), "--output-dir", str(out_dir)]
    for seed in seeds:
        args += ["--seed", str(seed)]
    return args


def stderr_tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


class Checker:
    """Checks child output directories and counts (arm, seed) runs."""

    def __init__(self, workload: str, config: dict):
        self.arms = config["arms"]
        self.reference = outputs.load_reference(workload)
        self.attempted = 0
        self.failed = 0

    def check(self, child: Child, out_dir: Path, seeds: list[int], err: Path) -> int:
        """Count the runs of one child; return the primary iterations it ran."""
        names = [arm["name"] for arm in self.arms]
        runs = [(arm, seed) for arm in names for seed in seeds]
        self.attempted += len(runs)
        if child.exit_code != 0:
            self.failed += len(runs)
            log(f"seeds {seeds}: exit code {child.exit_code}: {stderr_tail(err)}")
            return 0
        reference = self.reference[outputs.group_key(seeds)]
        failed = outputs.check_digests(outputs.file_digests(out_dir), reference, names, seeds)
        semantic, iterations = outputs.check_semantics(out_dir, self.arms, seeds)
        for key, reason in semantic.items():
            failed[key] = f"{failed[key]}; {reason}" if key in failed else reason
        for (arm, seed), reason in sorted(failed.items()):
            log(f"{arm} seed {seed}: {reason}")
        self.failed += len(failed)
        return iterations


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def measure_setup(config: Path, work: Path) -> float:
    child = spawn([sys.executable, "-c", SETUP_CODE, str(config)], work / "setup.err")
    if child.exit_code != 0:
        raise RuntimeError(f"set-up child failed: {stderr_tail(work / 'setup.err')}")
    return child.wall_s


def seed_groups(workload: Workload, seed: int):
    """Endless cycle over the workload's seed groups in a seed-shuffled order."""
    order = workload.groups()
    random.Random(seed).shuffle(order)
    while True:
        yield from order


def run_plain(
    workload: Workload, config_path: Path, checker: Checker, seconds: float, seed: int, work: Path
) -> dict:
    # Set-up samples are spread over the run, one before each child, so that
    # their median does not hang on one short stretch of machine time.
    setups, walls, rates, rss = [], [], [], []
    deadline = time.perf_counter() + seconds
    for n, seeds in enumerate(seed_groups(workload, seed)):
        setups.append(measure_setup(config_path, work))
        out_dir = work / f"out{n}"
        err = work / f"child{n}.err"
        cmd = [sys.executable, "-m", "ace_hpo.cli", *cli_args(config_path, out_dir, seeds)]
        child = spawn(cmd, err)
        iterations = checker.check(child, out_dir, seeds, err)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(child.wall_s)
        rates.append(iterations / child.wall_s)
        rss.append(child.maxrss_mb)
        if time.perf_counter() + statistics.median(setups) + statistics.median(walls) > deadline:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(config_path, work))
    ok = (checker.attempted - checker.failed) / checker.attempted
    print(f"children {len(walls)}  runs {checker.attempted}  walls {[round(w, 3) for w in walls]}")
    print(f"{'failed_frac':48s} {1 - ok:.6g} frac ({checker.failed}/{checker.attempted} runs)")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sim_iters_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_frac": (ok, "frac"),
    }


def run_traced(
    workload: Workload, config_path: Path, checker: Checker, seconds: float, seed: int, work: Path
) -> dict:
    plain_walls, traced_walls, summaries, groups = [], [], [], []
    deadline = time.perf_counter() + seconds
    for n, seeds in enumerate(seed_groups(workload, seed)):
        spans = work / f"spans{n}.npz"
        plain = [sys.executable, "-m", "ace_hpo.cli"]
        traced = [sys.executable, str(BENCH / "tracer.py"), str(spans)]
        # Alternate which twin runs first so neither always meets a warmer cache.
        for kind in (("plain", "traced") if n % 2 == 0 else ("traced", "plain")):
            out_dir = work / f"{kind}{n}"
            err = work / f"{kind}{n}.err"
            cmd = (plain if kind == "plain" else traced) + cli_args(config_path, out_dir, seeds)
            child = spawn(cmd, err)
            checker.check(child, out_dir, seeds, err)
            shutil.rmtree(out_dir, ignore_errors=True)
            (plain_walls if kind == "plain" else traced_walls).append(child.wall_s)
        if spans.exists():
            summaries.append(tracer.summarize(str(spans)))
            groups.append(seeds)
            spans.unlink()
        pair = plain_walls[-1] + traced_walls[-1]
        if time.perf_counter() + pair > deadline:
            break
    if not summaries:
        raise RuntimeError("no traced child left a span file")
    print(f"traced children {len(summaries)}  runs {checker.attempted}")
    metrics = layer_metrics(summaries, groups, [arm["name"] for arm in checker.arms])
    overhead = (sum(traced_walls) - sum(plain_walls)) / sum(plain_walls)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def layer_metrics(summaries: list[dict], groups: list[list[int]], arms: list[str]) -> dict:
    """Per-layer metrics over traced children; totals are per child."""
    children = len(summaries)

    def total(kind: str, name: str) -> float:
        return sum(s[kind][name] for s in summaries)

    def counter(name: str) -> float:
        return sum(s["counters"].get(name, 0) for s in summaries)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}

    def add(
        name: str, calls: bool = True, self_s: bool = True, s: bool = False, us: bool = False
    ) -> None:
        if calls:
            metrics[f"{name}.calls"] = (total("calls", name) / children, "count")
        if s:
            metrics[f"{name}.s"] = (total("s", name) / children, "s")
        if self_s:
            metrics[f"{name}.self_s"] = (total("self_s", name) / children, "s")
        if us:
            per_call = ratio(total("s", name), total("calls", name))
            metrics[f"{name}.us_per_call"] = (1e6 * per_call, "us")

    add("search_space.sample", us=True)
    add("simulate.make_problem", s=True)
    add("simulate.curve_for")
    add("simulate.metric_noise", us=True)
    add("simulate.eval_opt_metric")
    add("simulate.eval_constraint_metric")
    add("simulate.run_experiment", s=True)

    # Per-arm loop cost: a child's runs come in config order, arms outer.
    per_arm: dict[str, Counter] = {arm: Counter() for arm in arms}
    for summary, seeds in zip(summaries, groups):
        for k, run in enumerate(summary["runs"]):
            per_arm[arms[k // len(seeds)]].update(run)
    us_per_iter = {arm: 1e6 * ratio(a["seconds"], a["iterations"]) for arm, a in per_arm.items()}
    growth = {arm: ratio(a["late"], a["early"]) for arm, a in per_arm.items()}
    for arm in arms:
        print(f"arm {arm}: {us_per_iter[arm]:.1f} us/iter, late/early quarter {growth[arm]:.3f}")
    iterations = sum(a["iterations"] for a in per_arm.values())
    metrics["simulate.run_experiment.us_per_iter"] = (
        1e6 * ratio(total("s", "simulate.run_experiment"), iterations), "us")
    metrics["simulate.run_experiment.us_per_iter.ace"] = (us_per_iter["ace"], "us")
    metrics["simulate.run_experiment.us_per_iter.max_arm"] = (max(us_per_iter.values()), "us")
    metrics["simulate.run_experiment.late_over_early"] = (max(growth.values()), "ratio")

    add("schedulers.step")
    add("schedulers.ace.decide", us=True)
    add("schedulers.asha.decide", us=True)
    stop_ratio = ratio(counter("decide.stop"), counter("decide"))
    metrics["schedulers.rank.stop_ratio"] = (stop_ratio, "ratio")
    add("schedulers.gate", self_s=False)
    evaluations = counter("ace.evaluations")
    eval_ratio = ratio(evaluations, counter("ace.checkpoints"))
    metrics["schedulers.gate.eval_ratio"] = (eval_ratio, "ratio")
    metrics["schedulers.gate.useful_eval_ratio"] = (
        ratio(counter("ace.useful_evaluations"), evaluations), "ratio")
    add("schedulers.scan", self_s=False, s=True)
    metrics["schedulers.scan.evaluations"] = (counter("scan.evaluations") / children, "count")

    add("history.record_checkpoint")
    add("history.group_members")
    records = max(run["records"] for s in summaries for run in s["runs"])
    metrics["history.records.len"] = (records, "count")

    add("cost_model.choose_interval")
    add("cli.load_config", calls=False, self_s=False, s=True)
    add("cli.emit", calls=False, self_s=False, s=True)
    metrics["cli.emit.rows"] = (counter("emit.rows") / children, "count")
    metrics["cli.emit.bytes"] = (counter("emit.bytes") / children, "B")

    print_split(summaries)
    return metrics


def print_split(summaries: list[dict]) -> None:
    """Self-time shares of the traced `ace-hpo run` time, by module and by name."""
    main = sum(s["s"]["cli.main"] for s in summaries)
    shares = Counter()
    for summary in summaries:
        shares.update({name: t / main for name, t in summary["self_s"].items()})
    layers = Counter()
    for name, share in shares.items():
        layers[name.split(".")[0]] += share
    calibration = sum(s["s"]["simulate.make_problem"] for s in summaries) / main
    print(f"calibration (simulate.make_problem incl.) {100 * calibration:.1f}%")
    print("self by layer: " + ", ".join(f"{n} {100 * v:.1f}%" for n, v in layers.most_common()))
    for name, share in shares.most_common():
        print(f"  self {100 * share:5.1f}%  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config_path = ROOT / workload.config
    if not (SRC / "ace_hpo" / "cli.py").is_file() or not config_path.is_file():
        log(f"no ace_hpo sources or no {workload.config} under {ROOT}")
        return 2
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    checker = Checker(args.workload, config)

    work = BENCH / ".out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics = run_traced(workload, config_path, checker, args.seconds, args.seed, work)
        else:
            metrics = run_plain(workload, config_path, checker, args.seconds, args.seed, work)
    except RuntimeError as exc:
        log(str(exc))
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
