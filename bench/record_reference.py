"""Record the reference output digests that bench/run.py checks against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs `ace-hpo run` once on every seed group of each named workload (all of
them by default), requires the semantic output check to pass, and writes
the sha256 of every output file to reference/digests.json. Record from the
commit whose outputs are the behavioural contract, never from a change
under test.
"""

from __future__ import annotations

import json
import shutil
import sys

import outputs
from run import BENCH, ROOT, WORKLOADS, cli_args, spawn, stderr_tail


def record(name: str) -> dict[str, dict[str, str]]:
    workload = WORKLOADS[name]
    config_path = ROOT / workload.config
    with open(config_path, encoding="utf-8") as handle:
        arms = json.load(handle)["arms"]
    work = BENCH / ".out" / f"reference-{name}"
    digests = {}
    for seeds in workload.groups():
        out_dir = work / outputs.group_key(seeds)
        err = work / "child.err"
        work.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "ace_hpo.cli", *cli_args(config_path, out_dir, seeds)]
        child = spawn(cmd, err)
        if child.exit_code != 0:
            raise SystemExit(f"{name} seeds {seeds}: exit {child.exit_code}: {stderr_tail(err)}")
        failed, _ = outputs.check_semantics(out_dir, arms, seeds)
        if failed:
            raise SystemExit(f"{name} seeds {seeds}: semantic check failed: {failed}")
        files = outputs.file_digests(out_dir)
        digests[outputs.group_key(seeds)] = files
        print(f"{name} seeds {seeds}: {len(files)} files, {child.wall_s:.2f} s")
    shutil.rmtree(work)
    return digests


def main(names: list[str]) -> int:
    path = outputs.REFERENCE_PATH
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in names or list(WORKLOADS):
        reference[name] = record(name)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
