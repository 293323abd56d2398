"""Self-test of the benchmark at minimal size.

``python3 perfbench/selftest.py`` (from the root of a checkout):

* runs every workload tiny and traced, twice at one seed, and requires
  ``correct``, zero failures and identical exact-repeat counts (every
  ``count`` metric) across the two runs;
* runs every workload tiny and timed once, and requires every
  end-to-end metric to be present, positive and in its unit;
* checks that ``BENCHMARK.json`` declares exactly the metrics
  ``layers.py`` reports;
* checks that the benchmark refuses to run (non-zero exit, no result
  line) from a directory holding only ``BENCHMARK.json`` and
  ``perfbench/``.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common
import layers
import workloads

RUN = str(common.ROOT / "perfbench" / "run.py")


def _run(workload: str, trace: int, cwd=None) -> dict:
    cmd = [
        sys.executable, RUN, "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=300, cwd=cwd,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_declaration() -> None:
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]]
    if e2e != list(layers.END_TO_END):
        raise AssertionError(f"end_to_end {e2e} != {layers.END_TO_END}")
    per_layer = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    want = [(name, unit) for name, unit, *_ in layers.PER_LAYER]
    if per_layer != want:
        raise AssertionError("per_layer in BENCHMARK.json != layers.PER_LAYER")
    names = [w["name"] for w in declared["workloads"]]
    if names != list(workloads.NAMES):
        raise AssertionError(f"workloads {names} != {workloads.NAMES}")


def check_workload(name: str) -> None:
    first, second = _run(name, 1), _run(name, 1)
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"{name}: traced run not correct: {result}")
    units = {n: u for n, u, *_ in layers.PER_LAYER}
    if set(first["metrics"]) != set(units):
        raise AssertionError(f"{name}: per-layer metric names differ")
    for metric, unit in units.items():
        if unit != "count":
            continue
        a = first["metrics"][metric]["value"]
        b = second["metrics"][metric]["value"]
        if a != b:
            raise AssertionError(f"{name}: count {metric} {a} != {b}")
    timed = _run(name, 0)
    if not timed["correct"] or timed["failed"]:
        raise AssertionError(f"{name}: timed run not correct: {timed}")
    for metric, unit, _better in layers.END_TO_END:
        entry = timed["metrics"][metric]
        if entry["unit"] != unit or not entry["value"] > 0:
            raise AssertionError(f"{name}: bad {metric}: {entry}")
    print(f"ok  {name}: error_rate 0, counts repeat, end-to-end metrics present")


def check_refuses_bare_directory() -> None:
    bare = common.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            common.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             workloads.NAMES[0], "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"correct"' in out.stdout:
        raise AssertionError("benchmark ran without the program's sources")
    print("ok  refuses to run without src/")


def main() -> int:
    common.prepare()
    check_declaration()
    print("ok  BENCHMARK.json matches layers.py")
    check_refuses_bare_directory()
    for name in workloads.NAMES:
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
