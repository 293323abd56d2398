"""Repository benchmark: one workload, one fresh process, one result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in ``workloads.py``; ``BENCHMARK.json`` says why
each one is there.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
for people: provenance, the per-round table and, with ``--trace 1``, the
per-layer table.

``--trace 0`` (the timed run) repeats rounds for about ``--seconds``.
Round 0 runs twice on the same inputs (both executions must agree
exactly); each later round runs once on inputs of its own.  Times are
normalized to an uncontended host: each execution is timed in parts,
each part divided by the host's slowdown around it, measured with a
fixed slice of reference work (see ``hostspeed.py``; the per-round
table shows raw and normalized walls).  It reports the end-to-end
metrics:

``throughput_per_s``
    units completed over the normalized wall time of all executions.
``cpu_s_per_unit``
    normalized CPU seconds of the process over units completed.
``peak_rss_mb``
    median over executions of the process's peak resident set during
    the execution.
``setup_s``
    median over nine fresh ``probe.py`` processes of the time from
    launching the interpreter to the end of the workload's set-up
    (``import repro`` plus definitions and specs): what each CLI call
    pays before its first real call.  Each probe is normalized by the
    reference launches (``probe.py --reference``) on either side of it.

Units that raised or failed an output check count as ``failed``
(``failed / attempted`` is the error rate, which must read 0).

``--trace 1`` (the traced run) runs the workload's fixed traced rounds
twice: untraced, then with every layer's entry points wrapped (see
``tracer.py``).  Both passes must produce identical outputs and counts.
It reports the per-layer metrics of ``layers.py``, including
``trace.overhead_frac``, and writes the spans to
``.perfbench/trace-<workload>-seed<N>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import common

PROBES = 9


def _reset_peak_rss() -> None:
    """Hand freed heap back to the OS, then restart the kernel's peak-RSS
    count (VmHWM) at the current RSS, so an execution's peak does not
    include what an earlier round left in the allocator."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass  # not glibc
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the reading below is then the process's all-time peak


def _peak_rss_mb() -> float:
    """Peak resident set since the last reset, in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, trace: int) -> Dict[str, object]:
    import numpy

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "tiny": workload.tiny,
        "size": workload.size(),
    }


def probe_setup(name: str, tiny: bool) -> float:
    """Seconds from launching a fresh interpreter to its set-up done
    (``name`` ``--reference`` times the reference launch)."""
    cmd = [sys.executable, str(common.ROOT / "perfbench" / "probe.py"), name]
    if tiny:
        cmd.append("--tiny")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed")
    return elapsed


def measure_setup(name: str, tiny: bool, probes: int) -> float:
    """Median over ``probes`` set-up probes, each divided by the mean of
    the reference launches just before and after it (``hostspeed.py``)."""
    import hostspeed

    samples = []
    before = probe_setup("--reference", False)
    for _ in range(probes):
        elapsed = probe_setup(name, tiny)
        after = probe_setup("--reference", False)
        samples.append(
            elapsed * 2.0 * hostspeed.REFERENCE_LAUNCH_S / (before + after)
        )
        before = after
    return statistics.median(samples)


class Ledger:
    """Attempted/failed units and the problems behind failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, units: int, problems: List[str]) -> None:
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems)

    def fail(self, units: int, problem: str) -> None:
        """Mark already-attempted units failed."""
        self.failed += units
        self.problems.append(problem)


class Meter:
    """Times one execution in parts, with a reference slice around each.

    The workload calls :meth:`checkpoint` between steps of a round (the
    sweeps pass it to ``run_sweep`` as the ``progress`` callback, which
    fires at every x value).  A part closes at the first checkpoint after
    it has run for ``MIN_PART_S``, and at the end of the execution; a
    slice of reference work (``hostspeed.py``) is timed before the first
    part and after each one, outside the measured time.  Each part's wall
    and CPU time is divided by the host's slowdown across it, taken from
    the slices on either side.
    """

    MIN_PART_S = 0.2

    def __init__(self) -> None:
        # imported here, not at the top: it loads NumPy, whose import
        # belongs to the workload's measured set-up
        import hostspeed

        self._hostspeed = hostspeed
        self.last_slice = hostspeed.slice_s()
        self.wall = self.cpu = 0.0
        self.norm_wall = self.norm_cpu = 0.0
        self.factors: List[float] = []
        self.peak_rss_mb = 0.0
        _reset_peak_rss()
        self._open()

    def _open(self) -> None:
        self._started = time.perf_counter()
        self._cpu0 = time.process_time()

    def checkpoint(self, *_progress) -> None:
        if time.perf_counter() - self._started >= self.MIN_PART_S:
            self.close()
            self._open()

    def close(self) -> None:
        wall = time.perf_counter() - self._started
        cpu = time.process_time() - self._cpu0
        self.peak_rss_mb = _peak_rss_mb()
        after = self._hostspeed.slice_s()
        factor = self._hostspeed.factor(self.last_slice, after)
        self.last_slice = after
        self.wall += wall
        self.cpu += cpu
        self.norm_wall += wall / factor
        self.norm_cpu += cpu / factor
        self.factors.append(factor)

    def host(self) -> float:
        """Mean slowdown over the parts."""
        return statistics.fmean(self.factors)


def execute_round(wl, seed: int, oracle: bool, ledger: Ledger, tracer=None,
                  meter=None):
    """Run one round timed, then check and summarize it untimed.

    Returns ``(wall, cpu, counts, digest)``, or None when the
    round raised (its units count as failed).  With a ``meter``, the
    times are the meter's raw sums, slices excluded.
    """
    cpu0 = time.process_time()
    started = time.perf_counter()
    try:
        if tracer is not None:
            tracer.start()
            with tracer.span("round", seed=seed):
                output = wl.run_round(seed)
            tracer.stop()
        elif meter is not None:
            output = wl.run_round(seed, meter.checkpoint)
            meter.close()
        else:
            output = wl.run_round(seed)
    except Exception as exc:  # a failed operation is a result, not a crash
        if tracer is not None:
            tracer.stop()
        ledger.record(wl.units(), [f"round {seed}: {type(exc).__name__}: {exc}"])
        return None
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu0
    if meter is not None:
        wall, cpu = meter.wall, meter.cpu
    try:
        problems = wl.check(output, seed, oracle)
        counts = wl.summary(output)
        digest = wl.digest(output)
    except Exception as exc:
        ledger.record(wl.units(), [f"round {seed} check: {type(exc).__name__}: {exc}"])
        return None
    ledger.record(wl.units(), [f"round {seed}: {p}" for p in problems])
    return wall, cpu, counts, digest


def timed_run(wl, args, ledger: Ledger) -> Dict[str, Tuple[float, str]]:
    """``--trace 0``: rounds for ``--seconds``, then set-up probes.

    Round 0 runs twice on the same inputs, and the two executions must
    agree exactly; every later round runs once, on inputs of its own.
    Every execution is timed by a :class:`Meter`, so its figures are
    divided by the host's slowdown while it ran and do not drift with
    the load other tenants put on the host.  Throughput and CPU per unit
    are totals over the executions; peak RSS is the median over them.
    """
    from workloads import round_seed

    walls: List[float] = []
    cpus: List[float] = []
    rss: List[float] = []
    factors: List[float] = []
    index = 0
    units = wl.units()
    print(f"{'round':>5} {'seed':>10} {'wall_s':>9} {'host':>6} "
          f"{'norm_wall_s':>11} {wl.unit + '/s':>16} {'rss_mb':>8}")
    started = time.perf_counter()
    last = 0.0
    first = None
    # start another round while that keeps the run closest to --seconds:
    # it ends within half a round of the target
    while index < 2 or time.perf_counter() - started + last / 2 < args.seconds:
        round_started = time.perf_counter()
        seed = round_seed(args.seed, max(index - 1, 0))
        meter = Meter()
        result = execute_round(wl, seed, index == 0, ledger, meter=meter)
        if result is None:
            break
        if index == 0:
            first = result
        elif index == 1 and first[2:] != result[2:]:
            ledger.fail(units, f"round {seed}: repeat differs from first run")
        walls.append(meter.norm_wall)
        cpus.append(meter.norm_cpu)
        rss.append(meter.peak_rss_mb)
        factors.extend(meter.factors)
        print(f"{max(index - 1, 0):5d} {seed:10d} {result[0]:9.4f} "
              f"{meter.host():6.3f} {meter.norm_wall:11.4f} "
              f"{units / meter.norm_wall:16.3f} {meter.peak_rss_mb:8.2f}")
        last = time.perf_counter() - round_started
        index += 1
    setup = measure_setup(wl.name, wl.tiny, 1 if wl.tiny else PROBES)
    if not walls:
        walls, cpus, rss, factors = [1.0], [0.0], [0.0], [1.0]
    print(f"host slowdown over {len(factors)} parts: median "
          f"{statistics.median(factors):.3f}, range "
          f"{min(factors):.3f}-{max(factors):.3f}")
    done = units * len(walls)
    return {
        "setup_s": (setup, "s"),
        "throughput_per_s": (done / sum(walls), "1/s"),
        "cpu_s_per_unit": (sum(cpus) / done, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def _fold(summaries: List[Dict[str, int]]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for c in summaries:
        for key, value in c.items():
            if key.startswith("max_"):
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return counts


def traced_run(wl, args, ledger: Ledger, import_s: float, stamp: Dict):
    """``--trace 1``: fixed rounds untraced, then traced; compare."""
    import layers
    import tracer as tracing
    from workloads import round_seed

    seeds = [round_seed(args.seed, i) for i in range(wl.trace_rounds)]
    passes = []
    for traced in (False, True):
        if traced:
            tracing.install(wl.tracer)
        try:
            rows = [
                execute_round(
                    wl, seed, i == 0 and not traced, ledger,
                    wl.tracer if traced else None,
                )
                for i, seed in enumerate(seeds)
            ]
        finally:
            if traced:
                tracing.uninstall(wl.tracer)
        passes.append(rows)
    plain, traced = passes
    for seed, a, b in zip(seeds, plain, traced):
        if a is not None and b is not None and a[2:] != b[2:]:
            ledger.fail(wl.units(), f"round {seed}: traced pass differs from untraced")
    if any(r is None for r in plain + traced):
        return {}
    counts = _fold([r[2] for r in traced])
    plain_wall = sum(r[0] for r in plain)
    traced_wall = sum(r[0] for r in traced)
    replications = wl.units() * len(seeds) if wl.name in layers.SWEEPS else 0
    metrics = layers.per_layer_metrics(
        wl.tracer, counts, replications, import_s,
        plain_wall / traced_wall - 1.0,
    )
    print(f"traced rounds: {len(seeds)}  untraced wall {plain_wall:.4f} s  "
          f"traced wall {traced_wall:.4f} s")
    print("exact-repeat counts: " + json.dumps(counts, sort_keys=True))
    for line in layers.layer_table(metrics, wl.name):
        print(line)
    common.WORK.mkdir(exist_ok=True)
    path = common.WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
    wl.tracer.dump(str(path), stamp)
    print(f"(spans written to {path})")
    units = {name: unit for name, unit, *_ in layers.PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="minimal sizes, for the self-test only",
    )
    args = parser.parse_args(argv)
    common.prepare()

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, args.tiny, Tracer())
    started = time.perf_counter()
    wl.load()
    import_s = time.perf_counter() - started
    wl.build()
    stamp = provenance(wl, args.seed, args.trace)
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    ledger = Ledger()
    if args.trace:
        metrics = traced_run(wl, args, ledger, import_s, stamp)
    else:
        metrics = timed_run(wl, args, ledger)
    for problem in ledger.problems[:20]:
        print(f"FAILED: {problem}")
    error_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    for name, (value, unit) in metrics.items() if not args.trace else ():
        print(f"{wl.name:18} {name:18} {value:14.6f} {unit}")
    print(f"{wl.name:18} {'error_rate':18} {error_rate:14.6f} ratio "
          f"({ledger.failed} of {ledger.attempted} {wl.unit}s failed)")
    result = {
        "correct": ledger.failed == 0 and not ledger.problems and bool(metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
