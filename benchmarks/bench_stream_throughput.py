"""Stream-arena throughput bench: jobs per wall-clock second.

Materializes Poisson job streams from one :class:`StreamSpec` and
measures how many jobs the arena pushes through per second of scheduler
wall time for each policy, alongside the fleet metrics the streaming
docs headline (mean sojourn, utilization).  A generous jobs/sec floor
catches order-of-magnitude regressions; the tighter wall-time gate is
the perf-smoke factor check against ``BENCH_baseline.json``.

The scaling-shape gate holds the arena's per-job cost flat in stream
length: at a light rate the work in flight stays constant, so jobs/s on
one 480-job stream must stay within 1.5x of jobs/s on 30-job streams.
A ratio of two runs on the same machine, it does not depend on how fast
the machine is.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import bench_reps, emit
from repro.experiments.graphspec import GraphSpec
from repro.experiments.report import format_table
from repro.metrics.stats import RunningStats
from repro.stream import run_stream
from repro.stream.arrivals import ArrivalSpec
from repro.stream.metrics import STREAM_METRICS
from repro.stream.spec import DEFAULT_POLICIES, StreamSpec

_SPEC = StreamSpec(
    job=GraphSpec("random", {"axis": "v", "n_procs": 4, "ccr": 1.0}),
    arrival=ArrivalSpec("poisson", rate=0.02),
    n_jobs=30,
    job_x=20,
    noise={"kind": "gaussian", "sigma": 0.2},
)

#: deliberately loose -- catches order-of-magnitude regressions only
_FLOOR_JOBS_PER_S = 10.0

#: light rate of the scaling gate: jobs rarely overlap at any length
_LIGHT_RATE = 0.002
_SHORT_JOBS, _LONG_JOBS = 30, 480
#: largest allowed jobs/s(short) / jobs/s(long)
_MAX_SLOWDOWN = 1.5
_SCALING_POLICIES = ("OnlineHDLTS", "Static/HEFT")


def test_stream_throughput(benchmark):
    reps = bench_reps()
    jobs_per_s = {name: RunningStats() for name in DEFAULT_POLICIES}
    sojourn = {name: RunningStats() for name in DEFAULT_POLICIES}
    utilization = {name: RunningStats() for name in DEFAULT_POLICIES}
    for rep in range(reps):
        rng = np.random.default_rng([47, rep])
        instance = _SPEC.build(0.02, rng)
        for name in DEFAULT_POLICIES:
            started = time.perf_counter()
            result = run_stream(instance, name)
            wall = time.perf_counter() - started
            jobs_per_s[name].add(len(result.finished_jobs()) / wall)
            sojourn[name].add(STREAM_METRICS["sojourn"](result))
            utilization[name].add(STREAM_METRICS["utilization"](result))
    rows = [
        [
            name,
            f"{jobs_per_s[name].mean:.0f}",
            f"{sojourn[name].mean:.1f}",
            f"{utilization[name].mean:.2f}",
        ]
        for name in DEFAULT_POLICIES
    ]
    emit(
        "stream_throughput",
        f"Poisson stream, {_SPEC.n_jobs} jobs of v={_SPEC.job_x} on 4 CPUs "
        f"(reps={reps}, sigma=0.2):\n"
        + format_table(
            ["policy", "jobs/s", "mean sojourn", "utilization"], rows
        ),
    )
    floor = min(stats.mean for stats in jobs_per_s.values())
    assert floor > _FLOOR_JOBS_PER_S, (
        f"stream arena throughput collapsed: {floor:.1f} jobs/s"
    )

    instance = _SPEC.build(0.02, np.random.default_rng([47, 0]))
    benchmark(lambda: run_stream(instance, "OnlineHDLTS"))


def _stream_wall(instances, policy) -> float:
    started = time.perf_counter()
    for instance in instances:
        result = run_stream(instance, policy)
        assert all(job.finished for job in result.jobs)
    return time.perf_counter() - started


def test_stream_scaling_shape(benchmark):
    """jobs/s at 480 jobs stays within 1.5x of jobs/s at 30 (light rate)."""
    long_spec = replace(_SPEC, n_jobs=_LONG_JOBS)
    short_spec = replace(_SPEC, n_jobs=_SHORT_JOBS)
    long_stream = [
        long_spec.build(_LIGHT_RATE, np.random.default_rng([48, 0]))
    ]
    # as many jobs in short streams as in the long one
    short_streams = [
        short_spec.build(_LIGHT_RATE, np.random.default_rng([48, rep]))
        for rep in range(1, _LONG_JOBS // _SHORT_JOBS + 1)
    ]
    arms = (("short", short_streams), ("long", long_stream))
    best = {}
    for _ in range(2):  # interleaved arms, best of two each
        for policy in _SCALING_POLICIES:
            for arm, streams in arms:
                wall = _stream_wall(streams, policy)
                key = (policy, arm)
                best[key] = min(best.get(key, float("inf")), wall)
    rows = []
    slowdowns = {}
    for policy in _SCALING_POLICIES:
        short = _LONG_JOBS / best[(policy, "short")]
        long = _LONG_JOBS / best[(policy, "long")]
        slowdowns[policy] = short / long
        rows.append(
            [policy, f"{short:.0f}", f"{long:.0f}", f"{short / long:.2f}"]
        )
    emit(
        "stream_scaling",
        f"jobs/s vs stream length at Poisson rate {_LIGHT_RATE} "
        f"(v={_SPEC.job_x}, 4 CPUs, best of 2):\n"
        + format_table(
            [
                "policy",
                f"{_SHORT_JOBS} jobs",
                f"{_LONG_JOBS} jobs",
                "slowdown",
            ],
            rows,
        ),
    )
    for policy, slowdown in slowdowns.items():
        assert slowdown < _MAX_SLOWDOWN, (
            f"{policy}: jobs/s at {_LONG_JOBS} jobs is {slowdown:.2f}x "
            f"below {_SHORT_JOBS} jobs; the bar is {_MAX_SLOWDOWN}x"
        )

    benchmark.pedantic(
        lambda: run_stream(short_streams[0], "OnlineHDLTS"), rounds=3
    )
