"""HDLTS's fast incremental kernel vs the reference scalar path.

The fast kernel (``engine="fast"``, the default) must produce
bit-identical schedules to the reference path while being substantially
faster.  This bench times both paths on a size sweep in append mode --
from the paper-default fig2 instance (100 tasks on 4 CPUs) up to 1000
tasks on 8 CPUs -- and on the headline configuration of the perf work,
1000 tasks on 8 CPUs with insertion-based mapping, where the reference
pays |ITQ| x CPUs scalar gap scans per step.  It asserts the schedules
match exactly and enforces the >=3x speedup acceptance bar on the
headline run.
"""

import time

import numpy as np

from conftest import emit
from repro import obs
from repro.core import HDLTS
from repro.experiments.report import format_table
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph

#: acceptance bar for the headline 1000-task / 8-CPU insertion run
SPEEDUP_FLOOR = 3.0


def _signature(schedule):
    return {
        task: tuple(
            sorted(
                (c.proc, c.start, c.finish, c.duplicate)
                for c in schedule.copies(task)
            )
        )
        for task in schedule.graph.tasks()
        if schedule.copies(task)
    }


def _time_scheduler(make, graph, reps=3):
    """Best-of-``reps`` wall time; returns (seconds, schedule)."""
    best, schedule = float("inf"), None
    for _ in range(reps):
        scheduler = make()
        started = time.perf_counter()
        result = scheduler.run(graph)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best, schedule = elapsed, result.schedule
    return best, schedule


def test_engine_scaling(benchmark):
    rows = []
    headline_speedup = None
    cases = (
        (100, 4, False),
        (250, 4, False),
        (500, 8, False),
        (1000, 8, False),
        (1000, 8, True),
    )
    # the scheduler itself is what is measured -- profiling collection
    # (enabled suite-wide by benchmarks/conftest.py) stays off here
    with obs.enabled_scope(False):
        for v, n_procs, insertion in cases:
            graph = generate_random_graph(
                GeneratorConfig(v=v, n_procs=n_procs),
                np.random.default_rng(0),
            ).normalized()
            ref_s, ref = _time_scheduler(
                lambda: HDLTS(engine="reference", use_insertion=insertion),
                graph,
            )
            fast_s, fast = _time_scheduler(
                lambda: HDLTS(engine="fast", use_insertion=insertion),
                graph,
            )
            assert _signature(fast) == _signature(ref)
            speedup = ref_s / fast_s if fast_s > 0 else float("inf")
            rows.append(
                [
                    str(v),
                    str(n_procs),
                    "insertion" if insertion else "append",
                    f"{ref_s * 1e3:.1f}",
                    f"{fast_s * 1e3:.1f}",
                    f"{speedup:.1f}x",
                ]
            )
            if (v, n_procs, insertion) == (1000, 8, True):
                headline_speedup = speedup

    emit(
        "engine_scaling",
        "HDLTS wall time: reference vs fast engine (bit-identical "
        "schedules):\n"
        + format_table(
            ["tasks", "CPUs", "mapping", "reference (ms)", "fast (ms)",
             "speedup"],
            rows,
        ),
    )

    assert headline_speedup is not None
    assert headline_speedup >= SPEEDUP_FLOOR, (
        f"fast engine only {headline_speedup:.1f}x faster on the "
        f"1000-task/8-CPU insertion run; the bar is {SPEEDUP_FLOOR}x"
    )

    graph = generate_random_graph(
        GeneratorConfig(v=1000, n_procs=8), np.random.default_rng(0)
    ).normalized()
    benchmark(lambda: HDLTS().run(graph))
