"""The benchmark's workloads, each driven through the CLI's own calls.

A workload is measured in *rounds*.  One round is a fixed amount of
work whose inputs come from one round seed (``seed * 1000 + index``):

``random_sweep``
    ``run_sweep`` over the fig2 definition (what ``repro figure fig2``
    calls); unit: one replication.
``workflow_sweep``
    ``run_sweep`` over the fig6 definition; unit: one replication.
``stream_mix``
    ``StreamSpec.build`` + ``run_stream`` (what ``repro stream sweep``
    calls per replication) at a light and a heavy Poisson rate, under
    ``OnlineHDLTS`` and ``Static/HEFT``; unit: one completed job.

Every workload exposes the same protocol to ``run.py``: ``load()``
(imports, timed separately as ``setup.import_s``), ``build()``
(definitions and specs), ``run_round(seed)`` (the timed call),
``summary(output)`` (exact-repeat counts, read after the timer stops),
``digest(output)`` (a value that two runs of one round seed must
reproduce exactly) and ``check(output, seed, oracle)``
(output checks, untimed; returns the problems found).

A fourth workload, ``persisted_drivers`` (fig13 through the run-dir,
campaign and service drivers with two worker processes each), was tried
and left out: much of its time is process spawn, lease polling and
sleeps, which neither raw nor host-normalized timing holds steady on a
shared host (see ``hostspeed.py``).

This module imports nothing from ``repro`` at import time, so the
import cost lands in ``load()`` where it is measured.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from tracer import Tracer


def round_seed(seed: int, index: int) -> int:
    """Inputs of round ``index`` of a run started with ``--seed seed``."""
    return abs(int(seed)) * 1000 + index


def stats_digest(result) -> Tuple:
    """Bit-exact state of a SweepResult's accumulators."""
    cells = []
    for x in result.definition.x_values:
        for name, acc in result.stats[x].items():
            cells.append(
                (x, name, acc.n, acc.mean, acc.variance, acc.min, acc.max)
            )
    return tuple(cells)


def _diff(label: str, got, want) -> List[str]:
    if got == want:
        return []
    for a, b in zip(got, want):
        if a != b:
            return [f"{label}: {a} != {b}"]
    return [f"{label}: {len(got)} cells != {len(want)}"]


class Workload:
    """Protocol shared by the workloads (see the module docstring)."""

    name = ""
    unit = ""
    #: rounds the traced run executes, once untraced and once traced
    trace_rounds = 1

    def __init__(self, tiny: bool, tracer: Tracer) -> None:
        self.tiny = tiny
        self.tracer = tracer

    def load(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def size(self) -> Dict[str, object]:
        raise NotImplementedError

    def run_round(self, seed: int, checkpoint=None):
        """The timed call.  A timed execution passes ``checkpoint``, to be
        called between steps of the round (see ``run.Meter``)."""
        raise NotImplementedError

    def summary(self, output) -> Dict[str, int]:
        raise NotImplementedError

    def digest(self, output):
        raise NotImplementedError

    def check(self, output, seed: int, oracle: bool) -> List[str]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# serial sweeps: repro figure
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    unit = "replication"

    def __init__(self, figure: str, reps: int, *args) -> None:
        super().__init__(*args)
        self.figure = figure
        self.reps = 2 if self.tiny else reps

    def load(self) -> None:
        import repro.experiments  # noqa: F401
        import repro.experiments.harness  # noqa: F401

    def build(self) -> None:
        from repro.experiments import get_figure

        self.definition = get_figure(self.figure)

    def size(self) -> Dict[str, object]:
        return {
            "definition": self.figure,
            "x_values": list(self.definition.x_values),
            "reps_per_round": self.reps,
            "schedulers": list(self.definition.schedulers),
            "batch": "auto",
        }

    def run_round(self, seed: int, checkpoint=None):
        from repro.experiments.harness import run_sweep

        with self.tracer.span("experiments.sweep", figure=self.figure):
            return run_sweep(
                self.definition, reps=self.reps, seed=seed, progress=checkpoint
            )

    def units(self) -> int:
        return self.reps * len(self.definition.x_values)

    def summary(self, output):
        instances = sum(
            next(iter(cells.values())).n for cells in output.stats.values()
        )
        return {"instances": instances}

    def digest(self, output):
        return stats_digest(output)

    def check(self, output, seed: int, oracle: bool) -> List[str]:
        problems = []
        for x, cells in output.stats.items():
            for name, acc in cells.items():
                if acc.n != self.reps:
                    problems.append(f"{name}@{x}: {acc.n} of {self.reps} reps")
                elif not (math.isfinite(acc.mean) and acc.min >= 1.0):
                    # SLR is a makespan over its critical-path lower bound
                    problems.append(f"{name}@{x}: SLR min {acc.min}")
        if oracle:
            from repro.experiments.harness import run_sweep
            from repro.runtime.context import activate, current_context

            reference = current_context().with_(engine="reference", batch="off")
            with activate(reference):
                want = run_sweep(
                    self.definition, reps=self.reps, seed=seed, validate=True
                )
            problems += _diff(
                f"{self.figure} vs reference engine",
                stats_digest(output), stats_digest(want),
            )
        return problems


# ----------------------------------------------------------------------
# job-stream arena: repro stream sweep
# ----------------------------------------------------------------------
class StreamWorkload(Workload):
    name = "stream_mix"
    unit = "job"
    trace_rounds = 2
    RATES = (("light", 0.002), ("heavy", 0.02))
    POLICIES = (("online", "OnlineHDLTS"), ("static", "Static/HEFT"))

    def load(self) -> None:
        import numpy  # noqa: F401
        import repro.stream  # noqa: F401

    def build(self) -> None:
        from repro.experiments.graphspec import GraphSpec
        from repro.stream import ArrivalSpec, StreamSpec

        self.n_jobs = 6 if self.tiny else 120
        self.spec = StreamSpec(
            job=GraphSpec(
                "random",
                {"axis": "v", "n_procs": 4, "ccr": 1.0, "beta": 1.0},
            ),
            arrival=ArrivalSpec("poisson", rate=self.RATES[1][1]),
            n_jobs=self.n_jobs,
            axis="rate",
            job_x=20,
            noise={"kind": "gaussian", "sigma": 0.2},
        )

    def size(self) -> Dict[str, object]:
        return {
            "jobs_per_stream": self.n_jobs,
            "tasks_per_job": 20,
            "cpus": 4,
            "ccr": 1.0,
            "sigma": 0.2,
            "rates": dict(self.RATES),
            "policies": [p for _, p in self.POLICIES],
        }

    def run_round(self, seed: int, checkpoint=None):
        import numpy as np

        from repro.stream import run_stream

        runs = []
        for x_index, (label, rate) in enumerate(self.RATES):
            # the sweep harness's replication key (seed, x_index, rep)
            rng = np.random.default_rng([seed, x_index, 0])
            with self.tracer.span("stream.build", rate=label):
                instance = self.spec.build(rate, rng)
            for policy_label, policy in self.POLICIES:
                with self.tracer.span(
                    "stream.run", rate=label, policy=policy_label
                ) as attrs:
                    result = run_stream(instance, policy)
                    attrs["dispatches"] = len(result.records)
                runs.append((label, policy_label, instance, result))
                if checkpoint is not None:
                    checkpoint()
        return runs

    def units(self) -> int:
        return len(self.RATES) * len(self.POLICIES) * self.n_jobs

    def summary(self, output):
        from repro.stream.metrics import queue_depth_series

        counts: Dict[str, int] = {"instances": 0}
        for label, policy_label, _instance, result in output:
            counts["instances"] += len(result.finished_jobs())
            tag = f"{label}_{policy_label}"
            counts[f"jobs_{tag}"] = len(result.finished_jobs())
            counts[f"dispatches_{tag}"] = len(result.records)
            counts[f"max_queue_depth_{tag}"] = max(
                depth for _t, depth in queue_depth_series(result)
            )
        return counts

    def digest(self, output):
        return tuple(
            (
                label,
                policy_label,
                result.horizon,
                tuple((j.arrival, j.finish) for j in result.jobs),
                tuple((r.proc, r.start, r.finish) for r in result.records),
            )
            for label, policy_label, _instance, result in output
        )

    def check(self, output, seed: int, oracle: bool) -> List[str]:
        from repro.qa.invariants import run_stream_invariants

        problems = []
        for label, policy_label, instance, result in output:
            report = run_stream_invariants(instance, result)
            if not report.ok:
                problems.append(f"{label}/{policy_label}: {report.format()}")
            unfinished = len(result.jobs) - len(result.finished_jobs())
            if unfinished:
                problems.append(f"{label}/{policy_label}: {unfinished} jobs unfinished")
        return problems


def make(name: str, tiny: bool, tracer: Tracer) -> Workload:
    """The workload called ``name``."""
    if name == "random_sweep":
        wl = SweepWorkload("fig2", 10, tiny, tracer)
        wl.trace_rounds = 8
    elif name == "workflow_sweep":
        wl = SweepWorkload("fig6", 20, tiny, tracer)
        wl.trace_rounds = 8
    elif name == "stream_mix":
        return StreamWorkload(tiny, tracer)
    else:
        raise KeyError(name)
    wl.name = name
    return wl


NAMES = ("random_sweep", "workflow_sweep", "stream_mix")
