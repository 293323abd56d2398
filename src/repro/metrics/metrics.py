"""SLR, speedup and efficiency (Eqs. 10-12)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.critical_path import cp_min_lower_bound
from repro.model.task_graph import TaskGraph
from repro.schedule.schedule import Schedule

__all__ = [
    "slr",
    "speedup",
    "efficiency",
    "sequential_time",
    "evaluate",
    "MetricReport",
]


def sequential_time(graph: TaskGraph) -> float:
    """Eq. 11 numerator: the best single-CPU sequential execution time
    (minimum over CPUs of the column sum of ``W``)."""
    if graph.n_tasks == 0:
        return 0.0
    from repro.model.compiled import compile_graph

    return compile_graph(graph).sequential_time()


def slr(graph: TaskGraph, makespan: float) -> float:
    """Scheduling Length Ratio (Eq. 10). Values >= 1; lower is better."""
    if makespan < 0:
        raise ValueError("makespan must be >= 0")
    bound = cp_min_lower_bound(graph)
    if bound <= 0:
        raise ValueError(
            "critical-path lower bound is zero (all-zero-cost graph); SLR undefined"
        )
    return makespan / bound


def speedup(graph: TaskGraph, makespan: float) -> float:
    """Speedup (Eq. 11): sequential time over parallel makespan."""
    if makespan <= 0:
        raise ValueError("makespan must be positive for speedup")
    return sequential_time(graph) / makespan


def efficiency(graph: TaskGraph, makespan: float) -> float:
    """Efficiency (Eq. 12): speedup per CPU; 1.0 is ideal scaling."""
    return speedup(graph, makespan) / graph.n_procs


@dataclass(frozen=True)
class MetricReport:
    """All Section V-A metrics for one (graph, schedule) pair."""

    makespan: float
    slr: float
    speedup: float
    efficiency: float

    def as_dict(self) -> dict:
        """The metrics as a plain dict (for serialization)."""
        return {
            "makespan": self.makespan,
            "slr": self.slr,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
        }


def evaluate(graph: TaskGraph, schedule: Schedule) -> MetricReport:
    """Compute every comparison metric for a finished schedule."""
    makespan = schedule.makespan
    return MetricReport(
        makespan=makespan,
        slr=slr(graph, makespan),
        speedup=speedup(graph, makespan),
        efficiency=efficiency(graph, makespan),
    )
