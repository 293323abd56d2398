"""Scalar attributes of the scheduling problem (Definitions 1-9).

These are the primitive quantities every list scheduler builds on: mean
execution time (Eq. 1), placement-aware communication cost (Eq. 2) and the
sample standard deviation used by the HDLTS penalty value (Eq. 8) and by
SDBATS ranks.  Schedule-state-dependent quantities (Ready/EST/EFT, Eqs. 5-7)
live with the timeline substrate in :mod:`repro.schedule`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph

__all__ = [
    "mean_execution_time",
    "mean_execution_times",
    "communication_cost",
    "sample_std",
    "std_execution_times",
]


def mean_execution_time(graph: TaskGraph, task: int) -> float:
    """Mean of a task's execution time over all CPUs -- Eq. (1)."""
    return float(graph.cost_row(task).mean())


def mean_execution_times(graph: TaskGraph) -> np.ndarray:
    """Vector of Eq. (1) values for every task.

    Computed once per graph instance and returned as a shared
    read-only array.
    """
    if graph.n_tasks == 0:
        return np.zeros(0)
    return compile_graph(graph).mean_costs()


def std_execution_times(graph: TaskGraph, ddof: int = 1) -> np.ndarray:
    """Per-task standard deviation of execution time across CPUs.

    SDBATS keys its upward rank on this heterogeneity measure.  With a
    single CPU the deviation is defined as zero.  Computed once per graph
    instance and returned as a shared read-only array.
    """
    if graph.n_tasks == 0:
        return np.zeros(0)
    return compile_graph(graph).std_costs(ddof=ddof)


def communication_cost(
    graph: TaskGraph,
    src: int,
    dst: int,
    src_proc: Optional[int] = None,
    dst_proc: Optional[int] = None,
) -> float:
    """Placement-aware communication cost -- Eq. (2).

    When both endpoints are mapped to the same CPU the cost collapses to
    zero; when either placement is unknown (``None``) the full inter-CPU
    cost is returned (the pessimistic pre-placement estimate).
    """
    if src_proc is not None and src_proc == dst_proc:
        return 0.0
    return graph.comm_cost(src, dst)


def sample_std(values: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) -- the PV convention, Eq. (8).

    Verified against every penalty value in the paper's Table I trace
    (see DESIGN.md).  Degenerates to 0.0 for a single value so that a
    1-CPU platform still yields a total order.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return 0.0
    return float(arr.std(ddof=1))
