"""Critical-path computations for the SLR denominator (Eq. 10).

The paper's SLR divides the makespan by ``sum over CP_MIN of min_p W(i,p)``
-- the length of the critical path when every task runs at its fastest.
Following the HEFT paper's convention (which the HDLTS paper cites for its
metrics), ``CP_MIN`` is the longest entry-to-exit chain measured in
*minimum computation costs only*: communication is excluded from the bound
so that it is a true lower bound on any schedule's makespan (a schedule on
one CPU pays no communication), guaranteeing ``SLR >= 1``.

``critical_path_mean`` additionally provides the mean-cost + communication
critical path used descriptively elsewhere in the literature.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.model.task_graph import TaskGraph

__all__ = ["critical_path_min", "cp_min_lower_bound", "critical_path_mean"]


def _longest_path(
    graph: TaskGraph, node_weight: np.ndarray, use_comm: bool
) -> Tuple[float, List[int]]:
    """Longest path (weight, task chain) over the DAG."""
    n = graph.n_tasks
    dist = np.full(n, -np.inf)
    parent = np.full(n, -1, dtype=int)
    for task in graph.topological_order():
        if graph.in_degree(task) == 0:
            dist[task] = node_weight[task]
    for task in graph.topological_order():
        for succ in graph.successors(task):
            comm = graph.comm_cost(task, succ) if use_comm else 0.0
            candidate = dist[task] + comm + node_weight[succ]
            if candidate > dist[succ]:
                dist[succ] = candidate
                parent[succ] = task
    end = int(np.argmax(dist))
    path = [end]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return float(dist[end]), path


def critical_path_min(graph: TaskGraph) -> Tuple[float, List[int]]:
    """``CP_MIN``: longest chain of minimum computation costs.

    Returns ``(length, tasks)`` where ``length`` is the Eq. 10
    denominator -- a lower bound on the makespan of any schedule.
    """
    min_costs = graph.cost_matrix().min(axis=1)
    return _longest_path(graph, min_costs, use_comm=False)


def cp_min_lower_bound(graph: TaskGraph) -> float:
    """Just the Eq. 10 denominator value.

    Computed once per graph instance by the compiled kernel (every
    scheduler of a paired replication divides by the same bound, so the
    longest-path pass runs once instead of once per scheduler);
    :func:`critical_path_min` is its oracle.
    """
    from repro.model.compiled import compile_graph

    return compile_graph(graph).cp_min_bound()


def critical_path_mean(graph: TaskGraph) -> Tuple[float, List[int]]:
    """Mean-cost critical path *including* communication (descriptive)."""
    mean_costs = graph.cost_matrix().mean(axis=1)
    return _longest_path(graph, mean_costs, use_comm=True)
