"""Workflow / platform model substrate.

This package provides the static application-workflow model of the paper's
Section III: a DAG of tasks with a per-(task, CPU) computation-cost matrix
``W`` and per-edge communication costs, plus the heterogeneous-platform model
(Definitions 1-2) that compiles a *physical* workflow (instruction counts,
data volumes) against a CPU/bandwidth description into the abstract cost
model every scheduler consumes.
"""

from repro.model.task_graph import TaskGraph, Edge
from repro.model.compiled import CompiledGraph, compile_graph
from repro.model.platform import Platform, Workflow, compile_workflow
from repro.model.attributes import (
    mean_execution_time,
    mean_execution_times,
    communication_cost,
    sample_std,
)
from repro.model.levels import level_decomposition, graph_height, graph_width
from repro.model.ranking import (
    upward_rank,
    downward_rank,
    optimistic_cost_table,
)
from repro.model.validation import ValidationError, validate_task_graph
from repro.model.reduction import transitive_reduction, redundant_edges
from repro.model.profile import GraphProfile, graph_profile

__all__ = [
    "TaskGraph",
    "Edge",
    "CompiledGraph",
    "compile_graph",
    "Platform",
    "Workflow",
    "compile_workflow",
    "mean_execution_time",
    "mean_execution_times",
    "communication_cost",
    "sample_std",
    "level_decomposition",
    "graph_height",
    "graph_width",
    "upward_rank",
    "downward_rank",
    "optimistic_cost_table",
    "ValidationError",
    "validate_task_graph",
    "transitive_reduction",
    "redundant_edges",
    "GraphProfile",
    "graph_profile",
]
