"""Kernel-vs-oracle suite: the compiled graph against the recursions it replaced.

The compiled CSR graph (:mod:`repro.model.compiled`) is the only
production path for every derived table the schedulers and metrics
read: upward/downward ranks, PEFT's OCT, mean/std cost vectors, the
CP_MIN bound, the best sequential time, PETS's drc rank and the
precedence-safe list order.  The per-node object-graph recursions
survive only as oracles, and this suite pins every kernel to its oracle
bit for bit on

* the paper's Fig. 1 worked example,
* six realized ``workflows/`` topologies,
* Hypothesis-driven random DAGs across sizes / CCRs / shapes / CPUs.

Two levels:

* **tables** -- each kernel entry point against its oracle;
* **schedules** -- :func:`oracle_tables` serves every derived table
  from its oracle instead of the kernels (exactly what the retired
  ``compiled=False`` mode selected), and every registry scheduler must
  build a bit-identical schedule in both arms -- same CPU, start and
  finish for every task copy -- as must a whole ``run_sweep``
  (statistics and observability counters).
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import common
from repro.baselines.pets import PETS
from repro.baselines.registry import SCHEDULER_FACTORIES, make_scheduler
from repro.generator.parameters import GeneratorConfig
from repro.generator.random_dag import generate_random_graph
from repro.metrics.critical_path import cp_min_lower_bound, critical_path_min
from repro.metrics.metrics import sequential_time
from repro.model.attributes import mean_execution_times, std_execution_times
from repro.model.compiled import CompiledGraph
from repro.model.ranking import (
    downward_rank,
    downward_rank_reference,
    oct_rank,
    optimistic_cost_table,
    optimistic_cost_table_reference,
    upward_rank,
    upward_rank_reference,
)
from repro.model.task_graph import TaskGraph
from repro.workflows import (
    cybershake_workflow,
    epigenomics_workflow,
    fft_workflow,
    gaussian_elimination_workflow,
    molecular_dynamics_workflow,
    montage_workflow,
    paper_example_graph,
)
from tests.test_engine_differential import schedule_signature

# long-running property suite: marked slow (still in the default run,
# deselect explicitly with -m 'not slow' for a quick loop)
pytestmark = pytest.mark.slow

ALL_SCHEDULERS = tuple(SCHEDULER_FACTORIES)
#: GA runs a full evolutionary loop per build (~0.5 s); it gets its own
#: scaled-down Hypothesis case below instead of riding the broad sweep.
FAST_SCHEDULERS = tuple(n for n in ALL_SCHEDULERS if n != "GA")


def random_graph(
    seed: int,
    v: int = 40,
    ccr: float = 1.0,
    alpha: float = 1.0,
    n_procs: int = 4,
):
    config = GeneratorConfig(v=v, ccr=ccr, alpha=alpha, n_procs=n_procs)
    return generate_random_graph(config, np.random.default_rng(seed)).normalized()


def workflow_graphs():
    rng = lambda: np.random.default_rng(42)
    return [
        ("fft", fft_workflow(4, 3, rng()).normalized()),
        ("montage", montage_workflow(20, 3, rng()).normalized()),
        ("molecular", molecular_dynamics_workflow(3, rng()).normalized()),
        ("gaussian", gaussian_elimination_workflow(5, 3, rng()).normalized()),
        ("epigenomics", epigenomics_workflow(4, 3, rng()).normalized()),
        ("cybershake", cybershake_workflow(2, 2, 3, rng()).normalized()),
    ]


def canonical_graphs():
    yield "fig1", paper_example_graph()
    yield from workflow_graphs()
    for seed in range(3):
        yield f"random-{seed}", random_graph(
            seed, v=35 + 20 * seed, ccr=(0.5, 3.0)[seed % 2]
        )
    # a single CPU: the std oracle's n_procs <= ddof branch
    yield "random-1cpu", random_graph(3, v=20, n_procs=1)


# --------------------------------------------------------------------------
# the oracles: object-graph forms of every compiled table
# --------------------------------------------------------------------------
def mean_oracle(graph: TaskGraph) -> np.ndarray:
    return graph.cost_matrix().mean(axis=1)


def std_oracle(graph: TaskGraph, ddof: int = 1) -> np.ndarray:
    if graph.n_procs <= ddof:
        return np.zeros(graph.n_tasks)
    return graph.cost_matrix().std(axis=1, ddof=ddof)


def sequential_oracle(graph: TaskGraph) -> float:
    return float(graph.cost_matrix().sum(axis=0).min())


def precedence_safe_order_oracle(graph, priority, descending=True):
    """The ``sorted()`` key the lexsort in ``precedence_safe_order``
    replaced: priority first, topological position as tie-break."""
    position = {task: i for i, task in enumerate(graph.topological_order())}
    sign = -1.0 if descending else 1.0
    return sorted(
        graph.tasks(), key=lambda t: (sign * priority[t], position[t])
    )


def pets_drc_oracle(graph: TaskGraph) -> np.ndarray:
    return PETS._ranks_levels(graph, "drc")


def _upward_oracle(self, weights=None):
    return upward_rank_reference(self.graph, weights)


def _downward_oracle(self, weights=None):
    return downward_rank_reference(self.graph, weights)


@contextmanager
def oracle_tables():
    """Serve every derived table from its oracle instead of the kernels.

    Patches the :class:`CompiledGraph` artifact methods every consumer
    reads (rank weights default to the patched mean through
    ``_node_weights``), PETS's compiled drc rank, and each module's
    imported ``precedence_safe_order``.
    """
    original_order = common.precedence_safe_order
    order_consumers = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        and getattr(module, "precedence_safe_order", None) is original_order
    ]
    patches = [
        mock.patch.object(
            CompiledGraph, "mean_costs", lambda self: mean_oracle(self.graph)
        ),
        mock.patch.object(
            CompiledGraph,
            "std_costs",
            lambda self, ddof=1: std_oracle(self.graph, ddof),
        ),
        mock.patch.object(CompiledGraph, "upward_rank", _upward_oracle),
        mock.patch.object(CompiledGraph, "downward_rank", _downward_oracle),
        mock.patch.object(
            CompiledGraph,
            "oct_table",
            lambda self: optimistic_cost_table_reference(self.graph),
        ),
        mock.patch.object(
            CompiledGraph,
            "oct_rank",
            lambda self: optimistic_cost_table_reference(self.graph).mean(axis=1),
        ),
        mock.patch.object(
            CompiledGraph,
            "cp_min_bound",
            lambda self: critical_path_min(self.graph)[0],
        ),
        mock.patch.object(
            CompiledGraph,
            "sequential_time",
            lambda self: sequential_oracle(self.graph),
        ),
        mock.patch.object(PETS, "_ranks_compiled", staticmethod(pets_drc_oracle)),
    ] + [
        mock.patch.object(module, "precedence_safe_order", precedence_safe_order_oracle)
        for module in order_consumers
    ]
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield


def assert_arms_identical(name: str, graph: TaskGraph, label: str = "") -> None:
    """Build on the kernels and on the oracles; demand exact equality."""
    compiled_arm = make_scheduler(name).build_schedule(graph)
    with oracle_tables():
        oracle_arm = make_scheduler(name).build_schedule(graph)
    context = f"{name} on {label or 'graph'}"
    assert schedule_signature(compiled_arm) == schedule_signature(
        oracle_arm
    ), context
    assert compiled_arm.makespan == oracle_arm.makespan, context


# --------------------------------------------------------------------------
# tables: every kernel against its oracle
# --------------------------------------------------------------------------
def _tie_heavy(priority: np.ndarray) -> np.ndarray:
    """Coarsened priorities: many exact ties, so the tie-break decides."""
    return np.floor(np.asarray(priority) / 25.0)


def kernel_oracle_pairs(graph: TaskGraph):
    """(name, kernel value, oracle value) for every compiled table."""
    mean = mean_oracle(graph)
    std = std_oracle(graph)
    yield "mean_execution_times", mean_execution_times(graph), mean
    for ddof in (0, 1):
        yield (
            f"std_execution_times(ddof={ddof})",
            std_execution_times(graph, ddof=ddof),
            std_oracle(graph, ddof),
        )
    yield "upward_rank", upward_rank(graph), upward_rank_reference(graph, mean)
    yield (
        "upward_rank(std)",
        upward_rank(graph, std),
        upward_rank_reference(graph, std),
    )
    yield "downward_rank", downward_rank(graph), downward_rank_reference(graph, mean)
    yield (
        "downward_rank(std)",
        downward_rank(graph, std),
        downward_rank_reference(graph, std),
    )
    table = optimistic_cost_table_reference(graph)
    yield "optimistic_cost_table", optimistic_cost_table(graph), table
    yield "oct_rank", oct_rank(graph), table.mean(axis=1)
    yield "sequential_time", sequential_time(graph), sequential_oracle(graph)
    yield "cp_min_lower_bound", cp_min_lower_bound(graph), critical_path_min(graph)[0]
    yield "PETS drc rank", PETS._ranks_compiled(graph), pets_drc_oracle(graph)
    rank = upward_rank_reference(graph, mean)
    for priority_name, priority in (("rank", rank), ("ties", _tie_heavy(rank))):
        for descending in (True, False):
            yield (
                f"precedence_safe_order({priority_name}, {descending})",
                common.precedence_safe_order(graph, priority, descending),
                precedence_safe_order_oracle(graph, priority, descending),
            )


def assert_kernels_match_oracles(graph: TaskGraph, label: str) -> None:
    for name, kernel, oracle in kernel_oracle_pairs(graph):
        if isinstance(oracle, list):
            assert kernel == oracle, f"{name} on {label}"
        else:
            assert np.array_equal(kernel, oracle), f"{name} on {label}"
            assert np.asarray(kernel).dtype == np.asarray(oracle).dtype, name


@pytest.mark.parametrize("label", [label for label, _ in canonical_graphs()])
def test_kernels_match_oracles(label):
    assert_kernels_match_oracles(dict(canonical_graphs())[label], label)


@given(
    seed=st.integers(0, 2**31 - 1),
    v=st.integers(1, 60),
    ccr=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    n_procs=st.integers(1, 16),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_dags_kernels_match_oracles(seed, v, ccr, alpha, n_procs):
    graph = random_graph(seed, v, ccr, alpha, n_procs)
    assert_kernels_match_oracles(graph, f"seed={seed} v={v} p={n_procs}")


class TestRankVectors:
    """The rank entry points agree with the oracle arm bit for bit."""

    @pytest.mark.parametrize(
        "func", [upward_rank, downward_rank, optimistic_cost_table, oct_rank]
    )
    def test_bit_identical_between_arms(self, func):
        for label, graph in canonical_graphs():
            compiled_arm = func(graph)
            with oracle_tables():
                oracle_arm = func(graph)
            assert np.array_equal(compiled_arm, oracle_arm), (
                f"{func.__name__} on {label}"
            )

    def test_custom_weights_between_arms(self):
        for label, graph in canonical_graphs():
            weights = np.asarray(std_execution_times(graph))
            for func in (upward_rank, downward_rank):
                compiled_arm = func(graph, weights)
                with oracle_tables():
                    oracle_arm = func(graph, weights)
                assert np.array_equal(compiled_arm, oracle_arm), label

    def test_oracle_arm_really_bypasses_the_kernels(self, fig1):
        """The schedule-level arms below prove nothing unless the oracle
        arm actually stops calling the compiled kernels."""
        with mock.patch.object(
            CompiledGraph, "_upward_kernel", side_effect=AssertionError
        ), mock.patch.object(
            CompiledGraph, "_oct_kernel", side_effect=AssertionError
        ), mock.patch.object(
            CompiledGraph, "_cp_min_kernel", side_effect=AssertionError
        ), mock.patch.object(
            np, "lexsort", side_effect=AssertionError
        ):
            with oracle_tables():
                for name in ("HEFT", "PEFT", "SDBATS", "PETS", "CPOP"):
                    make_scheduler(name).build_schedule(fig1)
                cp_min_lower_bound(fig1)


# --------------------------------------------------------------------------
# schedules: every registry scheduler on the canonical graphs
# --------------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCHEDULERS)
def test_fig1_schedules_identical(name):
    assert_arms_identical(name, paper_example_graph(), "fig1")


@pytest.mark.parametrize("name", ALL_SCHEDULERS)
def test_workflow_schedules_identical(name):
    for label, graph in workflow_graphs():
        assert_arms_identical(name, graph, label)


@pytest.mark.parametrize("name", FAST_SCHEDULERS)
def test_random_dag_schedules_identical(name):
    for seed, v, ccr in ((0, 30, 0.5), (1, 60, 1.0), (2, 100, 3.0)):
        assert_arms_identical(name, random_graph(seed, v, ccr), f"v={v}")


@given(
    seed=st.integers(0, 2**31 - 1),
    v=st.integers(5, 45),
    ccr=st.sampled_from([0.1, 0.5, 1.0, 3.0, 10.0]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=12, deadline=None)
def test_hypothesis_dags_all_fast_schedulers(seed, v, ccr, alpha):
    graph = random_graph(seed, v, ccr, alpha)
    for name in FAST_SCHEDULERS:
        assert_arms_identical(name, graph, f"seed={seed} v={v}")


@given(seed=st.integers(0, 2**31 - 1), v=st.integers(5, 15))
@settings(max_examples=3, deadline=None)
def test_hypothesis_dags_ga(seed, v):
    assert_arms_identical("GA", random_graph(seed, v), f"seed={seed} v={v}")


# --------------------------------------------------------------------------
# whole-sweep equivalence (stats + observability counters)
# --------------------------------------------------------------------------
class TestSweepEquivalence:
    def run_arms(self, reps=3, seed=11):
        from repro.experiments.harness import run_sweep
        from repro.runtime.context import activate, current_context
        from tests.experiments.test_harness import tiny_sweep

        compiled_arm = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        # the batched kernel has no oracle arm of its own: run the oracle
        # sweep on the scalar path, as the object-graph mode used to
        with oracle_tables(), activate(current_context().with_(batch="off")):
            oracle_arm = run_sweep(tiny_sweep(), reps=reps, seed=seed)
        return compiled_arm, oracle_arm

    def test_sweep_stats_bit_identical(self):
        compiled_arm, oracle_arm = self.run_arms()
        for x in oracle_arm.definition.x_values:
            for name in oracle_arm.definition.schedulers:
                a = compiled_arm.stats[x][name]
                b = oracle_arm.stats[x][name]
                assert a.mean == b.mean
                assert a.std == b.std
                assert a.n == b.n

    def test_sweep_counters_bit_identical(self):
        from repro import obs

        with obs.enabled_scope(True), obs.scoped(merge_up=False):
            compiled_arm, oracle_arm = self.run_arms()
        assert oracle_arm.metrics["counters"]
        assert (
            compiled_arm.metrics["counters"] == oracle_arm.metrics["counters"]
        )
