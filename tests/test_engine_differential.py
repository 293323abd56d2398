"""Differential tests: fast engine vs reference path, bit-identical.

The incremental fast engines (``engine="fast"``) must reproduce the
reference scalar path (``engine="reference"``) *exactly* -- same CPU,
same start, same finish for every task copy, down to the last bit.  This
module checks that on:

* Hypothesis-generated random layered DAGs across the full HDLTS
  configuration grid (duplication on/off x append/insertion x every
  ``PriorityRule``), on 1 to 16 CPUs;
* the same grid at the sizes figs 3-4 run at: 1000 tasks on 8 and 10
  CPUs;
* the fidelity-matrix graph shapes for every ported baseline;
* the paper's Table I worked example (full trace equality).

Any Hypothesis counterexample should be pinned below as an explicit
regression test with the shrunk graph inlined.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dls import DLS
from repro.baselines.heft import HEFT
from repro.baselines.peft import PEFT
from repro.baselines.pets import PETS
from repro.baselines.sdbats import SDBATS
from repro.core.hdlts import HDLTS, PriorityRule
from repro.generator import GeneratorConfig, generate_random_graph
from repro.model.task_graph import TaskGraph
from repro.workflows.paper_example import paper_example_graph

# long-running property suite: marked slow (still in the default run,
# deselect explicitly with -m 'not slow' for a quick loop)
pytestmark = pytest.mark.slow


def schedule_signature(schedule):
    """Every committed copy of every task, exact floats -- the object of
    the bit-identity guarantee."""
    sig = {}
    for task in schedule.graph.tasks():
        copies = schedule.copies(task)
        if not copies:
            continue
        sig[task] = tuple(
            sorted((c.proc, c.start, c.finish, c.duplicate) for c in copies)
        )
    return sig


def assert_identical(make_scheduler, graph):
    """Run fast and reference variants; demand exact equality."""
    fast = make_scheduler("fast").build_schedule(graph)
    ref = make_scheduler("reference").build_schedule(graph)
    assert schedule_signature(fast) == schedule_signature(ref)
    assert fast.makespan == ref.makespan


# --------------------------------------------------------------------------
# Hypothesis: random layered DAGs x the full HDLTS configuration grid
# --------------------------------------------------------------------------

@st.composite
def task_graphs(draw):
    """Small layered DAGs with adversarial float costs (mirrors the
    strategy in test_properties.py, plus zero-cost and equal-cost rows
    to stress tie-breaking)."""
    # up to 16 CPUs: rows of 8+ EFTs reach NumPy's pairwise summation,
    # which the penalty-value kernel must reproduce exactly
    n_procs = draw(st.integers(min_value=1, max_value=16))
    n_levels = draw(st.integers(min_value=1, max_value=4))
    widths = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n_levels)]
    cost = st.floats(
        min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    comm = st.floats(
        min_value=0.0, max_value=200.0, allow_nan=False, allow_infinity=False
    )

    graph = TaskGraph(n_procs)
    levels = []
    for width in widths:
        level = []
        for _ in range(width):
            if draw(st.booleans()):
                costs = [draw(cost)] * n_procs  # homogeneous row: tie bait
            else:
                costs = [draw(cost) for _ in range(n_procs)]
            level.append(graph.add_task(costs))
        levels.append(level)

    for upper, lower in zip(levels, levels[1:]):
        for child in lower:
            n_parents = draw(
                st.integers(min_value=1, max_value=len(upper))
            )
            parents = draw(
                st.permutations(upper).map(lambda p: p[:n_parents])
            )
            for parent in sorted(parents):
                graph.add_edge(parent, child, draw(comm))
    return graph.normalized()


@settings(max_examples=60, deadline=None)
@given(
    graph=task_graphs(),
    duplicate=st.booleans(),
    insertion=st.booleans(),
    priority=st.sampled_from(list(PriorityRule)),
)
def test_hdlts_fast_matches_reference(graph, duplicate, insertion, priority):
    assert_identical(
        lambda eng: HDLTS(
            duplicate_entry=duplicate,
            use_insertion=insertion,
            priority=priority,
            engine=eng,
        ),
        graph,
    )


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(), insertion=st.booleans())
def test_heft_fast_matches_reference(graph, insertion):
    assert_identical(
        lambda eng: HEFT(insertion=insertion, engine=eng), graph
    )


@settings(max_examples=40, deadline=None)
@given(graph=task_graphs(), insertion=st.booleans())
def test_dls_fast_matches_reference(graph, insertion):
    assert_identical(
        lambda eng: DLS(insertion=insertion, engine=eng), graph
    )


# --------------------------------------------------------------------------
# fig3/fig4 sizes: 1000 tasks on 8 and 10 CPUs x the full HDLTS grid
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def paper_size_graphs():
    return {
        n_procs: generate_random_graph(
            # the figures' generator settings: a real entry task, so
            # Algorithm 1's duplication is live
            GeneratorConfig(v=1000, n_procs=n_procs, single_entry=True),
            np.random.default_rng(n_procs),
        ).normalized()
        for n_procs in (8, 10)
    }


@pytest.mark.parametrize("duplicate", [True, False])
@pytest.mark.parametrize("insertion", [False, True])
@pytest.mark.parametrize("priority", list(PriorityRule))
@pytest.mark.parametrize("n_procs", [8, 10])
def test_hdlts_paper_size_identical(
    paper_size_graphs, n_procs, priority, insertion, duplicate
):
    assert_identical(
        lambda eng: HDLTS(
            duplicate_entry=duplicate,
            use_insertion=insertion,
            priority=priority,
            engine=eng,
        ),
        paper_size_graphs[n_procs],
    )


# --------------------------------------------------------------------------
# Fidelity-matrix shapes x every ported baseline
# --------------------------------------------------------------------------

_SHAPES = {
    "single-cpu": GeneratorConfig(v=40, n_procs=1),
    "comm-free": GeneratorConfig(v=40, ccr=0.0),
    "comm-heavy": GeneratorConfig(v=40, ccr=5.0),
    "homogeneous": GeneratorConfig(v=40, beta=0.0),
    "max-hetero": GeneratorConfig(v=40, beta=2.0),
    "tall": GeneratorConfig(v=40, alpha=0.5, single_entry=True),
    "flat": GeneratorConfig(v=40, alpha=2.5),
}

_BASELINES = {
    "HEFT": lambda eng: HEFT(engine=eng),
    "HEFT-noinsertion": lambda eng: HEFT(insertion=False, engine=eng),
    "PEFT": lambda eng: PEFT(engine=eng),
    "PETS": lambda eng: PETS(engine=eng),
    "PETS-rpt": lambda eng: PETS(variant="rpt", engine=eng),
    "SDBATS": lambda eng: SDBATS(engine=eng),
    "SDBATS-nodup": lambda eng: SDBATS(duplicate_entry=False, engine=eng),
    "DLS": lambda eng: DLS(engine=eng),
    "HDLTS": lambda eng: HDLTS(engine=eng),
    "HDLTS-insertion": lambda eng: HDLTS(use_insertion=True, engine=eng),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
@pytest.mark.parametrize("name", sorted(_BASELINES))
def test_fidelity_shapes_identical(shape, name):
    config = _SHAPES[shape]
    for seed in range(3):
        graph = generate_random_graph(
            config, np.random.default_rng(seed)
        ).normalized()
        assert_identical(_BASELINES[name], graph)


# --------------------------------------------------------------------------
# Table I worked example: full trace equality, not just the schedule
# --------------------------------------------------------------------------

def test_table1_trace_identical():
    graph = paper_example_graph()
    fast = HDLTS(engine="fast").run(graph)
    ref = HDLTS(engine="reference").run(graph)
    assert fast.makespan == ref.makespan == 73.0
    assert fast.trace == ref.trace
    assert schedule_signature(fast.schedule) == schedule_signature(
        ref.schedule
    )


def test_invalid_engine_name_rejected():
    with pytest.raises(ValueError, match="engine"):
        HDLTS(engine="turbo")
    with pytest.raises(ValueError, match="engine"):
        HEFT(engine="turbo").build_schedule(paper_example_graph())
