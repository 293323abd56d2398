"""Unit tests for the TaskGraph data structure."""

import sys

import numpy as np
import pytest

from repro.model.task_graph import Edge, TaskGraph


class TestConstruction:
    def test_add_task_returns_sequential_ids(self):
        graph = TaskGraph(2)
        assert graph.add_task([1, 2]) == 0
        assert graph.add_task([3, 4]) == 1
        assert graph.n_tasks == 2

    def test_default_names_are_one_based(self):
        graph = TaskGraph(2)
        tid = graph.add_task([1, 2])
        assert graph.name(tid) == "T1"

    def test_custom_name(self):
        graph = TaskGraph(1)
        tid = graph.add_task([1], name="decode")
        assert graph.name(tid) == "decode"

    def test_rejects_wrong_cost_arity(self):
        graph = TaskGraph(3)
        with pytest.raises(ValueError, match="expected 3 costs"):
            graph.add_task([1, 2])

    def test_rejects_negative_cost(self):
        graph = TaskGraph(2)
        with pytest.raises(ValueError, match="finite and non-negative"):
            graph.add_task([1, -2])

    def test_rejects_nan_cost(self):
        graph = TaskGraph(2)
        with pytest.raises(ValueError):
            graph.add_task([1, float("nan")])

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError, match="n_procs"):
            TaskGraph(0)


class TestEdges:
    def test_add_edge_and_query(self, diamond):
        assert diamond.has_edge(0, 1)
        assert diamond.comm_cost(0, 1) == 5.0
        assert not diamond.has_edge(1, 0)

    def test_successors_predecessors(self, diamond):
        assert set(diamond.successors(0)) == {1, 2}
        assert set(diamond.predecessors(3)) == {1, 2}
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(3) == 2

    def test_rejects_self_loop(self):
        graph = TaskGraph(1)
        t = graph.add_task([1])
        with pytest.raises(ValueError, match="self-loop"):
            graph.add_edge(t, t, 1.0)

    def test_rejects_duplicate_edge(self, diamond):
        with pytest.raises(ValueError, match="duplicate edge"):
            diamond.add_edge(0, 1, 2.0)

    def test_rejects_negative_comm(self):
        graph = TaskGraph(1)
        a, b = graph.add_task([1]), graph.add_task([1])
        with pytest.raises(ValueError, match="finite and >= 0"):
            graph.add_edge(a, b, -1.0)

    def test_rejects_unknown_task(self):
        graph = TaskGraph(1)
        graph.add_task([1])
        with pytest.raises(KeyError):
            graph.add_edge(0, 5, 1.0)

    def test_missing_edge_raises(self, diamond):
        with pytest.raises(KeyError, match="no edge"):
            diamond.comm_cost(1, 2)

    def test_edges_iterator_yields_edge_objects(self, diamond):
        edges = list(diamond.edges())
        assert len(edges) == 4
        assert all(isinstance(e, Edge) for e in edges)
        assert (0, 1, 5.0) in [(e.src, e.dst, e.cost) for e in edges]

    def test_zero_cost_edge_allowed(self):
        graph = TaskGraph(1)
        a, b = graph.add_task([1]), graph.add_task([1])
        graph.add_edge(a, b, 0.0)
        assert graph.comm_cost(a, b) == 0.0


class TestCosts:
    def test_cost_lookup(self, fig1):
        assert fig1.cost(0, 0) == 14
        assert fig1.cost(0, 2) == 9
        assert fig1.cost(9, 1) == 7

    def test_cost_row_is_readonly(self, fig1):
        row = fig1.cost_row(0)
        with pytest.raises(ValueError):
            row[0] = 99

    def test_cost_matrix_shape_and_copy(self, fig1):
        w = fig1.cost_matrix()
        assert w.shape == (10, 3)
        w[0, 0] = -1  # mutating the copy must not affect the graph
        assert fig1.cost(0, 0) == 14

    def test_empty_graph_cost_matrix(self):
        graph = TaskGraph(4)
        assert graph.cost_matrix().shape == (0, 4)


class TestDerivedViews:
    def test_topological_order_respects_edges(self, fig1):
        order = fig1.topological_order()
        position = {t: i for i, t in enumerate(order)}
        for edge in fig1.edges():
            assert position[edge.src] < position[edge.dst]

    def test_topological_order_detects_cycle(self):
        graph = TaskGraph(1)
        a, b = graph.add_task([1]), graph.add_task([1])
        graph.add_edge(a, b, 1.0)
        graph.add_edge(b, a, 1.0)
        with pytest.raises(ValueError, match="cycle"):
            graph.topological_order()

    def test_entry_exit_tasks(self, fig1):
        assert fig1.entry_tasks() == (0,)
        assert fig1.exit_tasks() == (9,)
        assert fig1.entry_task == 0
        assert fig1.exit_task == 9

    def test_entry_task_raises_on_multiple(self):
        graph = TaskGraph(1)
        graph.add_task([1])
        graph.add_task([1])
        with pytest.raises(ValueError, match="entry tasks"):
            graph.entry_task

    def test_cache_invalidated_on_mutation(self, diamond):
        assert diamond.exit_tasks() == (3,)
        extra = diamond.add_task([1, 1])
        diamond.add_edge(3, extra, 0.5)
        assert diamond.exit_tasks() == (extra,)


class TestNormalization:
    def test_already_normal_graph_is_copied(self, fig1):
        norm = fig1.normalized()
        assert norm.n_tasks == fig1.n_tasks
        assert norm.n_edges == fig1.n_edges
        assert norm is not fig1

    def test_multi_entry_gets_pseudo_entry(self):
        graph = TaskGraph(2)
        a, b = graph.add_task([1, 1]), graph.add_task([2, 2])
        c = graph.add_task([3, 3])
        graph.add_edge(a, c, 1.0)
        graph.add_edge(b, c, 1.0)
        norm = graph.normalized()
        assert norm.n_tasks == 4
        entry = norm.entry_task
        assert norm.name(entry) == "pseudo_entry"
        assert np.all(norm.cost_row(entry) == 0)
        assert all(norm.comm_cost(entry, t) == 0.0 for t in norm.successors(entry))

    def test_multi_exit_gets_pseudo_exit(self):
        graph = TaskGraph(2)
        a = graph.add_task([1, 1])
        b, c = graph.add_task([2, 2]), graph.add_task([3, 3])
        graph.add_edge(a, b, 1.0)
        graph.add_edge(a, c, 1.0)
        norm = graph.normalized()
        assert norm.name(norm.exit_task) == "pseudo_exit"

    def test_multi_entry_and_exit_both_fixed(self):
        graph = TaskGraph(1)
        for _ in range(4):
            graph.add_task([1])
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 3, 1.0)
        norm = graph.normalized()
        assert norm.n_tasks == 6
        assert len(norm.entry_tasks()) == 1
        assert len(norm.exit_tasks()) == 1


class TestConversionsAndScaling:
    def test_to_networkx_roundtrip_structure(self, fig1):
        pytest.importorskip("networkx")
        g = fig1.to_networkx()
        assert g.number_of_nodes() == 10
        assert g.number_of_edges() == 15
        assert g.edges[0, 1]["cost"] == 18

    def test_to_networkx_without_networkx_names_the_extra(self, fig1, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match=r"repro\[graph\]"):
            fig1.to_networkx()

    def test_scaled_comm(self, fig1):
        doubled = fig1.scaled_comm(2.0)
        assert doubled.comm_cost(0, 1) == 36
        assert doubled.cost(0, 0) == 14  # computation untouched

    def test_scaled_comm_zero(self, fig1):
        free = fig1.scaled_comm(0.0)
        assert all(e.cost == 0 for e in free.edges())

    def test_scaled_comm_rejects_negative(self, fig1):
        with pytest.raises(ValueError):
            fig1.scaled_comm(-1.0)

    def test_from_arrays(self):
        graph = TaskGraph.from_arrays(
            np.array([[1.0, 2.0], [3.0, 4.0]]), [(0, 1, 5.0)], names=["x", "y"]
        )
        assert graph.n_tasks == 2
        assert graph.comm_cost(0, 1) == 5.0
        assert graph.name(1) == "y"

    def test_from_arrays_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            TaskGraph.from_arrays(np.array([1.0, 2.0]), [])
