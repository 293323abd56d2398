"""Unit tests for the scalar EFT engines.

The engines' contract is *bit-identity* with the reference scalar
queries against any live schedule, so every test here compares engine
output to the corresponding :class:`Schedule` /
:func:`entry_duplication_plan` / :meth:`ProcessorTimeline.earliest_start`
answer on randomized partial schedules.
"""

import numpy as np
import pytest

from repro.core.duplication import entry_duplication_plan
from repro.core.engine import (
    EntryWindow,
    StaticEFTEngine,
    mean_kernel,
    sample_std_kernel,
)
from repro.schedule.schedule import Schedule
from repro.schedule.timeline import ProcessorTimeline
from tests.conftest import make_random_graph


def _partial_schedule(graph, rng, fraction=0.6, entry_dups=0):
    """Schedule a topological prefix of the graph with random placements."""
    schedule = Schedule(graph)
    order = graph.topological_order()
    n = max(1, int(len(order) * fraction))
    entry = order[0]
    for task in order[:n]:
        proc = int(rng.integers(graph.n_procs))
        ready = schedule.ready_time(task, proc)
        start = schedule.timelines[proc].earliest_start(
            ready, graph.cost(task, proc)
        )
        schedule.place(task, proc, start)
    dup_procs = [
        p for p in graph.procs() if p != schedule.proc_of(entry)
    ][:entry_dups]
    for proc in dup_procs:
        if schedule.timelines[proc].fits(0.0, graph.cost(entry, proc)):
            schedule.place(entry, proc, 0.0, duplicate=True)
    return schedule, order[:n]


class TestReadyVector:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_schedule_ready_time(self, seed):
        rng = np.random.default_rng(seed)
        graph = make_random_graph(seed=seed, v=40, n_procs=3)
        schedule, placed = _partial_schedule(graph, rng)
        engine = StaticEFTEngine(schedule)
        placed_set = set(placed)
        for task in graph.tasks():
            if not all(p in placed_set for p in graph.predecessors(task)):
                continue
            vec = engine.ready_vector(task)
            for proc in graph.procs():
                assert vec[proc] == schedule.ready_time(task, proc)

    def test_unscheduled_parent_raises(self):
        graph = make_random_graph(seed=1, v=20)
        schedule = Schedule(graph)
        engine = StaticEFTEngine(schedule)
        child = next(
            t for t in graph.tasks() if graph.in_degree(t) > 0
        )
        with pytest.raises(ValueError, match="not scheduled"):
            engine.ready_vector(child)

    def test_ingests_preexisting_placements(self):
        graph = make_random_graph(seed=2, v=30, n_procs=3)
        rng = np.random.default_rng(0)
        schedule, placed = _partial_schedule(graph, rng, entry_dups=2)
        engine = StaticEFTEngine(schedule)  # built *after* the placements
        for task in placed:
            copies = schedule.copies(task)
            assert engine.best_finish[task] == min(c.finish for c in copies)
            for proc in graph.procs():
                local = [c.finish for c in copies if c.proc == proc]
                expected = min(local) if local else np.inf
                assert engine.local_finish[task][proc] == expected


class TestEntryPlan:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("allow", [True, False])
    def test_matches_algorithm_one(self, seed, allow):
        rng = np.random.default_rng(seed)
        graph = make_random_graph(seed=seed, v=40, n_procs=3, single_entry=True)
        entry = graph.entry_task
        schedule, placed = _partial_schedule(
            graph, rng, entry_dups=seed % graph.n_procs
        )
        window = EntryWindow(schedule, entry, allow_duplication=allow)
        for child in graph.successors(entry):
            comm = graph.comm_cost(entry, child)
            for proc in graph.procs():
                plan = entry_duplication_plan(
                    schedule, entry, child, proc, allow
                )
                duplicate, arrival = window.plan(comm, proc)
                assert duplicate == plan.duplicate, (child, proc)
                assert arrival == plan.arrival, (child, proc)
                row = window.arrival_row(comm)
                assert row[proc] == plan.arrival
                cell = window.arrival(comm, proc)
                assert cell == plan.arrival

    def test_memo_invalidated_by_commits(self):
        graph = make_random_graph(seed=7, v=30, n_procs=3, single_entry=True)
        entry = graph.entry_task
        schedule = Schedule(graph)
        schedule.place(entry, 0, 0.0)
        window = EntryWindow(schedule, entry, allow_duplication=True)
        child = graph.successors(entry)[0]
        comm = graph.comm_cost(entry, child)
        before = window.plan(comm, 1)
        # block CPU 1's duplication window, then re-query: the memo must
        # notice the timeline change through notify()
        blocker = schedule.place(child, 1, 0.0)
        window.notify(blocker)
        after = window.plan(comm, 1)
        plan = entry_duplication_plan(schedule, entry, child, 1, True)
        assert after == (plan.duplicate, plan.arrival)
        if before[0]:  # the window was usable before the blocker
            assert not after[0]


class TestEstEft:
    @pytest.mark.parametrize("insertion", [True, False])
    def test_matches_common_est_eft(self, insertion):
        from repro.baselines.common import est_eft

        rng = np.random.default_rng(3)
        graph = make_random_graph(seed=3, v=40, n_procs=4)
        schedule, placed = _partial_schedule(graph, rng)
        engine = StaticEFTEngine(schedule)
        placed_set = set(placed)
        for task in graph.tasks():
            if task in placed_set or not all(
                p in placed_set for p in graph.predecessors(task)
            ):
                continue
            starts, finishes = engine.est_eft(task, insertion)
            for proc in graph.procs():
                s, f = est_eft(schedule, task, proc, insertion)
                assert starts[proc] == s
                assert finishes[proc] == f


class TestBatchEarliestStart:
    """Batches of (ready, duration) queries through the fast gap scan
    (:meth:`ProcessorTimeline.earliest_start_fast`, which the engines
    call per cell) must match the scalar method exactly."""

    def _random_timeline(self, rng, n_slots=12, with_points=True):
        timeline = ProcessorTimeline(0)
        cursor = 0.0
        for i in range(n_slots):
            cursor += float(rng.uniform(0.0, 3.0))
            duration = float(rng.uniform(0.5, 4.0))
            timeline.reserve(100 + i, cursor, duration)
            if with_points and rng.random() < 0.4:
                # zero-duration pseudo-task slot at a boundary
                timeline.reserve(200 + i, cursor + duration, 0.0)
            cursor += duration
        return timeline

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("insertion", [True, False])
    def test_matches_scalar(self, seed, insertion):
        rng = np.random.default_rng(seed)
        timeline = self._random_timeline(rng)
        ready = rng.uniform(0.0, 40.0, size=64)
        durations = rng.uniform(0.0, 6.0, size=64)
        durations[::7] = 0.0  # exercise the point-task fallback
        # boundary-aligned queries: exactly at slot ends/starts
        for i, slot in enumerate(timeline.slots()):
            if i < len(ready) - 2:
                ready[i] = slot.end
                ready[i + 1] = slot.start
        for i in range(len(ready)):
            fast = timeline.earliest_start_fast(
                float(ready[i]), float(durations[i]), insertion
            )
            scalar = timeline.earliest_start(
                float(ready[i]), float(durations[i]), insertion
            )
            assert fast == scalar, (i, ready[i], durations[i])

    def test_empty_timeline(self):
        timeline = ProcessorTimeline(0)
        ready = [0.0, 3.5, 10.0]
        durations = [1.0, 0.0, 2.0]
        batch = [
            timeline.earliest_start_fast(r, d, True)
            for r, d in zip(ready, durations)
        ]
        assert batch == ready

    def test_negative_inputs_raise(self):
        timeline = ProcessorTimeline(0)
        timeline.reserve(1, 0.0, 2.0)
        with pytest.raises(ValueError):
            timeline.earliest_start_fast(-1.0, 1.0, True)
        with pytest.raises(ValueError):
            timeline.earliest_start_fast(1.0, -1.0, True)


def _eft_rows(rng, kind, n_rows, n_procs):
    """Non-negative EFT-like rows: plain, wide magnitude spread, ties."""
    if kind == "random":
        return rng.uniform(0.0, 1000.0, size=(n_rows, n_procs))
    if kind == "spread":
        mantissa = rng.uniform(1.0, 10.0, size=(n_rows, n_procs))
        return mantissa * 10.0 ** rng.integers(-8, 13, size=(n_rows, n_procs))
    levels = rng.integers(0, 3, size=(n_rows, n_procs))
    return 41.0 + 0.1 * levels


def _expanded_std(eft):
    """The sample std as the ufunc sequence the vectorized HDLTS path ran."""
    n_procs = eft.shape[1]
    mean = np.add.reduce(eft, axis=1, keepdims=True)
    mean /= n_procs
    dev = eft - mean
    dev *= dev
    var = np.add.reduce(dev, axis=1)
    var /= n_procs - 1
    return np.sqrt(var)


class TestRowKernels:
    """The unrolled priority kernels are bit-equal to NumPy on every CPU
    count, across all three summation regimes (< 8, 8..128, > 128)."""

    @pytest.mark.parametrize("kind", ["random", "spread", "ties"])
    def test_sample_std_bit_equal(self, kind):
        rng = np.random.default_rng(13)
        for n_procs in range(2, 301):
            eft = _eft_rows(rng, kind, 4, n_procs)
            kernel = sample_std_kernel(n_procs)
            numpy_std = eft.std(axis=1, ddof=1)
            expanded = _expanded_std(eft)
            for i, row in enumerate(eft.tolist()):
                value = kernel(row)
                assert value == numpy_std[i], (n_procs, i)
                assert value == expanded[i], (n_procs, i)

    @pytest.mark.parametrize("kind", ["random", "spread", "ties"])
    def test_mean_bit_equal(self, kind):
        rng = np.random.default_rng(17)
        for n_procs in range(1, 301):
            eft = _eft_rows(rng, kind, 4, n_procs)
            kernel = mean_kernel(n_procs)
            numpy_mean = eft.mean(axis=1)
            for i, row in enumerate(eft.tolist()):
                assert kernel(row) == numpy_mean[i], (n_procs, i)

    def test_one_cpu_has_no_sample_std(self):
        with pytest.raises(ValueError):
            sample_std_kernel(1)


class TestBusyTimeAccumulator:
    def test_tracks_reserve_and_remove(self):
        timeline = ProcessorTimeline(0)
        assert timeline.busy_time() == 0.0
        timeline.reserve(1, 0.0, 2.0)
        timeline.reserve(2, 5.0, 3.0)
        timeline.reserve(3, 2.0, 0.0)  # point slot adds nothing
        assert timeline.busy_time() == 5.0
        timeline.remove(1)
        assert timeline.busy_time() == 3.0
        timeline.remove(3)
        assert timeline.busy_time() == 3.0

    def test_matches_slot_sum_on_random_timelines(self):
        rng = np.random.default_rng(11)
        timeline = ProcessorTimeline(0)
        cursor = 0.0
        for i in range(40):
            cursor += float(rng.uniform(0.0, 1.0))
            duration = float(rng.uniform(0.0, 2.0))
            timeline.reserve(i, cursor, duration)
            cursor += duration
        expected = sum(s.end - s.start for s in timeline.slots())
        assert timeline.busy_time() == pytest.approx(expected, rel=1e-12)
