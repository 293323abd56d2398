"""Heterogeneous Dynamic List Task Scheduling (HDLTS) -- Algorithm 2.

The scheduler keeps the paper's three pillars separable so each can be
ablated:

* ``duplicate_entry`` -- pillar 1, effective entry-task duplication
  (Algorithm 1, :mod:`repro.core.duplication`);
* the dynamic ITQ -- pillar 2, only precedence-satisfied tasks are
  prioritized, and priorities are recomputed from live platform state at
  every step (:mod:`repro.core.itq`);
* ``priority`` -- pillar 3, the penalty value PV = sample standard
  deviation of the task's EFT vector over the CPUs (Eq. 8); alternative
  rules are provided for the ablation benchmarks.

Two interchangeable execution paths implement the identical algorithm:

* ``engine="fast"`` (the default) is an incremental kernel on plain
  Python floats over the compiled graph's list mirrors (``w_rows``,
  ``pred_lists``).  It keeps a ready row, an EFT row and a priority per
  ITQ task.  A commit on CPU ``p`` dirties only column ``p``: the new
  ``Avail`` (or, in insertion mode, one gap scan per row on timeline
  ``p``) and, because the commit may close Algorithm 1's duplication
  window there, the entry children's ``p`` cell.  A priority is
  recomputed only when its row changed, with unrolled per-CPU-count
  kernels bit-equal to NumPy (:mod:`repro.core.engine`);
* ``engine="reference"`` is the original loop-per-parent/CPU
  implementation, kept as the differential-testing oracle.

The two paths are enforced to be **bit-identical** (same assignments,
same trace, same counters) by the test suite.  Semantics are pinned to
the paper's Table I worked example -- see DESIGN.md; the full trace is
reproduced bit-exactly by the test suite.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.base import Scheduler
from repro.core.duplication import entry_duplication_plan
from repro.core.engine import EntryWindow, mean_kernel, sample_std_kernel
from repro.core.itq import IndependentTaskQueue
from repro.core.trace import TraceRecorder, TraceStep
from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.obs.spans import phase_spans_enabled
from repro.runtime.context import resolve_engine
from repro.schedule.schedule import Schedule

__all__ = ["HDLTS", "PriorityRule"]

_UNTIMED = contextlib.nullcontext()


def _untimed(name: str) -> contextlib.nullcontext:
    """Stand-in for :func:`repro.obs.phase` on runs nobody is timing."""
    return _UNTIMED


class PriorityRule(str, enum.Enum):
    """Task-selection rule applied to the ITQ each step."""

    #: the paper's penalty value: sample std (ddof=1) of the EFT vector
    PENALTY_VALUE = "pv"
    #: spread of the EFT vector (max - min): a cheaper heterogeneity proxy
    EFT_RANGE = "range"
    #: largest mean EFT first (schedule the globally slowest task early)
    MEAN_EFT = "mean_eft"
    #: smallest best-case EFT first (pure greedy; a weak strawman)
    MIN_EFT_FIRST = "min_eft"
    #: HEFT's mean-cost upward rank, applied to the dynamic ready list --
    #: isolates pillar 2 (the ITQ) from pillar 3 (the PV formula): this
    #: is "dynamic HEFT" with global downstream awareness
    UPWARD_RANK = "rank_u"


class HDLTS(Scheduler):
    """The paper's scheduler.

    Parameters
    ----------
    duplicate_entry:
        Enable Algorithm 1 (effective entry-task duplication).
    use_insertion:
        Search idle gaps for the EST instead of appending after
        ``Avail`` (the paper's trace uses append; insertion is an
        extension used by the ablation study).
    priority:
        Task-selection rule; defaults to the paper's penalty value.
    record_trace:
        Keep a per-step :class:`~repro.core.trace.TraceStep` record
        (costs memory on big graphs; required to print Table I).
    engine:
        ``"fast"`` (incremental scalar kernel) or ``"reference"``
        (the original per-parent/CPU loops); ``None`` (the default)
        defers to the active :class:`~repro.runtime.context.RunContext`
        (``"fast"`` unless overridden).  Both produce bit-identical
        schedules; see docs/performance.md.
    """

    name = "HDLTS"

    def __init__(
        self,
        duplicate_entry: bool = True,
        use_insertion: bool = False,
        priority: PriorityRule = PriorityRule.PENALTY_VALUE,
        record_trace: bool = False,
        engine: Optional[str] = None,
    ) -> None:
        engine = resolve_engine(engine)
        self.duplicate_entry = duplicate_entry
        self.use_insertion = use_insertion
        self.priority = PriorityRule(priority)
        self.record_trace = record_trace
        self.engine = engine
        self.last_trace: Optional[List[TraceStep]] = None

    # ------------------------------------------------------------------
    def build_schedule(self, graph: TaskGraph) -> Schedule:
        """Run Algorithm 2 on ``graph`` (single-entry required)."""
        entry = graph.entry_task  # raises for multi-entry graphs
        if self.priority is PriorityRule.UPWARD_RANK:
            from repro.model.ranking import upward_rank

            self._rank_u = upward_rank(graph)

        # trace recording is just one subscriber of the decision events;
        # a JSONL sink or a test listens to the very same stream.
        bus = obs.get_bus()
        recorder: Optional[TraceRecorder] = None
        unsubscribe = None
        if self.record_trace:
            recorder = TraceRecorder(scheduler=self.name)
            unsubscribe = bus.subscribe(recorder, topics=(TraceRecorder.TOPIC,))
        try:
            if self.engine == "reference":
                schedule = self._build_reference(graph, entry, bus)
            else:
                schedule = self._build_fast(graph, entry, bus)
        finally:
            if unsubscribe is not None:
                unsubscribe()

        self.last_trace = recorder.steps if recorder is not None else None
        return schedule

    # ------------------------------------------------------------------
    # fast path: incremental scalar kernel over the compiled graph
    # ------------------------------------------------------------------
    def _build_fast(self, graph: TaskGraph, entry: int, bus) -> Schedule:
        n_tasks, n_procs = graph.n_tasks, graph.n_procs
        compiled = compile_graph(graph)
        w_rows = compiled.w_rows
        pred_lists = compiled.pred_lists
        schedule = Schedule(graph)
        timelines = schedule.timelines
        itq = IndependentTaskQueue(graph)
        window = EntryWindow(schedule, entry, self.duplicate_entry)
        duplicate_entry = self.duplicate_entry
        insertion = self.use_insertion
        entry_children = set(graph.successors(entry))
        score = self._row_score(n_procs)
        if self.priority is PriorityRule.UPWARD_RANK:
            prio = self._rank_u.tolist()
        else:
            prio = [0.0] * n_tasks
        # observability resolved once per run: counts stay in locals and
        # land in the registry at the end; phases open only while timed
        recording = obs.enabled()
        phase = obs.phase if recording or phase_spans_enabled() else _untimed

        # committed primaries (every non-entry task has exactly one copy)
        finish = [0.0] * n_tasks
        home = [0] * n_tasks
        avail = [0.0] * n_procs
        # per-ITQ-task state: the ready row (Definition 5 per CPU, with
        # Algorithm 1's hypothetical entry duplicate), the EFT row and
        # the priority; a commit on CPU ``p`` dirties only column ``p``
        ready: List[Optional[List[float]]] = [None] * n_tasks
        eft: List[Optional[List[float]]] = [None] * n_tasks
        # the entry children in the ITQ, each with its non-entry parents'
        # component, so a column refresh recombines one cell; and the
        # entry edge cost of every released entry child
        non_entry: Dict[int, List[float]] = {}
        entry_comm: Dict[int, float] = {}

        def release(task: int) -> None:
            parents, comms = pred_lists[task]
            row = [0.0] * n_procs
            for parent, comm in zip(parents, comms):
                if parent == entry:
                    entry_comm[task] = comm
                    continue
                # arrival: finish on the parent's CPU, finish + comm
                # elsewhere
                done = finish[parent]
                via = done + comm
                own = home[parent]
                kept = row[own]
                row = [r if r > via else via for r in row]
                row[own] = done if done > kept else kept
            if task in entry_children:
                non_entry[task] = row
                row = [
                    a if a > r else r
                    for a, r in zip(window.arrival_row(entry_comm[task]), row)
                ]
            costs = w_rows[task]
            if insertion:
                row_eft = [
                    tl.earliest_start_fast(r, c, True) + c
                    for tl, r, c in zip(timelines, row, costs)
                ]
            else:
                row_eft = [
                    (r if r > a else a) + c
                    for r, a, c in zip(row, avail, costs)
                ]
            ready[task] = row
            eft[task] = row_eft
            if score is not None:
                prio[task] = score(row_eft)

        # the ITQ frontier as a sorted id list (ascending id is the
        # reference tie-break order)
        ready_ids = itq.ready_tasks()
        for task in ready_ids:
            release(task)

        step = cells = rows = cols = dup_yes = dup_no = 0
        priority_of = prio.__getitem__
        while ready_ids:
            step += 1
            with phase("eft_vector"):
                cells += len(ready_ids)
                # first max -> lowest task id; first min -> lowest CPU
                task = max(ready_ids, key=priority_of)
                task_eft = eft[task]
                proc = task_eft.index(min(task_eft))

            duplicated_on: Tuple[int, ...] = ()
            if duplicate_entry and task in entry_children:
                with phase("duplication_check"):
                    duplicate, arrival = window.plan(entry_comm[task], proc)
                    if duplicate:
                        window.notify(
                            schedule.place(entry, proc, 0.0, duplicate=True)
                        )
                        duplicated_on = (proc,)
                if duplicate:
                    dup_yes += 1
                    if bus.active:
                        bus.emit(
                            "scheduler.duplication",
                            scheduler=self.name,
                            step=step,
                            child=task,
                            proc=proc,
                            arrival=arrival,
                        )
                else:
                    dup_no += 1

            # the committed start comes from live state; the ready cell
            # already equals it (a materialized duplicate realizes
            # exactly the hypothetical arrival the cell was built from)
            with phase("commit"):
                timeline = timelines[proc]
                cost = w_rows[task][proc]
                r = ready[task][proc]
                if insertion:
                    start = timeline.earliest_start_fast(
                        r, cost, insertion=True
                    )
                else:
                    # append mode: earliest_start_fast reduces to
                    # max(ready, Avail) on the chosen CPU
                    avail_p = timeline._max_end
                    start = r if r > avail_p else avail_p
                assignment = schedule.place(task, proc, start, cost)
                finish[task] = assignment.finish
                home[task] = proc
                avail[proc] = timeline._max_end
                window.notify(assignment)

            if bus.active:
                bus.emit(
                    "scheduler.decision",
                    scheduler=self.name,
                    step=step,
                    ready_tasks=tuple(ready_ids),
                    priorities=tuple(prio[t] for t in ready_ids),
                    selected=task,
                    eft=tuple(task_eft),
                    chosen_proc=proc,
                    start=assignment.start,
                    finish=assignment.finish,
                    duplicated_on=duplicated_on,
                )

            with phase("ready_update"):
                released = itq.complete(task)
                ready_ids.remove(task)
                ready[task] = eft[task] = None
                non_entry.pop(task, None)
                for fresh in released:
                    bisect.insort(ready_ids, fresh)
                    release(fresh)

                # the commit (and any duplicate) only touched ``proc``:
                # the pending entry children's duplication window may
                # have closed there (their non-entry part is immutable)
                for child, base_row in non_entry.items():
                    arrival = window.arrival(entry_comm[child], proc)
                    base = base_row[proc]
                    ready[child][proc] = arrival if arrival > base else base

                # re-derive column ``proc`` of every EFT row; a priority
                # is recomputed only where its row changed
                if insertion:
                    if ready_ids:
                        with phase("insertion_scan"):
                            for t in ready_ids:
                                c = w_rows[t][proc]
                                new = timeline.earliest_start_fast(
                                    ready[t][proc], c, True
                                ) + c
                                row = eft[t]
                                if new != row[proc]:
                                    row[proc] = new
                                    if score is not None:
                                        prio[t] = score(row)
                else:
                    avail_p = avail[proc]
                    for t in ready_ids:
                        r = ready[t][proc]
                        new = (r if r > avail_p else avail_p) + w_rows[t][proc]
                        row = eft[t]
                        if new != row[proc]:
                            row[proc] = new
                            if score is not None:
                                prio[t] = score(row)
            rows += len(released)
            cols += len(non_entry)

        if recording and step:
            n_cells = cells * n_procs
            if insertion:
                obs.count(f"{self.name}/insertion_scans", n_cells)
            obs.count(f"{self.name}/eft_evaluations", n_cells)
            obs.count(f"{self.name}/decisions", step)
            obs.count(f"{self.name}/ready_rows_recomputed", rows)
            obs.count(f"{self.name}/entry_child_col_refreshes", cols)
            if dup_yes:
                obs.count(f"{self.name}/duplication_accepted", dup_yes)
            if dup_no:
                obs.count(f"{self.name}/duplication_rejected", dup_no)
        return schedule

    def _row_score(self, n_procs: int) -> Optional[Callable[[List[float]], float]]:
        """The priority rule as a function of one EFT row.

        ``None`` when the priority does not depend on the row: the
        upward rank, and the penalty value on one CPU (defined as 0).
        Each function returns exactly what :meth:`_priorities` computes
        for that row.
        """
        rule = self.priority
        if rule is PriorityRule.PENALTY_VALUE:
            return sample_std_kernel(n_procs) if n_procs > 1 else None
        if rule is PriorityRule.EFT_RANGE:
            return lambda row: max(row) - min(row)
        if rule is PriorityRule.MEAN_EFT:
            return mean_kernel(n_procs)
        if rule is PriorityRule.MIN_EFT_FIRST:
            return lambda row: -min(row)
        return None

    # ------------------------------------------------------------------
    # reference path: the original per-parent/CPU loops (the oracle)
    # ------------------------------------------------------------------
    def _build_reference(self, graph: TaskGraph, entry: int, bus) -> Schedule:
        n_procs = graph.n_procs
        schedule = Schedule(graph)
        itq = IndependentTaskQueue(graph)
        w = graph.cost_matrix()
        avail = np.zeros(n_procs)
        entry_children = set(graph.successors(entry))

        # cached per-task ready-time vectors (Definition 5 per CPU,
        # including the hypothetical entry duplicate of Algorithm 1)
        ready_rows: Dict[int, np.ndarray] = {}

        def compute_ready_row(task: int) -> np.ndarray:
            row = np.zeros(n_procs)
            for parent in graph.predecessors(task):
                if parent == entry:
                    for proc in range(n_procs):
                        arrival = entry_duplication_plan(
                            schedule, entry, task, proc, self.duplicate_entry
                        ).arrival
                        if arrival > row[proc]:
                            row[proc] = arrival
                else:
                    comm = graph.comm_cost(parent, task)
                    copies = schedule.copies(parent)
                    for proc in range(n_procs):
                        arrival = min(
                            c.finish + (0.0 if c.proc == proc else comm)
                            for c in copies
                        )
                        if arrival > row[proc]:
                            row[proc] = arrival
            return row

        for task in itq.ready_tasks():
            ready_rows[task] = compute_ready_row(task)

        step = 0
        while itq:
            step += 1
            ready_list = itq.ready_tasks()
            with obs.phase("eft_vector"):
                ready_mat = np.array([ready_rows[t] for t in ready_list])
                w_ready = w[ready_list]
                if self.use_insertion:
                    with obs.phase("insertion_scan"):
                        est = np.empty_like(ready_mat)
                        for i, task in enumerate(ready_list):
                            for proc in range(n_procs):
                                est[i, proc] = schedule.timelines[
                                    proc
                                ].earliest_start(
                                    ready_mat[i, proc],
                                    w_ready[i, proc],
                                    insertion=True,
                                )
                    obs.count(f"{self.name}/insertion_scans", est.size)
                else:
                    est = np.maximum(ready_mat, avail[None, :])
                eft = est + w_ready
                obs.count(f"{self.name}/eft_evaluations", eft.size)

            priorities = self._priorities(eft, ready_list)
            index = int(np.argmax(priorities))  # first max -> lowest task id
            task = ready_list[index]
            proc = int(np.argmin(eft[index]))  # first min -> lowest CPU

            duplicated_on: Tuple[int, ...] = ()
            if (
                self.duplicate_entry
                and task != entry
                and task in entry_children
            ):
                with obs.phase("duplication_check"):
                    plan = entry_duplication_plan(schedule, entry, task, proc)
                    if plan.duplicate:
                        schedule.place(entry, proc, 0.0, duplicate=True)
                        duplicated_on = (proc,)
                if plan.duplicate:
                    obs.count(f"{self.name}/duplication_accepted")
                    if bus.active:
                        bus.emit(
                            "scheduler.duplication",
                            scheduler=self.name,
                            step=step,
                            child=task,
                            proc=proc,
                            arrival=plan.arrival,
                        )
                else:
                    obs.count(f"{self.name}/duplication_rejected")

            # recompute the committed start from live state (the
            # materialized duplicate is now a real copy)
            with obs.phase("commit"):
                ready = schedule.ready_time(task, proc)
                start = schedule.timelines[proc].earliest_start(
                    ready, w[task, proc], insertion=self.use_insertion
                )
                assignment = schedule.place(task, proc, start)
                avail[proc] = schedule.timelines[proc].avail
            obs.count(f"{self.name}/decisions")

            if bus.active:
                bus.emit(
                    "scheduler.decision",
                    scheduler=self.name,
                    step=step,
                    ready_tasks=tuple(ready_list),
                    priorities=tuple(float(v) for v in priorities),
                    selected=task,
                    eft=tuple(float(v) for v in eft[index]),
                    chosen_proc=proc,
                    start=assignment.start,
                    finish=assignment.finish,
                    duplicated_on=duplicated_on,
                )

            with obs.phase("ready_update"):
                rows_recomputed = 0
                col_refreshes = 0
                for released in itq.complete(task):
                    ready_rows[released] = compute_ready_row(released)
                    rows_recomputed += 1
                ready_rows.pop(task, None)

                # the commit (and any duplicate) only touched ``proc``;
                # the hypothetical-duplication window of pending entry
                # children may have changed there, so refresh that column.
                for pending in itq:
                    if pending in entry_children:
                        arrival = entry_duplication_plan(
                            schedule, entry, pending, proc, self.duplicate_entry
                        ).arrival
                        ready_rows[pending][proc] = max(
                            arrival,
                            self._non_entry_ready(
                                schedule, pending, proc, entry
                            ),
                        )
                        col_refreshes += 1
            obs.count(f"{self.name}/ready_rows_recomputed", rows_recomputed)
            obs.count(
                f"{self.name}/entry_child_col_refreshes", col_refreshes
            )
        return schedule

    # ------------------------------------------------------------------
    def _non_entry_ready(
        self, schedule: Schedule, task: int, proc: int, entry: int
    ) -> float:
        """Ready contribution on ``proc`` from the non-entry parents."""
        graph = schedule.graph
        best = 0.0
        for parent in graph.predecessors(task):
            if parent == entry:
                continue
            arrival = schedule.arrival_time(parent, task, proc)
            if arrival > best:
                best = arrival
        return best

    def _priorities(self, eft: np.ndarray, ready_list=None) -> np.ndarray:
        """Apply the configured priority rule to the ITQ's EFT matrix."""
        if self.priority is PriorityRule.UPWARD_RANK:
            return self._rank_u[ready_list]
        if self.priority is PriorityRule.PENALTY_VALUE:
            if eft.shape[1] <= 1:
                return np.zeros(eft.shape[0])
            return eft.std(axis=1, ddof=1)
        if self.priority is PriorityRule.EFT_RANGE:
            return eft.max(axis=1) - eft.min(axis=1)
        if self.priority is PriorityRule.MEAN_EFT:
            return eft.mean(axis=1)
        if self.priority is PriorityRule.MIN_EFT_FIRST:
            return -eft.min(axis=1)
        raise AssertionError(f"unhandled priority rule {self.priority}")
