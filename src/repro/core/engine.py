"""Scalar EFT engines shared by HDLTS and the baselines.

Every list scheduler in this repository evaluates the same kernel at
each decision: *when can task ``t`` start on CPU ``p`` given the
schedule built so far?* (Definitions 5-7).  The reference
implementations answer it with Python loops over ``parents x copies x
CPUs``; the engines here answer it from per-task state updated as
assignments are committed, walking the compiled graph's plain-Python
list mirrors (``w_rows``, ``pred_lists``) with float scalars -- at the
frontier sizes the schedulers see, NumPy's per-call dispatch costs more
than the arithmetic.

* :class:`StaticEFTEngine` -- ``est_eft(task)`` across all CPUs for the
  static-list baselines.
* :class:`EntryWindow` -- Algorithm 1's entry-output arrival for the
  HDLTS fast path, with a per-CPU memo of the duplication window test
  (``fits(0, W(entry, p))``) invalidated only when CPU ``p``'s timeline
  changes.
* :func:`mean_kernel` / :func:`sample_std_kernel` -- the HDLTS priority
  rules' row statistics, unrolled per CPU count and summed in NumPy's
  exact order, so each value is bit-equal to ``eft.mean(axis=1)`` /
  ``eft.std(axis=1, ddof=1)`` on the same row.

The arrival arithmetic is bit-identical to the reference loops:
``min``/``max`` over the same float64 values reassociate freely, and
``best_finish + comm`` equals ``min over copies of (finish + comm)``
exactly because IEEE addition of a common non-negative term is monotone.

The engines are advisory: they never mutate the :class:`Schedule`
(except :meth:`StaticEFTEngine.place_best`, which commits its own
choice).  Feed them every committed
:class:`~repro.schedule.schedule.Assignment` through ``notify``;
construction ingests whatever is already placed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.model.compiled import compile_graph
from repro.schedule.schedule import Assignment, Schedule
from repro.schedule.timeline import _EPS, Slot

__all__ = [
    "EntryWindow",
    "StaticEFTEngine",
    "mean_kernel",
    "sample_std_kernel",
]

_INF = float("inf")


# ----------------------------------------------------------------------
# row statistics in NumPy's summation order
# ----------------------------------------------------------------------
def _sum_expr(terms: Sequence[str]) -> str:
    """A Python expression adding ``terms`` in NumPy's ``add.reduce`` order.

    NumPy sums a contiguous float64 row pairwise: left to right below 8
    terms; from 8 to 128 terms in eight strided accumulators, combined
    as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` before the
    tail is added left to right; above 128 by recursive halving at a
    multiple of 8.  (NumPy starts from ``0.0``; adding it changes only
    a ``-0.0`` sum, which EFT rows never produce.)
    """
    n = len(terms)
    if n < 8:
        return "(" + " + ".join(terms) + ")"
    if n <= 128:
        full = n - n % 8
        r = ["(" + " + ".join(terms[j:full:8]) + ")" for j in range(8)]
        blocks = (
            f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]}))"
            f" + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
        )
        return "(" + " + ".join([f"({blocks})", *terms[full:]]) + ")"
    half = n // 2
    half -= half % 8
    return f"({_sum_expr(terms[:half])} + {_sum_expr(terms[half:])})"


def _compile_row_kernel(name: str, n_procs: int, body: List[str]):
    """``def name(row)``: unpack the row into ``e0..e{p-1}``, run ``body``.

    Generated once per CPU count: straight-line code over named locals
    runs the HDLTS priority rules markedly faster than a loop over the
    row (see docs/performance.md).
    """
    names = [f"e{q}" for q in range(n_procs)]
    source = "\n    ".join(
        [f"def {name}(row):", f"{', '.join(names)}, = row", *body]
    )
    namespace = {"sqrt": math.sqrt}
    exec(source, namespace)
    return namespace[name]


@functools.lru_cache(maxsize=None)
def mean_kernel(n_procs: int) -> Callable[[Sequence[float]], float]:
    """Mean of an ``n_procs``-float row, bit-equal to NumPy's ``mean``."""
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    total = _sum_expr([f"e{q}" for q in range(n_procs)])
    return _compile_row_kernel(
        f"mean_{n_procs}", n_procs, [f"return {total} / {n_procs}"]
    )


@functools.lru_cache(maxsize=None)
def sample_std_kernel(n_procs: int) -> Callable[[Sequence[float]], float]:
    """Sample std (ddof=1) of an ``n_procs``-float row, unrolled.

    The same IEEE operations ``np.std(ddof=1)`` runs on a row, in the
    same order: sum, ``/ p``, deviations, squares, sum, ``/ (p - 1)``,
    square root -- so the penalty value (Eq. 8) is bit-equal to it.
    """
    if n_procs < 2:
        raise ValueError(f"a sample std needs n_procs >= 2, got {n_procs}")
    total = _sum_expr([f"e{q}" for q in range(n_procs)])
    squares = _sum_expr([f"d{q} * d{q}" for q in range(n_procs)])
    return _compile_row_kernel(
        f"pv_{n_procs}",
        n_procs,
        [f"m = {total} / {n_procs}"]
        + [f"d{q} = e{q} - m" for q in range(n_procs)]
        + [f"return sqrt({squares} / {n_procs - 1})"],
    )


# ----------------------------------------------------------------------
# Algorithm 1: the entry output's arrival, hypothetical duplicate included
# ----------------------------------------------------------------------
class EntryWindow:
    """Arrival of the entry task's output per CPU, Algorithm 1 included.

    Tracks the entry's committed copies (``local[p]``: earliest finish
    of a copy on CPU ``p``; ``best``: earliest finish anywhere) and a
    per-CPU memo of whether a hypothetical duplicate still fits over
    ``[0, W(entry, p))`` with no copy already local.  Every query matches
    :func:`repro.core.duplication.entry_duplication_plan` against the
    live schedule, decision for decision.

    Parameters
    ----------
    schedule:
        The schedule being built; existing entry copies are ingested.
    entry:
        The graph's entry task.
    allow_duplication:
        When False, arrivals use committed copies only.
    """

    def __init__(
        self, schedule: Schedule, entry: int, allow_duplication: bool = True
    ) -> None:
        self.entry = entry
        self.allow_duplication = bool(allow_duplication)
        self._timelines = schedule.timelines
        self._w = compile_graph(schedule.graph).w_rows[entry]
        n_procs = len(self._timelines)
        self.local: List[float] = [_INF] * n_procs
        self.best = _INF
        # W(entry, p) while a duplicate is still possible on p, else
        # +inf; None marks a CPU whose timeline changed since the test
        self._dup_cost: List[Optional[float]] = [None] * n_procs
        for copy in schedule.copies(entry):
            self.notify(copy)

    def notify(self, assignment: Assignment) -> None:
        """Fold a commit on ``assignment.proc`` into the window state."""
        proc = assignment.proc
        if assignment.task == self.entry:
            finish = assignment.finish
            if finish < self.local[proc]:
                self.local[proc] = finish
            if finish < self.best:
                self.best = finish
        self._dup_cost[proc] = None

    def _duplicate_cost(self, proc: int) -> float:
        cost = self._dup_cost[proc]
        if cost is None:
            cost = self._w[proc]
            if not (
                self.allow_duplication
                and self.local[proc] == _INF
                and self._timelines[proc].fits(0.0, cost)
            ):
                cost = _INF
            self._dup_cost[proc] = cost
        return cost

    def plan(self, comm: float, proc: int) -> Tuple[bool, float]:
        """Algorithm 1 on ``proc`` for a child fed over an edge of cost
        ``comm``: (duplicate?, arrival of the entry's output)."""
        via = self.best + comm
        local = self.local[proc]
        if local < via:
            via = local
        duplicate = self._duplicate_cost(proc)
        if duplicate < via:
            return True, duplicate
        return False, via

    def arrival(self, comm: float, proc: int) -> float:
        """The entry output's arrival on ``proc`` (see :meth:`plan`)."""
        return self.plan(comm, proc)[1]

    def arrival_row(self, comm: float) -> List[float]:
        """The entry output's arrival on every CPU."""
        return [self.plan(comm, q)[1] for q in range(len(self.local))]


# ----------------------------------------------------------------------
# the static-list baselines' engine
# ----------------------------------------------------------------------
class StaticEFTEngine:
    """Scalar EFT engine for the static-list baselines.

    The static baselines (HEFT, PETS, PEFT, SDBATS, ...) issue exactly
    one query shape: ``est_eft(task)`` across *all* CPUs for a task
    whose parents are already committed, with small fan-in.  Every value
    is bit-identical to the reference loops: the same IEEE-754 float64
    operations run in the same order (``min``/``max`` reductions are
    order-free, and the single ``best_finish + comm`` addition per
    parent is preserved).

    Advisory -- feed committed assignments through :meth:`notify`;
    construction ingests whatever the schedule already holds (SDBATS
    pre-places entry duplicates).
    """

    def __init__(
        self, schedule: Schedule, compiled: Optional[object] = None
    ) -> None:
        self.schedule = schedule
        graph = schedule.graph
        self.graph = graph
        self.compiled = (
            compiled if compiled is not None else compile_graph(graph)
        )
        n = graph.n_tasks
        self._n_procs = graph.n_procs
        self._timelines = schedule.timelines
        # shared read-only mirrors -- never mutated by the engine
        self._w_rows = self.compiled.w_rows
        self._parents = self.compiled.pred_lists
        # per-task local-finish rows materialize on first commit (None
        # == no copy anywhere == a row of +inf)
        self.local_finish: List[Optional[List[float]]] = [None] * n
        self.best_finish: List[float] = [_INF] * n
        # ingest whatever is already committed (order-free: notify is
        # all min/max updates), without scanning the full task set
        for assignment in schedule.assignments():
            self.notify(assignment)
        for duplicate in schedule.duplicates():
            self.notify(duplicate)

    def notify(self, assignment: Assignment) -> None:
        """Fold a committed assignment into the incremental state."""
        task, proc, finish = assignment.task, assignment.proc, assignment.finish
        row = self.local_finish[task]
        if row is None:
            row = self.local_finish[task] = [_INF] * self._n_procs
        if finish < row[proc]:
            row[proc] = finish
        if finish < self.best_finish[task]:
            self.best_finish[task] = finish

    def ready_vector(self, task: int) -> List[float]:
        """Definition 5 on every CPU: when the task's inputs are present."""
        parents, comms = self._parents[task]
        n_procs = self._n_procs
        ready = [0.0] * n_procs
        if parents:
            best_finish = self.best_finish
            local_finish = self.local_finish
            for parent, comm in zip(parents, comms):
                via = best_finish[parent] + comm
                row = local_finish[parent]
                if row is None:
                    # no committed copy: arrival is ``via`` (= +inf)
                    # on every CPU
                    for q in range(n_procs):
                        if via > ready[q]:
                            ready[q] = via
                    continue
                for q in range(n_procs):
                    arrival = row[q]
                    if via < arrival:
                        arrival = via
                    if arrival > ready[q]:
                        ready[q] = arrival
            if ready[0] == _INF:
                # an unscheduled parent's +inf arrival floods every CPU
                missing = next(
                    p for p in parents if best_finish[p] == _INF
                )
                raise ValueError(
                    f"parent {missing} of {task} is not scheduled"
                )
        return ready

    def est_eft(
        self, task: int, insertion: bool = True
    ) -> Tuple[List[float], List[float]]:
        """(EST, EFT) of ``task`` on every CPU against the live schedule."""
        ready = self.ready_vector(task)
        costs = self._w_rows[task]
        starts: List[float] = []
        finishes: List[float] = []
        for q, timeline in enumerate(self._timelines):
            cost = costs[q]
            start = timeline.earliest_start_fast(ready[q], cost, insertion)
            starts.append(start)
            finishes.append(start + cost)
        return starts, finishes

    def place_best(
        self,
        task: int,
        insertion: bool = True,
        objective=None,
    ) -> Assignment:
        """Fused :func:`~repro.baselines.common.place_min_eft` hot path.

        One pass over the CPUs computes EST/EFT and runs the selection
        loop in place -- the same scalar operations, comparisons and
        1e-12 strict-improvement tie-break as the generic helper, one
        call frame instead of four.  Commits the winner and folds it
        back into the engine state.
        """
        ready = self.ready_vector(task)
        costs = self._w_rows[task]
        best_proc = -1
        best_score = _INF
        best_start = 0.0
        q = 0
        for timeline in self._timelines:
            cost = costs[q]
            r = ready[q]
            if r >= timeline._max_end and cost > _EPS and timeline._ends_monotone:
                # the task becomes ready at or after this CPU's last
                # finish: the gap scan's bisect lands past every end and
                # earliest_start_fast returns the ready time unchanged
                start = r
            else:
                start = timeline.earliest_start_fast(r, cost, insertion)
            finish = start + cost
            score = objective(q, finish) if objective is not None else finish
            if score < best_score - 1e-12:
                best_score = score
                best_proc = q
                best_start = start
            q += 1
        obs.scoped_count("eft_evaluations", self._n_procs)
        obs.scoped_count("decisions")
        # inline commit: statics only place fresh primary copies, so
        # this is Schedule.place minus the duplicate branch, with the
        # duration read from the mirror row (exactly float(W[t, p]))
        schedule = self.schedule
        if task in schedule._primary:
            raise ValueError(f"task {task} already has a primary assignment")
        duration = costs[best_proc]
        timeline = self._timelines[best_proc]
        end = best_start + duration
        if duration > _EPS and best_start >= timeline._max_end:
            # Timeline.reserve's append-at-end fast path, inlined (same
            # proof: no overlap possible, (start, end) sorts last, the
            # end list stays non-decreasing)
            timeline._slots.append(Slot(best_start, end, task, False))
            timeline._keys.append((best_start, end))
            timeline._starts.append(best_start)
            timeline._ends.append(end)
            timeline._max_end = end
            timeline._busy += duration
        else:
            timeline.reserve(task, best_start, duration)
        assignment = Assignment(task, best_proc, best_start, end)
        schedule._primary[task] = assignment
        self.notify(assignment)
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(1 for f in self.best_finish if f < _INF)
        return f"StaticEFTEngine(placed={placed}/{self.graph.n_tasks})"
