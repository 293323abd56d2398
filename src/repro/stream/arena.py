"""The job-stream arena: interleaved DAG instances on shared CPUs.

A :class:`StreamInstance` is a fully materialized workload -- jobs with
arrival times, normalized task graphs, and (optionally) realized
duration matrices -- and :class:`JobStream` executes it under an online
policy.  Two policy families exist:

* ``"OnlineHDLTS"`` -- the penalty-value loop of
  :class:`~repro.dynamic.online.OnlineHDLTS` generalized to many jobs:
  one merged ready set across all admitted jobs, shared CPU
  availability, per-job entry duplication, and the same fail-stop
  semantics.  With a single job arriving at time zero it reduces to the
  offline online scheduler *bit-identically* (the differential tests
  pin this).
* ``"Static/<Name>"`` -- each job's schedule is computed in isolation at
  admission time by a registry scheduler (placement and per-CPU order
  frozen), then the queues of all admitted jobs are replayed on the
  shared platform with the same global-time commit loop as
  :meth:`~repro.schedule.simulator.ScheduleSimulator.run_queues`.  A
  single job at time zero replays exactly like
  :func:`~repro.dynamic.online.replay_static`.

Admission is FIFO with a hold-back rule: whenever the best dispatch the
arena could make would start at or after the next pending arrival, that
job is admitted first and the decision is re-taken with its tasks in
the ready set.  A single-job stream therefore never observes the rule,
preserving the differential anchor, while under load later jobs join
the contest for every slot they could plausibly win.

Failures follow :mod:`repro.dynamic.failures`: a dispatch that would
run past a CPU's fail-stop instant is truncated and recorded as lost,
the CPU goes dead, and the task is re-dispatched elsewhere.  If the
whole fleet dies, remaining jobs are marked lost rather than raising --
the conservation invariant (every arrived job finishes or is explicitly
lost) holds either way.  Static policies reject failures, exactly like
``replay_static``.

Cost model: an event costs O(work in flight), not O(stream length).

* **Active set.**  The loops walk only the unfinished jobs, in
  admission order (which keeps every tie-break); a job leaves the set
  and drops its caches when its last task is done.  The static loop
  keeps a per-job count of undispatched queue entries.
* **Slot index.**  Each CPU's realized slots are kept sorted by start,
  and the entry-duplication window test reads only the slots that start
  in the window or at most two longest slots before it
  (:class:`_SlotIndex`).  A window found blocked stays blocked -- slots
  and copies are only ever added -- so each job keeps the CPUs still
  open to duplication.
* **Row cache.**  A ready task's data-arrival row depends on its job's
  own copies, except for the duplication shortcut, which depends on
  every job's slots.  The job-local part is cached per task, and a new
  copy drops the rows of that task's children; each job also caches its
  stacked ready rows (online) or per-CPU queue-head ready times
  (static) until it next records a copy.  Only the shortcut is
  re-evaluated on every event, and only for jobs whose entry children
  are ready and that still have an open CPU.
* **Adjacency** comes from each job's compiled CSR arrays, read once at
  admission.

None of this changes a decision: ``tests/stream/test_golden.py`` pins
every record stream by digest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.itq import IndependentTaskQueue
from repro.dynamic.failures import FailStop, failure_times
from repro.dynamic.noise import DurationFn
from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.schedule.simulator import DeadlockError

__all__ = [
    "JobRecord",
    "JobResult",
    "JobStream",
    "StreamInstance",
    "StreamJob",
    "StreamResult",
    "normalize_policy",
    "run_stream",
]

_EPS = 1e-9

ONLINE_POLICY = "OnlineHDLTS"
STATIC_PREFIX = "Static/"


def normalize_policy(name: str) -> str:
    """Canonical policy name; raises ``KeyError`` on junk."""
    if name in (ONLINE_POLICY, "online", "Online"):
        return ONLINE_POLICY
    if name.startswith(STATIC_PREFIX) and len(name) > len(STATIC_PREFIX):
        from repro.baselines.registry import SCHEDULER_FACTORIES

        inner = name[len(STATIC_PREFIX):]
        if inner not in SCHEDULER_FACTORIES:
            raise KeyError(
                f"unknown static scheduler {inner!r} in policy {name!r}"
            )
        return STATIC_PREFIX + inner
    raise KeyError(
        f"unknown stream policy {name!r}; use 'OnlineHDLTS' or 'Static/<Name>'"
    )


@dataclass(frozen=True)
class StreamJob:
    """One DAG instance of the workload, ready to execute.

    ``graph`` is already normalized (single entry/exit).  ``durations``
    is the realized execution-time matrix ``(n_tasks, n_procs)`` or
    ``None`` for exact execution (realized == estimated ``W``); it is
    materialized up front so every policy replays the *same* world
    regardless of dispatch order.
    """

    index: int
    arrival: float
    graph: TaskGraph
    durations: Optional[np.ndarray] = None

    @property
    def exact(self) -> bool:
        return self.durations is None

    def duration_fn(self) -> DurationFn:
        """Realized execution time of ``(task, proc)``."""
        if self.durations is None:
            return self.graph.cost
        matrix = self.durations

        def duration(task: int, proc: int) -> float:
            return float(matrix[task, proc])

        return duration


@dataclass(frozen=True)
class StreamInstance:
    """A materialized workload: jobs sorted by arrival, shared platform."""

    jobs: Tuple[StreamJob, ...]
    n_procs: int
    busy_power: Tuple[float, ...] = ()
    idle_power: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a stream instance needs at least one job")
        for job in self.jobs:
            if job.graph.n_procs != self.n_procs:
                raise ValueError(
                    f"job {job.index} has {job.graph.n_procs} CPUs, "
                    f"platform has {self.n_procs}"
                )
        arrivals = [job.arrival for job in self.jobs]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("jobs must be sorted by arrival time")

    @property
    def exact(self) -> bool:
        return all(job.exact for job in self.jobs)


@dataclass(frozen=True)
class JobRecord:
    """One dispatch in the arena: :class:`OnlineRecord` plus a job id."""

    job: int
    task: int
    proc: int
    start: float
    finish: float
    duplicate: bool = False
    lost: bool = False


@dataclass
class JobResult:
    """Per-job outcome: when it arrived, started, and finished."""

    job: int
    arrival: float
    n_tasks: int
    finished: bool
    lost: bool
    finish: float = float("nan")
    first_start: float = float("nan")
    finish_times: Dict[int, float] = field(default_factory=dict)
    proc_of: Dict[int, int] = field(default_factory=dict)

    @property
    def sojourn(self) -> float:
        """Turnaround: completion minus arrival (waiting + service)."""
        return self.finish - self.arrival

    @property
    def makespan(self) -> float:
        """Execution span: completion minus first dispatch."""
        return self.finish - self.first_start

    @property
    def wait(self) -> float:
        """Admission-to-first-dispatch delay."""
        return self.first_start - self.arrival


@dataclass
class StreamResult:
    """Realized execution of a whole stream under one policy."""

    policy: str
    n_procs: int
    jobs: List[JobResult]
    records: List[JobRecord]
    horizon: float
    dead_procs: Tuple[int, ...] = ()
    n_lost_dispatches: int = 0
    exact: bool = True
    busy_power: Tuple[float, ...] = ()
    idle_power: Tuple[float, ...] = ()

    def finished_jobs(self) -> List[JobResult]:
        """Jobs that ran to completion, in arrival order."""
        return [j for j in self.jobs if j.finished]

    def lost_jobs(self) -> List[JobResult]:
        """Jobs explicitly marked lost (fleet died), in arrival order."""
        return [j for j in self.jobs if j.lost]

    def busy_times(self) -> np.ndarray:
        """Occupied time per CPU: the union of its realized intervals.

        Overlapping intervals (legal for noisy entry duplicates, whose
        admission window is estimate-driven) are merged, so busy time
        never exceeds the horizon and utilization stays <= 1.
        """
        busy = np.zeros(self.n_procs)
        per_proc: List[List[Tuple[float, float]]] = [
            [] for _ in range(self.n_procs)
        ]
        for rec in self.records:
            if rec.finish > rec.start:
                per_proc[rec.proc].append((rec.start, rec.finish))
        for proc, intervals in enumerate(per_proc):
            intervals.sort()
            total = 0.0
            lo = hi = None
            for s, e in intervals:
                if hi is None or s > hi:
                    if hi is not None:
                        total += hi - lo
                    lo, hi = s, e
                elif e > hi:
                    hi = e
            if hi is not None:
                total += hi - lo
            busy[proc] = total
        return busy

    def utilization(self) -> float:
        """Mean fraction of the horizon each CPU spent busy."""
        if self.horizon <= 0.0:
            return 0.0
        return float(np.mean(self.busy_times() / self.horizon))


# ----------------------------------------------------------------------
def _window_free(
    slots: Sequence[Tuple[float, float]], lo: float, hi: float
) -> bool:
    """Is ``[lo, hi)`` idle given the realized ``slots`` on a CPU?

    Mirrors ``ProcessorTimeline.fits`` semantics exactly (point slots
    block only strictly inside the window; a zero-duration window is
    blocked only strictly inside a real slot) so that at ``lo == 0`` the
    decision matches ``OnlineHDLTS``'s ``dup_fits`` bit for bit.
    """
    if hi - lo <= _EPS:
        return not any(s < lo < e - _EPS for s, e in slots)
    for s, e in slots:
        if e - s <= _EPS:
            if lo < s < hi - _EPS:
                return False
        elif s > lo:
            if s < hi - _EPS:
                return False
        elif e > lo + _EPS:
            return False
    return True


class _SlotIndex:
    """One CPU's realized slots, sorted by start, for window queries.

    A slot can block ``[lo, hi)`` only if it starts before ``hi`` and
    ends after ``lo``, so :meth:`window_free` evaluates
    :func:`_window_free` on the slots starting in
    ``[lo - 2 * max_len, hi)`` alone.  The look-back is bounded by the
    longest slot, not by the previous one, because noisy entry
    duplicates may overlap their neighbours; the factor two absorbs the
    rounding in ``finish - start``.
    """

    __slots__ = ("starts", "slots", "max_len")

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.slots: List[Tuple[float, float]] = []
        self.max_len = 0.0

    def add(self, start: float, finish: float) -> None:
        at = bisect_right(self.starts, start)
        self.starts.insert(at, start)
        self.slots.insert(at, (start, finish))
        if finish - start > self.max_len:
            self.max_len = finish - start

    def window_free(self, lo: float, hi: float) -> bool:
        first = bisect_left(self.starts, lo - 2.0 * self.max_len)
        last = bisect_left(self.starts, hi)
        return _window_free(self.slots[first:last], lo, hi)


class _AdmittedJob:
    """Mutable per-job execution state inside the arena.

    Adjacency and edge costs are read once, at admission, from the
    job's compiled CSR arrays.  ``parts`` (per ready task), ``block``
    (the whole ready set, online) and ``head_ready`` (the queue heads,
    static) cache values that depend only on this job's own copies and
    cursors: :meth:`add_copy` drops the rows of the new copy's children
    and both per-job views; :meth:`retire` frees everything for good
    once the job finishes.
    """

    __slots__ = (
        "job",
        "graph",
        "w",
        "preds",
        "entry",
        "arrival",
        "duration_fn",
        "itq",
        "copies",
        "finish_times",
        "proc_of",
        "parts",
        "block",
        "dup_open",
        "queues",
        "heads",
        "remaining",
        "head_ready",
    )

    def __init__(self, job: StreamJob) -> None:
        compiled = compile_graph(job.graph)
        self.job = job
        self.graph = job.graph
        self.w = compiled.w
        #: per task: (parent ids, edge costs), in graph insertion order
        self.preds = compiled.pred_lists
        self.entry = job.graph.entry_task
        self.arrival = job.arrival
        self.duration_fn = job.duration_fn()
        self.itq: Optional[IndependentTaskQueue] = None
        self.copies: Dict[int, List[Tuple[int, float]]] = {}
        self.finish_times: Dict[int, float] = {}
        self.proc_of: Dict[int, int] = {}
        # online policy: row caches + CPUs whose entry-duplication
        # window is not yet known to be closed (closing is permanent:
        # slots and copies are only ever added)
        self.parts: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        #: (ready tasks, their W rows, their rows without the
        #: duplication shortcut, indices of the entry's children)
        self.block: Optional[
            Tuple[List[int], np.ndarray, np.ndarray, List[int]]
        ] = None
        self.dup_open: List[int] = list(range(job.graph.n_procs))
        # static policy: per-CPU (task, is_duplicate) queues + cursors
        self.queues: Optional[List[List[Tuple[int, bool]]]] = None
        self.heads: Optional[List[int]] = None
        self.remaining = 0
        self.head_ready: Optional[List[float]] = None

    def arrival_of(self, parent: int, comm: float, proc: int) -> float:
        """Earliest availability on ``proc`` of ``parent``'s output,
        shipped over an edge of cost ``comm``."""
        copies = self.copies.get(parent)
        if not copies:
            return float("inf")
        return min(
            fin + (0.0 if cproc == proc else comm) for cproc, fin in copies
        )

    def arrivals(self, parent: int, comm: float, n_procs: int) -> List[float]:
        """:meth:`arrival_of` for every CPU at once."""
        best: Optional[List[float]] = None
        for cproc, fin in self.copies[parent]:
            row = [fin + comm] * n_procs
            row[cproc] = fin
            best = row if best is None else list(map(min, best, row))
        return best

    def row_parts(
        self, task: int, n_procs: int
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-CPU data arrival of ``task``'s inputs, split in two.

        Returns the latest arrival over the non-entry parents (``-inf``
        without any) and the entry's arrival over the network (``None``
        when the entry is not a parent) -- everything in a ready row
        except the floor and the entry-duplication shortcut.
        """
        parts = self.parts.get(task)
        if parts is None:
            nonentry = np.full(n_procs, -np.inf)
            via_entry = None
            for parent, comm in zip(*self.preds[task]):
                arrivals = self.arrivals(parent, comm, n_procs)
                if parent == self.entry:
                    via_entry = np.array(arrivals)
                else:
                    np.maximum(nonentry, arrivals, out=nonentry)
            parts = self.parts[task] = (nonentry, via_entry)
        return parts

    def add_copy(self, task: int, proc: int, finish: float) -> None:
        """Record a copy of ``task``; drops the rows it feeds."""
        self.copies.setdefault(task, []).append((proc, finish))
        for child in self.graph.successors(task):
            self.parts.pop(child, None)
        self.block = None
        self.head_ready = None

    def retire(self) -> None:
        """The job finished: keep only what the result reports."""
        self.parts = {}
        self.block = None
        self.head_ready = None
        self.copies = {}
        self.itq = None
        self.queues = None
        self.dup_open = []


class JobStream:
    """Event-driven arena executing a :class:`StreamInstance`."""

    def __init__(
        self,
        instance: StreamInstance,
        failures: Optional[Iterable[FailStop]] = None,
    ) -> None:
        self.instance = instance
        self.failures = tuple(failures) if failures else ()

    # ------------------------------------------------------------------
    def run(self, policy: str) -> StreamResult:
        """Execute the stream under ``policy``; returns the realization."""
        policy = normalize_policy(policy)
        instance = self.instance
        with obs.span(
            "stream.run",
            policy=policy,
            jobs=len(instance.jobs),
            procs=instance.n_procs,
        ):
            if policy == ONLINE_POLICY:
                return self._run_online(policy)
            if self.failures:
                raise ValueError(
                    "static stream policies cannot survive CPU failures; "
                    "use the OnlineHDLTS policy"
                )
            return self._run_static(policy)

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _setup(self):
        instance = self.instance
        state: Dict[str, object] = {
            "avail": np.zeros(instance.n_procs),
            "slots": [_SlotIndex() for _ in range(instance.n_procs)],
            "records": [],
            "first_start": {},
            "n_lost": 0,
            # every admitted job (for _assemble) and the unfinished
            # ones, both in admission order
            "admitted": [],
            "active": [],
            "next_ix": 0,
            "bus": obs.get_bus(),
        }
        return state

    def _admit(self, state) -> _AdmittedJob:
        job = self.instance.jobs[state["next_ix"]]
        state["next_ix"] += 1
        admitted = _AdmittedJob(job)
        state["admitted"].append(admitted)
        state["active"].append(admitted)
        obs.count("stream/jobs")
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.arrival",
                job=job.index,
                t=job.arrival,
                tasks=job.graph.n_tasks,
            )
        return admitted

    def _record(self, state, rec: JobRecord) -> None:
        state["records"].append(rec)
        state["slots"][rec.proc].add(rec.start, rec.finish)
        first = state["first_start"]
        if rec.job not in first or rec.start < first[rec.job]:
            first[rec.job] = rec.start
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.dispatch",
                job=rec.job,
                task=rec.task,
                proc=rec.proc,
                start=rec.start,
                finish=rec.finish,
                duplicate=rec.duplicate,
                lost=rec.lost,
            )
        if rec.lost:
            obs.count("stream/lost")
            state["n_lost"] += 1
        else:
            obs.count("stream/dispatches")

    def _finish_job(self, state, st: _AdmittedJob) -> None:
        state["active"].remove(st)
        st.retire()
        finish = max(st.finish_times.values(), default=st.arrival)
        obs.count("stream/job_finishes")
        bus = state["bus"]
        if bus.active:
            bus.emit(
                "stream.job_finish",
                job=st.job.index,
                arrival=st.arrival,
                finish=finish,
                sojourn=finish - st.arrival,
            )

    def _assemble(self, state, dead: set) -> StreamResult:
        instance = self.instance
        records: List[JobRecord] = state["records"]
        first_start: Dict[int, float] = state["first_start"]
        by_index = {st.job.index: st for st in state["admitted"]}
        horizon = 0.0
        for job in instance.jobs:
            horizon = max(horizon, job.arrival)
        for rec in records:
            horizon = max(horizon, rec.finish)
        jobs: List[JobResult] = []
        for job in instance.jobs:
            st = by_index.get(job.index)
            n_tasks = job.graph.n_tasks
            if st is not None and len(st.finish_times) == n_tasks:
                jobs.append(
                    JobResult(
                        job=job.index,
                        arrival=job.arrival,
                        n_tasks=n_tasks,
                        finished=True,
                        lost=False,
                        finish=max(st.finish_times.values()),
                        first_start=first_start.get(
                            job.index, float("nan")
                        ),
                        finish_times=st.finish_times,
                        proc_of=st.proc_of,
                    )
                )
            else:
                jobs.append(
                    JobResult(
                        job=job.index,
                        arrival=job.arrival,
                        n_tasks=n_tasks,
                        finished=False,
                        lost=True,
                        first_start=first_start.get(
                            job.index, float("nan")
                        ),
                        finish_times=(
                            dict(st.finish_times) if st is not None else {}
                        ),
                        proc_of=(
                            dict(st.proc_of) if st is not None else {}
                        ),
                    )
                )
        return StreamResult(
            policy=getattr(self, "_policy", ONLINE_POLICY),
            n_procs=instance.n_procs,
            jobs=jobs,
            records=records,
            horizon=horizon,
            dead_procs=tuple(sorted(dead)),
            n_lost_dispatches=state["n_lost"],
            exact=instance.exact,
            busy_power=instance.busy_power,
            idle_power=instance.idle_power,
        )

    # ------------------------------------------------------------------
    # online policy: merged-ready-set penalty-value loop
    # ------------------------------------------------------------------
    def _run_online(self, policy: str) -> StreamResult:
        self._policy = policy
        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        fail_at = failure_times(self.failures or None, n_procs)
        state = self._setup()
        avail: np.ndarray = state["avail"]
        slots: List[_SlotIndex] = state["slots"]
        active: List[_AdmittedJob] = state["active"]
        dead: set = set()

        def admit() -> None:
            st = self._admit(state)
            st.itq = IndependentTaskQueue(st.graph)

        def has_entry_copy(st: _AdmittedJob, proc: int) -> bool:
            return any(c == proc for c, _ in st.copies.get(st.entry, ()))

        def open_dup_procs(st: _AdmittedJob) -> List[int]:
            """CPUs where ``st``'s entry could be duplicated right now."""
            arrival, w_entry = st.arrival, st.w[st.entry]
            st.dup_open = [
                proc
                for proc in st.dup_open
                if not has_entry_copy(st, proc)
                and slots[proc].window_free(arrival, arrival + w_entry[proc])
            ]
            return st.dup_open

        def ready_row(st: _AdmittedJob, task: int, floor: float) -> np.ndarray:
            nonentry, via_entry = st.row_parts(task, n_procs)
            row = np.maximum(nonentry, floor)
            if via_entry is not None:
                entry_row = via_entry
                if st.dup_open and open_dup_procs(st):
                    entry_row = via_entry.copy()
                    for proc in st.dup_open:
                        entry_row[proc] = min(
                            via_entry[proc],
                            st.arrival + st.w[st.entry, proc],
                        )
                np.maximum(row, entry_row, out=row)
            return row

        def ready_block(
            st: _AdmittedJob,
        ) -> Tuple[List[int], np.ndarray, np.ndarray]:
            """(ready tasks, their W rows, their ready rows) for ``st``.

            The rows without the duplication shortcut are cached until
            the job records a copy or its ready set changes; the
            shortcut depends on other jobs' slots, so the rows it
            touches are rebuilt on every event.
            """
            if st.block is None:
                tasks = st.itq.ready_tasks()
                parts = [st.row_parts(task, n_procs) for task in tasks]
                rows = np.maximum(
                    np.array([nonentry for nonentry, _ in parts]), st.arrival
                )
                via_entry = [
                    i for i, (_, via) in enumerate(parts) if via is not None
                ]
                for i in via_entry:
                    np.maximum(rows[i], parts[i][1], out=rows[i])
                st.block = (tasks, st.w[tasks], rows, via_entry)
            tasks, w_rows, rows, via_entry = st.block
            if via_entry and st.dup_open and open_dup_procs(st):
                rows = rows.copy()
                for i in via_entry:
                    rows[i] = ready_row(st, tasks[i], st.arrival)
            return tasks, w_rows, rows

        def try_dispatch(
            st: _AdmittedJob, task: int, proc: int, ready: float
        ) -> Optional[float]:
            entry = st.entry
            parents, comms = st.preds[task]
            if (
                task != entry
                and entry in parents
                and not has_entry_copy(st, proc)
            ):
                via_network = st.arrival_of(
                    entry, comms[parents.index(entry)], proc
                )
                dup_end = st.arrival + st.w[entry, proc]
                if dup_end < via_network and slots[proc].window_free(
                    st.arrival, dup_end
                ):
                    dup_start = st.arrival
                    dup_finish = dup_start + st.duration_fn(entry, proc)
                    tau = fail_at.get(proc, np.inf)
                    if dup_finish > tau:
                        dead.add(proc)
                        avail[proc] = max(avail[proc], tau)
                        self._record(
                            state,
                            JobRecord(
                                st.job.index, entry, proc,
                                dup_start, tau, True, True,
                            ),
                        )
                        return None
                    avail[proc] = max(avail[proc], dup_finish)
                    st.add_copy(entry, proc, dup_finish)
                    self._record(
                        state,
                        JobRecord(
                            st.job.index, entry, proc,
                            dup_start, dup_finish, True,
                        ),
                    )
                    ready = st.arrival
                    for parent, comm in zip(parents, comms):
                        t = st.arrival_of(parent, comm, proc)
                        if t > ready:
                            ready = t
            start = max(avail[proc], ready)
            duration = st.duration_fn(task, proc)
            finish = start + duration
            tau = fail_at.get(proc, np.inf)
            if finish > tau:
                dead.add(proc)
                avail[proc] = tau
                self._record(
                    state,
                    JobRecord(
                        st.job.index, task, proc,
                        start, max(start, tau), False, True,
                    ),
                )
                return None
            avail[proc] = finish
            st.add_copy(task, proc, finish)
            st.finish_times[task] = finish
            st.proc_of[task] = proc
            self._record(
                state, JobRecord(st.job.index, task, proc, start, finish)
            )
            return finish

        while state["next_ix"] < n_jobs or active:
            if not active:
                admit()
                continue
            alive = [p for p in range(n_procs) if p not in dead]
            if not alive:
                break
            blocks = [ready_block(st) for st in active]
            rows = np.concatenate([block[2] for block in blocks])
            w_rows = np.concatenate([block[1] for block in blocks])
            est = np.maximum(rows, avail[None, :])
            eft = est + w_rows
            eft[:, sorted(dead)] = np.inf
            if len(alive) > 1:
                priorities = np.asarray(eft[:, alive]).std(axis=1, ddof=1)
            else:
                priorities = np.zeros(len(rows))
            index = int(np.argmax(priorities))
            for st, (tasks, _, _) in zip(active, blocks):
                if index < len(tasks):
                    task = tasks[index]
                    break
                index -= len(tasks)

            floor = st.arrival
            excluded: set = set(dead)
            held = False
            fleet_dead = False
            while True:
                candidates = [
                    p for p in range(n_procs) if p not in excluded
                ]
                if not candidates:
                    fleet_dead = True
                    break
                row = ready_row(st, task, floor)
                scores = {
                    p: max(row[p], avail[p]) + st.w[task, p]
                    for p in candidates
                }
                proc = min(scores, key=lambda p: (scores[p], p))
                # hold-back admission: the next pending job arrives no
                # later than this dispatch would start -> let it compete
                if (
                    state["next_ix"] < n_jobs
                    and max(row[proc], avail[proc])
                    >= self.instance.jobs[state["next_ix"]].arrival
                ):
                    admit()
                    held = True
                    break
                finish = try_dispatch(st, task, proc, row[proc])
                if finish is not None:
                    break
                floor = max(floor, avail[proc])
                excluded = set(dead)
            if fleet_dead:
                break
            if held:
                continue
            st.itq.complete(task)
            st.block = None
            if not st.itq:
                self._finish_job(state, st)
        return self._assemble(state, dead)

    # ------------------------------------------------------------------
    # static policies: per-job frozen schedules, shared global-time replay
    # ------------------------------------------------------------------
    def _run_static(self, policy: str) -> StreamResult:
        from repro.baselines.registry import make_scheduler

        self._policy = policy
        name = policy[len(STATIC_PREFIX):]
        instance = self.instance
        n_procs = instance.n_procs
        n_jobs = len(instance.jobs)
        state = self._setup()
        avail: np.ndarray = state["avail"]
        active: List[_AdmittedJob] = state["active"]
        inf = float("inf")

        def admit_static() -> None:
            st = self._admit(state)
            schedule = make_scheduler(name).run(st.graph).schedule
            st.queues = [
                [
                    (s.task, s.duplicate)
                    for s in sorted(
                        timeline.slots(), key=lambda s: (s.start, s.end)
                    )
                ]
                for timeline in schedule.timelines
            ]
            st.heads = [0] * n_procs
            st.remaining = sum(len(q) for q in st.queues)

        def head_ready(st: _AdmittedJob) -> List[float]:
            """Per-CPU data-ready time of ``st``'s queue heads.

            ``inf`` marks an exhausted queue or a head whose inputs do
            not exist yet; cached until the job dispatches again.
            """
            if st.head_ready is None:
                times = []
                for proc, (queue, head) in enumerate(zip(st.queues, st.heads)):
                    ready = inf
                    if head < len(queue):
                        task, _ = queue[head]
                        ready = st.arrival
                        for parent, comm in zip(*st.preds[task]):
                            t = st.arrival_of(parent, comm, proc)
                            if t == inf:
                                ready = inf
                                break
                            if t > ready:
                                ready = t
                    times.append(ready)
                st.head_ready = times
            return st.head_ready

        while state["next_ix"] < n_jobs or active:
            if not active:
                admit_static()
                continue
            # the earliest start over every active job's queue heads;
            # argmin keeps the first of equals in (job, CPU) order
            starts = np.maximum(
                np.array([head_ready(st) for st in active]), avail
            )
            flat = int(np.argmin(starts))
            row, proc = divmod(flat, n_procs)
            if starts[row, proc] == inf:
                stuck = [
                    st.queues[p][st.heads[p]][0]
                    for st in active
                    for p in range(n_procs)
                    if st.heads[p] < len(st.queues[p])
                ]
                raise DeadlockError(
                    f"stream replay deadlock; blocked head tasks: {stuck}"
                )
            st = active[row]
            best_start = max(avail[proc], st.head_ready[proc])
            if (
                state["next_ix"] < n_jobs
                and best_start >= instance.jobs[state["next_ix"]].arrival
            ):
                admit_static()
                continue
            task, is_dup = st.queues[proc][st.heads[proc]]
            duration = st.duration_fn(task, proc)
            finish = best_start + duration
            avail[proc] = finish
            st.add_copy(task, proc, finish)
            if not is_dup:
                if task in st.finish_times:
                    raise ValueError(
                        f"job {st.job.index} task {task} has two "
                        "primary copies"
                    )
                st.finish_times[task] = finish
                st.proc_of[task] = proc
            self._record(
                state,
                JobRecord(
                    st.job.index, task, proc, best_start, finish, is_dup
                ),
            )
            st.heads[proc] += 1
            st.remaining -= 1
            if not st.remaining:
                missing = [
                    t for t in st.graph.tasks() if t not in st.finish_times
                ]
                if missing:
                    raise ValueError(
                        f"job {st.job.index} tasks never executed: "
                        f"{missing[:10]}"
                    )
                self._finish_job(state, st)
        return self._assemble(state, set())


def run_stream(
    instance: StreamInstance,
    policy: str,
    failures: Optional[Iterable[FailStop]] = None,
) -> StreamResult:
    """Execute ``instance`` under ``policy``; convenience wrapper."""
    return JobStream(instance, failures).run(policy)
