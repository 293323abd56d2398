"""Daemon workers: claim tasks, execute, commit, publish progress.

A :class:`Worker` is one agent process in the scheduling service.  Its
loop is deliberately boring:

1. :meth:`~repro.service.queue.WorkQueue.claim` the next task (or
   sleep ``poll_s`` when the queue is idle),
2. :func:`~repro.runtime.context.adopt` the submitting job's stored
   :class:`~repro.runtime.context.RunContext` -- seed, engine,
   batched kernel, validation: execution is governed by the
   submission, not by whatever the worker process happens to have
   active,
3. run the task's replications through the existing harness
   (:func:`~repro.experiments.harness.run_replications` -- the batch
   kernel when the context says so),
4. :meth:`~repro.service.queue.WorkQueue.commit` the values; a commit
   rejected because the lease was reclaimed is counted and dropped,
5. publish progress over the obs event bus, whose pluggable backend
   (:class:`StoreEventSink`) persists the events into the service
   store -- so ``repro watch`` in another process sees them.

Crash-safety falls out of the queue protocol: a worker killed with
``kill -9`` leaves a leased task whose lease expires, another worker
reclaims and re-runs it (bit-identical, thanks to the ``(seed,
x_index, rep)`` RNG streams), and the dead worker's late commit --
had it survived -- would be rejected by the ownership guard.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro import obs
from repro.obs.events import Event, _json_default
from repro.runtime.context import RunContext, adopt
from repro.service.queue import DEFAULT_LEASE_S, Lease, WorkQueue
from repro.service.store import SqliteStore

__all__ = ["StoreEventSink", "Worker", "WorkerReport", "serve"]

PathLike = Union[str, pathlib.Path]

#: how long an idle worker sleeps between claim attempts
DEFAULT_POLL_S = 0.5


class StoreEventSink:
    """Bus backend persisting events into the store's ``events`` table.

    Rows are buffered and bulk-inserted (``flush_every`` events, plus
    explicit :meth:`flush` calls between queue polls), so publishing is
    cheap relative to task execution.  Like
    :class:`~repro.obs.events.JsonlSink` the sink remembers its PID and
    ignores events delivered in forked children -- a SQLite connection
    must never be shared across a fork.
    """

    def __init__(
        self, store: SqliteStore, source: str, flush_every: int = 32
    ) -> None:
        self.store = store
        self.source = source
        self.flush_every = flush_every
        self.n_written = 0
        self._buffer: List[tuple] = []
        self._pid = os.getpid()

    def __call__(self, event: Event) -> None:
        if os.getpid() != self._pid:
            return
        self._buffer.append(
            (
                event.ts,
                self.source,
                event.name,
                json.dumps(event.payload, default=_json_default),
            )
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Bulk-insert buffered rows (no-op on an empty buffer)."""
        if self._buffer and os.getpid() == self._pid:
            self.store.append_events(self._buffer)
            self.n_written += len(self._buffer)
        self._buffer.clear()


@dataclass(frozen=True)
class WorkerReport:
    """What one worker loop did before exiting."""

    worker: str
    executed: int
    replayed_discards: int
    failed: int
    interrupted: bool

    @property
    def total(self) -> int:
        return self.executed + self.failed


class Worker:
    """One daemon agent against a service store (see module docstring).

    ``drain=True`` exits once nothing is claimable *and* no live lease
    is outstanding (a crashed peer's lease is waited out, then
    reclaimed -- the CI crash test relies on this).  Without ``drain``
    the loop runs until interrupted, like any daemon.
    """

    def __init__(
        self,
        store_path: PathLike,
        worker_id: Optional[str] = None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = DEFAULT_POLL_S,
        drain: bool = False,
        max_tasks: Optional[int] = None,
    ) -> None:
        self.store_path = store_path
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.poll_s = poll_s
        self.drain = drain
        self.max_tasks = max_tasks

    def run(self) -> WorkerReport:
        """Run the claim/execute/commit loop to drain or interrupt."""
        from repro.experiments.harness import SweepDefinition, run_replications

        worker_id = self.worker_id or f"worker-{os.getpid()}"
        store = SqliteStore.open(self.store_path)
        queue = WorkQueue(store, lease_s=self.lease_s)
        store.register_worker(worker_id, os.getpid(), socket.gethostname())
        bus = obs.get_bus()
        sink = StoreEventSink(store, source=worker_id)
        previous = bus.set_backend(sink, topics=["service."])
        definitions: Dict[int, Dict[str, SweepDefinition]] = {}
        contexts: Dict[int, RunContext] = {}
        executed = discarded = failed = 0
        interrupted = False
        lease: Optional[Lease] = None
        bus.emit("service.worker", worker=worker_id, phase="started")
        try:
            while True:
                if self.max_tasks is not None and executed >= self.max_tasks:
                    break
                lease = queue.claim(worker_id)
                if lease is None:
                    store.beat_worker(worker_id, "idle", tasks_done=executed)
                    sink.flush()
                    if self.drain and self._drained(queue):
                        break
                    time.sleep(self.poll_s)
                    continue
                store.beat_worker(worker_id, "busy", tasks_done=executed)
                bus.emit(
                    "service.claim",
                    ticket=lease.ticket,
                    task=lease.task,
                    worker=worker_id,
                    attempt=lease.attempt,
                )
                job_id = lease.job_id
                if job_id not in contexts:
                    job = store.job_by_id(job_id)
                    contexts[job_id] = RunContext.from_dict(job.context)
                    definitions[job_id] = {
                        d["key"]: SweepDefinition.from_dict(d)
                        for d in job.spec
                    }
                context = contexts[job_id]
                adopt(context)
                definition = definitions[job_id][lease.sweep]
                started = time.perf_counter()
                try:
                    with obs.span(
                        "service.task", task=lease.task, worker=worker_id
                    ):
                        values = run_replications(
                            definition, lease.x, lease.x_index,
                            lease.rep_lo, lease.rep_hi, context.seed,
                            context.validate,
                        )
                except KeyboardInterrupt:
                    queue.release(worker_id, lease)
                    lease = None
                    interrupted = True
                    break
                except Exception as exc:
                    queue.fail(
                        worker_id, lease, f"{type(exc).__name__}: {exc}"
                    )
                    failed += 1
                    bus.emit(
                        "service.fail",
                        ticket=lease.ticket,
                        task=lease.task,
                        worker=worker_id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    lease = None
                    continue
                wall = time.perf_counter() - started
                committed = queue.commit(worker_id, lease, values, wall=wall)
                if committed:
                    executed += 1
                else:
                    # the lease expired mid-task and someone else owns
                    # (or already committed) it: at-most-once holds
                    discarded += 1
                bus.emit(
                    "service.commit",
                    ticket=lease.ticket,
                    task=lease.task,
                    worker=worker_id,
                    wall_s=wall,
                    committed=committed,
                )
                if committed:
                    job = store.job_by_id(job_id)
                    if job.state == "done":
                        bus.emit(
                            "service.job", ticket=lease.ticket, state="done"
                        )
                lease = None
        except KeyboardInterrupt:
            interrupted = True
            if lease is not None:
                queue.release(worker_id, lease)
        finally:
            bus.emit(
                "service.worker",
                worker=worker_id,
                phase="exited",
                executed=executed,
            )
            sink.flush()
            store.beat_worker(worker_id, "exited", tasks_done=executed)
            bus.set_backend(previous)
            store.close()
        return WorkerReport(
            worker=worker_id,
            executed=executed,
            replayed_discards=discarded,
            failed=failed,
            interrupted=interrupted,
        )

    @staticmethod
    def _drained(queue: WorkQueue) -> bool:
        counts = queue.outstanding()
        return counts["claimable"] == 0 and counts["leased"] == 0


def _run_worker(store_path: str, kwargs: Dict) -> None:
    Worker(store_path, **kwargs).run()


def serve(
    store_path: PathLike,
    workers: int = 1,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = DEFAULT_POLL_S,
    drain: bool = False,
    max_tasks: Optional[int] = None,
) -> List[WorkerReport]:
    """Run ``workers`` daemon agents against one service directory.

    One worker runs in-process (its report is returned); more than one
    runs each in its own OS process -- they coordinate purely through
    the store, exactly like workers started on different machines
    would.  Multi-process reports are reconstructed from the
    ``workers`` table.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    store = SqliteStore.open(store_path)  # create the schema up front
    store.close()
    kwargs = dict(
        lease_s=lease_s, poll_s=poll_s, drain=drain, max_tasks=max_tasks
    )
    if workers == 1:
        return [Worker(store_path, **kwargs).run()]
    mp = multiprocessing.get_context("spawn")
    procs = [
        mp.Process(
            target=_run_worker, args=(str(store_path), kwargs), daemon=False
        )
        for _ in range(workers)
    ]
    for proc in procs:
        proc.start()
    interrupted = False
    try:
        for proc in procs:
            proc.join()
    except KeyboardInterrupt:
        interrupted = True
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
    store = SqliteStore.open(store_path)
    try:
        reports = [
            WorkerReport(
                worker=str(row["worker"]),
                executed=int(row["tasks_done"]),
                replayed_discards=0,
                failed=0,
                interrupted=interrupted,
            )
            for row in store.workers()
        ]
    finally:
        store.close()
    if interrupted:
        raise KeyboardInterrupt
    return reports
