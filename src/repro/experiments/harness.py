"""Generic sweep runner.

A sweep walks one x-axis (CCR, task count, CPU count, FFT points, ...).
At every point it draws ``reps`` random problem instances and runs the
whole scheduler set on *the same* instance (paired comparison -- the
variance-reduction the paper's 1000-run averages rely on), accumulating
the chosen metric per scheduler with a Welford accumulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.registry import PAPER_SET, make_scheduler
from repro.core.batch import (
    BATCHABLE,
    CompiledBatch,
    instance_batchable,
    max_lanes,
    run_batch,
    same_shape,
)
from repro.experiments.graphspec import GraphSpec
from repro.metrics.metrics import efficiency, slr
from repro.metrics.stats import RunningStats
from repro.model.compiled import compile_graph
from repro.model.task_graph import TaskGraph
from repro.runtime.context import current_context
from repro.schedule.validation import validate_schedule

__all__ = [
    "SweepDefinition",
    "SweepResult",
    "run_sweep",
    "run_single_point",
    "run_replication",
    "run_replications",
]

GraphFactory = Callable[[object, np.random.Generator], TaskGraph]
OptionalFactory = Optional[GraphFactory]

_METRICS: Dict[str, Callable[[TaskGraph, float], float]] = {
    "slr": slr,
    "efficiency": efficiency,
    "makespan": lambda graph, makespan: makespan,
}


@dataclass(frozen=True)
class SweepDefinition:
    """A reproducible experiment: one figure of the paper.

    The graph factory comes in one of two forms: the declarative
    ``graph`` spec (a :class:`~repro.experiments.graphspec.GraphSpec`,
    the preferred form -- the definition then pickles, ships to any
    worker start method, and serializes into run manifests) or a legacy
    ``make_graph`` closure (fork-only, unserializable; kept for ad-hoc
    local sweeps).

    A third form sweeps a *job stream* instead of a single graph: give
    ``stream`` (a :class:`~repro.stream.spec.StreamSpec`) and the x-axis
    drives its injection knob (arrival rate/interval/job count), the
    ``schedulers`` tuple names stream policies, and ``metric`` comes
    from the stream-metric registry (sojourn, throughput, utilization,
    ...).  Everything downstream -- parallel chunking, campaign
    shard/merge, resume ledgers -- is shared.
    """

    key: str
    title: str
    x_label: str
    x_values: Tuple
    metric: str
    make_graph: OptionalFactory = None
    schedulers: Tuple[str, ...] = PAPER_SET
    description: str = ""
    graph: Optional[GraphSpec] = None
    stream: Optional[object] = None  # StreamSpec (lazily imported)

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ValueError("sweep needs at least one x value")
        if self.stream is not None:
            if self.make_graph is not None or self.graph is not None:
                raise ValueError(
                    "a stream definition cannot also carry a graph factory"
                )
            from repro.stream.metrics import STREAM_METRICS

            if self.metric not in STREAM_METRICS:
                raise ValueError(
                    f"stream metric must be one of "
                    f"{sorted(STREAM_METRICS)}, got {self.metric!r}"
                )
            from repro.stream.arena import normalize_policy

            for name in self.schedulers:
                normalize_policy(name)
            return
        if self.metric not in _METRICS:
            raise ValueError(
                f"metric must be one of {sorted(_METRICS)}, got {self.metric!r}"
            )
        if (self.make_graph is None) == (self.graph is None):
            raise ValueError(
                "exactly one of make_graph (closure) or graph (GraphSpec) "
                "must be given"
            )

    def build_graph(self, x, rng: np.random.Generator) -> TaskGraph:
        """Materialize the instance for x point ``x`` from ``rng``."""
        if self.graph is not None:
            return self.graph.build(x, rng)
        return self.make_graph(x, rng)

    @property
    def portable(self) -> bool:
        """True when the definition can be pickled/serialized (spec form)."""
        return self.graph is not None or self.stream is not None

    def to_dict(self) -> Dict[str, object]:
        """Manifest form; requires a declarative spec (graph or stream)."""
        if self.graph is None and self.stream is None:
            raise ValueError(
                f"definition {self.key!r} uses a make_graph closure and "
                "cannot be serialized; give it a GraphSpec instead"
            )
        data = {
            "key": self.key,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "metric": self.metric,
            "schedulers": list(self.schedulers),
            "description": self.description,
        }
        if self.stream is not None:
            data["stream"] = self.stream.to_dict()
        else:
            data["graph"] = self.graph.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepDefinition":
        """Rebuild a definition from :meth:`to_dict` output."""
        stream = None
        graph = None
        if data.get("stream") is not None:
            from repro.stream.spec import StreamSpec

            stream = StreamSpec.from_dict(data["stream"])
        else:
            graph = GraphSpec.from_dict(data["graph"])
        return cls(
            key=str(data["key"]),
            title=str(data["title"]),
            x_label=str(data["x_label"]),
            x_values=tuple(data["x_values"]),
            metric=str(data["metric"]),
            schedulers=tuple(data["schedulers"]),
            description=str(data.get("description", "")),
            graph=graph,
            stream=stream,
        )


@dataclass
class SweepResult:
    """Accumulated sweep output: ``stats[x][scheduler] -> RunningStats``.

    ``metrics`` holds the observability snapshot of the run (counters,
    timers, ... -- see :mod:`repro.obs.metrics`) when profiling was
    enabled; empty otherwise.  The parallel runner fills it by merging
    per-worker snapshots, so counter totals match a serial run exactly.
    """

    definition: SweepDefinition
    reps: int
    seed: int
    stats: Dict[object, Dict[str, RunningStats]] = field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def mean(self, x, scheduler: str) -> float:
        """Mean metric of ``scheduler`` at x point ``x``."""
        return self.stats[x][scheduler].mean

    def series(self, scheduler: str) -> List[float]:
        """Metric means across the x-axis for one scheduler."""
        return [self.stats[x][scheduler].mean for x in self.definition.x_values]

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat self-describing records for serialization.

        Each row carries the axis name (``x_label``) and the metric next
        to the values, so a row dropped into a CSV/JSON file needs no
        side channel back to the definition.
        """
        rows: List[Dict[str, object]] = []
        for x in self.definition.x_values:
            for name, acc in self.stats[x].items():
                rows.append(
                    {
                        "x": x,
                        "x_label": self.definition.x_label,
                        "metric": self.definition.metric,
                        "scheduler": name,
                        "mean": acc.mean,
                        "std": acc.std,
                        "n": acc.n,
                    }
                )
        return rows


def _build_instance(
    definition: SweepDefinition, x, x_index: int, rep: int, seed: int
) -> TaskGraph:
    """Draw, normalize and compile one instance."""
    rng = np.random.default_rng([seed, x_index, rep])
    graph = definition.build_graph(x, rng)
    if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
        graph = graph.normalized()
    # compile the instance once: the CSR arrays and the artifact cache
    # (ranks, OCT, CP bound, ...) are shared by every scheduler in the
    # set and by the metric functions
    compile_graph(graph)
    return graph


def run_replication(
    definition: SweepDefinition,
    x,
    x_index: int,
    rep: int,
    seed: int,
    validate: bool = False,
    graph: Optional[TaskGraph] = None,
) -> Dict[str, float]:
    """One replication of one x point: every scheduler on one instance.

    The RNG stream is keyed by ``(seed, x_index, rep)`` so replications
    are independent and the work can be chunked across processes without
    changing any result.  ``graph`` short-circuits the instance build
    when the caller already materialized it from the same stream (the
    batched dispatcher's scalar fallback).

    Stream definitions take the same protocol: the workload instance is
    materialized from the identical RNG key and every *policy* executes
    the same realization (with ``validate`` running the stream
    invariants instead of the schedule validator).
    """
    bus = obs.get_bus()
    observing = obs.enabled() or bus.active
    started = time.perf_counter() if observing else 0.0
    with obs.span(
        "sweep.replication", figure=definition.key, x=x, rep=rep
    ):
        if definition.stream is not None:
            from repro.stream.spec import run_stream_replication

            values = run_stream_replication(
                definition, x, x_index, rep, seed, validate=validate
            )
        else:
            metric_fn = _METRICS[definition.metric]
            if graph is None:
                graph = _build_instance(definition, x, x_index, rep, seed)
            values = {}
            # keyed by *registry* name so ablation variants of one class
            # coexist
            for name in definition.schedulers:
                result = make_scheduler(name).run(graph)
                if validate:
                    validate_schedule(graph, result.schedule)
                values[name] = metric_fn(graph, result.makespan)
    if observing:
        elapsed = time.perf_counter() - started
        if obs.enabled():
            registry = obs.get_metrics()
            registry.counter("sweep/replications").inc()
            registry.timer("sweep/replication").observe(elapsed)
        if bus.active:
            bus.emit(
                "sweep.replication",
                figure=definition.key,
                x=x,
                rep=rep,
                wall_s=elapsed,
                values=values,
            )
    return values


def _run_batched_group(
    definition: SweepDefinition,
    x,
    members: List[Tuple[int, TaskGraph]],
    batch: CompiledBatch,
    results: List[Optional[Dict[str, float]]],
) -> None:
    """One same-shape group through the batched kernel.

    Batchable schedulers run once over the whole group
    (:func:`repro.core.batch.run_batch`); anything else in the set
    (PETS, reference-only ablations, ...) runs scalar per instance.
    Per-instance metric values land in ``results`` at the caller's
    replication positions, bit-identical to the scalar path.
    """
    metric_fn = _METRICS[definition.metric]
    bus = obs.get_bus()
    with obs.span(
        "sweep.batch",
        figure=definition.key,
        x=x,
        size=batch.n_lanes,
        shape=batch.label,
    ):
        if bus.active:
            bus.emit(
                "sweep.batch",
                figure=definition.key,
                x=x,
                size=batch.n_lanes,
                shape=batch.label,
            )
        makespans: Dict[str, np.ndarray] = {}
        for name in definition.schedulers:
            if name not in BATCHABLE:
                continue
            batched = run_batch(batch, name)
            makespans[name] = batched.makespans
            # the same per-scheduler counter totals the scalar runs
            # would have recorded (no-ops while profiling is off)
            for key, total in batched.counters.items():
                obs.count(key, total)
        if obs.enabled():
            obs.get_metrics().counter("sweep/replications").inc(batch.n_lanes)
        for lane, (idx, graph) in enumerate(members):
            values: Dict[str, float] = {}
            for name in definition.schedulers:
                if name in makespans:
                    makespan = float(makespans[name][lane])
                else:
                    makespan = make_scheduler(name).run(graph).makespan
                values[name] = metric_fn(graph, makespan)
            results[idx] = values


def run_replications(
    definition: SweepDefinition,
    x,
    x_index: int,
    rep_lo: int,
    rep_hi: int,
    seed: int,
    validate: bool = False,
) -> List[Dict[str, float]]:
    """Replications ``[rep_lo, rep_hi)`` of one x point, in rep order.

    Bit-identical to calling :func:`run_replication` per rep.  When the
    active context allows it (``batch="auto"``, fast engine, no
    validation) the instances are grouped by graph shape
    and same-shape groups run through the batched multi-DAG kernel
    (:mod:`repro.core.batch`); ragged shapes, singleton groups,
    non-batchable schedulers and instances outside the kernel's
    duplication-window gate fall back to the scalar path.
    """
    reps = range(rep_lo, rep_hi)
    ctx = current_context()
    batchable = [n for n in definition.schedulers if n in BATCHABLE]
    if (
        definition.stream is not None
        or ctx.batch != "auto"
        or validate
        or ctx.engine != "fast"
        or rep_hi - rep_lo < 2
        or not batchable
    ):
        return [
            run_replication(definition, x, x_index, rep, seed, validate)
            for rep in reps
        ]
    # materialize the whole chunk up front: replication RNG streams are
    # keyed independently, so build order cannot change any draw
    built = [
        _build_instance(definition, x, x_index, rep, seed) for rep in reps
    ]
    compiled = [compile_graph(graph) for graph in built]
    # group by representative comparison, not by hashing: a chunk's
    # instances almost always share one shape, so comparing each
    # candidate against the group representatives (two int compares
    # plus identity-short-circuited array_equal in same_shape) replaces
    # serializing every instance's successor-CSR bytes per replication
    representatives: List[int] = []
    groups: List[List[int]] = []
    for idx, instance in enumerate(compiled):
        if not instance_batchable(instance, batchable):
            continue
        for members, rep_idx in zip(groups, representatives):
            if same_shape(compiled[rep_idx], instance):
                members.append(idx)
                break
        else:
            representatives.append(idx)
            groups.append([idx])
    results: List[Optional[Dict[str, float]]] = [None] * len(built)
    cap = max_lanes(compiled[0].n_tasks, compiled[0].n_procs)
    for idxs in groups:
        if len(idxs) < 2:
            continue  # singleton shape: batching buys nothing
        for lo in range(0, len(idxs), cap):
            sub = idxs[lo:lo + cap]
            batch = CompiledBatch([compiled[i] for i in sub])
            _run_batched_group(
                definition, x, [(i, built[i]) for i in sub], batch, results
            )
    for idx, rep in enumerate(reps):
        if results[idx] is None:
            results[idx] = run_replication(
                definition, x, x_index, rep, seed, validate, graph=built[idx]
            )
    return results


def run_single_point(
    definition: SweepDefinition,
    x,
    reps: int,
    seed: int = 0,
    x_index: int = 0,
    validate: bool = False,
) -> Dict[str, RunningStats]:
    """All replications of one x point; returns per-scheduler stats."""
    accumulators = {name: RunningStats() for name in definition.schedulers}
    for values in run_replications(
        definition, x, x_index, 0, reps, seed, validate
    ):
        for name, value in values.items():
            accumulators[name].add(value)
    return accumulators


def run_sweep(
    definition: SweepDefinition,
    reps: int = 30,
    seed: int = 0,
    validate: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run a full sweep; deterministic for a given ``seed``.

    With profiling enabled (:func:`repro.obs.enable`) the run's metrics
    land in ``result.metrics`` -- and also merge up into the enclosing
    registry, so a surrounding observability session sees the totals.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    result = SweepResult(definition=definition, reps=reps, seed=seed)
    bus = obs.get_bus()
    with obs.scoped() as registry, obs.span(
        "sweep.run", figure=definition.key, reps=reps
    ):
        for i, x in enumerate(definition.x_values):
            if progress:
                progress(f"{definition.key}: {definition.x_label}={x} ({reps} reps)")
            if bus.active:
                bus.emit(
                    "sweep.point",
                    figure=definition.key,
                    x_label=definition.x_label,
                    x=x,
                    reps=reps,
                )
            with obs.span(
                "sweep.point", figure=definition.key, x=x, reps=reps
            ):
                result.stats[x] = run_single_point(
                    definition, x, reps, seed=seed, x_index=i,
                    validate=validate,
                )
        if registry:
            result.metrics = registry.snapshot()
    return result
