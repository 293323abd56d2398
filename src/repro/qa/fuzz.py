"""The seeded fuzz campaign behind ``repro fuzz``.

Each instance draws one random layered DAG (concrete per-instance seed
``[campaign_seed, instance]``, so any instance replays alone) and runs
every configured scheduler through every EFT engine it supports:

* the full invariant registry on every build;
* bit-identity of the schedule between the fast and the reference
  engine -- ``engine="reference"`` is the one oracle axis;
* on tiny instances (<= ``exact_max_tasks`` tasks), no-duplication
  schedules are compared against the branch-and-bound optimum: a
  heuristic "beating" the optimum means somebody's makespan is a lie;
* every ``metamorphic_every``-th instance additionally runs the
  metamorphic battery on a scheduler subset.

Any failure is shrunk to a minimal reproducer (:mod:`repro.qa.shrink`)
and appended to the golden corpus (:mod:`repro.qa.corpus`) so the normal
test suite replays it forever.  ``inject`` deliberately corrupts every
schedule after building -- the mutation-style smoke test proving the
oracles can actually see.

``stream`` mode fuzzes the continuous job-stream arena instead: each
instance draws a small random workload (interleaved DAG jobs, Poisson or
deterministic arrivals, optionally noisy durations), runs every stream
policy through the stream invariant registry, and re-asserts the
single-job rate->0 differential against the offline executors.  Caught
failures are pinned as fully materialized ``stream`` corpus entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.registry import SCHEDULER_FACTORIES, make_scheduler
from repro.generator import GeneratorConfig, generate_random_graph
from repro.io.json_io import graph_to_dict
from repro.model.task_graph import TaskGraph
from repro.qa.corpus import CorpusEntry, append_entries
from repro.qa.invariants import invariants_for, run_invariants
from repro.qa.metamorphic import run_metamorphic, schedule_signature
from repro.qa.shrink import shrink_graph
from repro.schedule.schedule import Schedule
from repro.schedule.validation import FEASIBILITY_EPS

__all__ = ["FuzzConfig", "FuzzViolation", "FuzzReport", "run_campaign"]

#: schedulers that get the (more expensive) metamorphic battery
DEFAULT_METAMORPHIC = ("HDLTS", "HEFT", "PEFT", "SDBATS", "CPOP")

INJECT_MODES = ("wrong-duration", "early-start")


@dataclass
class FuzzConfig:
    """Everything one campaign run depends on (and nothing else)."""

    instances: int = 100
    seed: int = 0
    #: registry names; ``None`` = every registered scheduler
    schedulers: Optional[Sequence[str]] = None
    #: invariant subset; ``None`` = the full registry
    invariants: Optional[Sequence[str]] = None
    #: tiny instances get an exact branch-and-bound oracle
    exact: bool = True
    exact_max_tasks: int = 9
    exact_max_states: int = 200_000
    #: every k-th instance runs the metamorphic battery
    metamorphic_every: int = 4
    metamorphic_schedulers: Sequence[str] = DEFAULT_METAMORPHIC
    #: GA is ~3 orders of magnitude slower than the list schedulers;
    #: it only fuzzes instances up to this many tasks (skips are counted
    #: in the report, never silent)
    ga_max_tasks: int = 12
    #: where shrunk reproducers are appended (``None`` = don't write)
    corpus_path: Optional[str] = None
    #: also pin every instance's default-combo makespans here
    golden_path: Optional[str] = None
    #: corrupt every schedule post-build ("wrong-duration"/"early-start")
    #: to prove the oracles catch it
    inject: Optional[str] = None
    shrink: bool = True
    max_shrink_attempts: int = 300
    #: fuzz job-stream workloads through the arena instead of single
    #: schedules (``invariants`` then names stream invariants;
    #: incompatible with ``inject``/``golden_path``)
    stream: bool = False
    #: stream policies; ``None`` = the arena's default policy set
    stream_policies: Optional[Sequence[str]] = None

    def scheduler_names(self) -> List[str]:
        """The registry names this campaign covers."""
        if self.schedulers is None:
            return list(SCHEDULER_FACTORIES)
        return [str(n) for n in self.schedulers]


@dataclass
class FuzzViolation:
    """One caught failure, already shrunk if shrinking succeeded."""

    instance: int
    scheduler: str
    stage: str  # "build" | "invariant" | "differential" | "exact" | "metamorphic"
    engine: Optional[str]
    problems: List[str]
    graph_tasks: int
    shrunk_tasks: Optional[int] = None
    corpus_id: Optional[str] = None

    def format(self) -> str:
        """One human-readable block: header plus the first problems."""
        where = f" [engine={self.engine}]" if self.engine is not None else ""
        shrunk = (
            f" (shrunk {self.graph_tasks}->{self.shrunk_tasks} tasks)"
            if self.shrunk_tasks is not None
            else ""
        )
        head = (
            f"instance {self.instance}: {self.scheduler}{where} "
            f"{self.stage} violation{shrunk}"
        )
        return "\n".join([head] + ["  " + p for p in self.problems[:6]])


@dataclass
class FuzzReport:
    """Campaign totals; ``ok`` gates the CLI exit code."""

    config: FuzzConfig
    instances: int = 0
    builds: int = 0
    exact_checks: int = 0
    metamorphic_runs: int = 0
    violations: List[FuzzViolation] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        """The campaign summary printed by ``repro fuzz``."""
        lines = [
            f"fuzz: {self.instances} instances, {self.builds} builds, "
            f"{self.exact_checks} exact checks, "
            f"{self.metamorphic_runs} metamorphic runs -> "
            f"{len(self.violations)} violations"
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        for violation in self.violations:
            lines.append(violation.format())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# instance generation
# ----------------------------------------------------------------------
def _draw_graph(
    rng: np.random.Generator, instance: int, config: FuzzConfig
) -> TaskGraph:
    """One random instance; every third one is tiny enough for B&B."""
    tiny = config.exact and instance % 3 == 0
    if tiny:
        v = int(rng.integers(4, config.exact_max_tasks + 1))
        n_procs = int(rng.integers(2, 4))
    else:
        v = int(rng.integers(8, 22))
        n_procs = int(rng.integers(2, 5))
    cfg = GeneratorConfig(
        v=v,
        alpha=float(rng.choice((0.5, 1.0, 2.0))),
        density=int(rng.integers(1, 4)),
        ccr=float(rng.choice((0.5, 1.0, 2.0, 5.0))),
        n_procs=n_procs,
        w_dag=50.0,
        beta=float(rng.choice((0.4, 1.2, 2.0))),
        single_entry=bool(rng.integers(0, 2)),
        heterogeneity=str(rng.choice(("inconsistent", "consistent"))),
    )
    return generate_random_graph(cfg, rng)


def _combos(name: str) -> List[Optional[str]]:
    """The engines a scheduler supports (``None``: it has no engine)."""
    probe = make_scheduler(name)
    return ["fast", "reference"] if hasattr(probe, "engine") else [None]


def _build(
    name: str, graph: TaskGraph, engine: Optional[str]
) -> Tuple[TaskGraph, Schedule]:
    scheduler = make_scheduler(name)
    if engine is not None:
        scheduler.engine = engine
    prepared = scheduler.prepare(graph)
    return prepared, scheduler.build_schedule(prepared)


# ----------------------------------------------------------------------
# deliberate corruption (mutation-style smoke test of the oracles)
# ----------------------------------------------------------------------
def _inject_wrong_duration(graph: TaskGraph, schedule: Schedule) -> bool:
    """Re-place some task with half its true duration."""
    candidates = [
        t
        for t in graph.tasks()
        if schedule.finish_of(t) - schedule.assignment(t).start
        > 10 * FEASIBILITY_EPS
    ]
    if not candidates:
        return False
    task = max(candidates, key=lambda t: schedule.assignment(t).start)
    a = schedule.assignment(task)
    duration = a.finish - a.start
    schedule.unplace(task)
    schedule.place(task, a.proc, a.start, duration=duration * 0.5)
    return True


def _inject_early_start(graph: TaskGraph, schedule: Schedule) -> bool:
    """Pull a data-bound task before its inputs arrive (precedence bug)."""
    by_start = sorted(
        graph.tasks(), key=lambda t: -schedule.assignment(t).start
    )
    for task in by_start:
        if graph.in_degree(task) == 0:
            continue
        a = schedule.assignment(task)
        arrival = max(
            schedule.arrival_time(p, task, a.proc)
            for p in graph.predecessors(task)
        )
        if arrival <= 10 * FEASIBILITY_EPS:
            continue
        duration = a.finish - a.start
        schedule.unplace(task)
        early = arrival / 2.0
        if schedule.timelines[a.proc].fits(early, early + duration):
            schedule.place(task, a.proc, early, duration=duration)
            return True
        schedule.place(task, a.proc, a.start, duration=duration)  # restore
    return False


def _inject(mode: str, graph: TaskGraph, schedule: Schedule) -> bool:
    if mode == "wrong-duration":
        return _inject_wrong_duration(graph, schedule)
    if mode == "early-start":
        if _inject_early_start(graph, schedule):
            return True
        return _inject_wrong_duration(graph, schedule)
    raise ValueError(f"unknown inject mode {mode!r}; known: {INJECT_MODES}")


# ----------------------------------------------------------------------
# shrinking predicates
# ----------------------------------------------------------------------
def _still_violates(
    name: str,
    engine: Optional[str],
    invariant_names: Optional[Sequence[str]],
) -> Callable[[TaskGraph], bool]:
    """Predicate: does the scheduler still violate these invariants?"""

    def predicate(candidate: TaskGraph) -> bool:
        prepared, schedule = _build(name, candidate, engine)
        return not run_invariants(prepared, schedule, invariant_names).ok

    return predicate


def _still_caught_injected(
    name: str,
    engine: Optional[str],
    mode: str,
    invariant_names: Sequence[str],
) -> Callable[[TaskGraph], bool]:
    """Predicate: can we still corrupt a schedule AND catch it here?"""

    def predicate(candidate: TaskGraph) -> bool:
        prepared, schedule = _build(name, candidate, engine)
        if not _inject(mode, prepared, schedule):
            return False
        return not run_invariants(prepared, schedule, invariant_names).ok

    return predicate


def _still_crashes(name: str, engine: Optional[str]) -> Callable[[TaskGraph], bool]:
    def predicate(candidate: TaskGraph) -> bool:
        try:
            _build(name, candidate, engine)
        except Exception:
            return True
        return False

    return predicate


# ----------------------------------------------------------------------
# the stream campaign
# ----------------------------------------------------------------------
def _draw_stream(rng: np.random.Generator):
    """One random small job-stream workload (arrivals first, then jobs)."""
    from repro.dynamic.noise import gaussian_noise
    from repro.stream.arena import StreamInstance, StreamJob
    from repro.stream.arrivals import ArrivalSpec

    n_jobs = int(rng.integers(2, 7))
    n_procs = int(rng.integers(2, 5))
    if rng.integers(0, 2):
        arrival = ArrivalSpec(
            "poisson", rate=float(rng.choice((0.005, 0.02, 0.1)))
        )
    else:
        arrival = ArrivalSpec(
            "deterministic", interval=float(rng.choice((0.0, 15.0, 60.0)))
        )
    times = arrival.times(n_jobs, rng)
    sigma = float(rng.choice((0.0, 0.2)))
    jobs = []
    for index in range(n_jobs):
        cfg = GeneratorConfig(
            v=int(rng.integers(5, 13)),
            alpha=float(rng.choice((0.5, 1.0, 2.0))),
            density=int(rng.integers(1, 4)),
            ccr=float(rng.choice((0.5, 1.0, 5.0))),
            n_procs=n_procs,
            w_dag=50.0,
            beta=float(rng.choice((0.4, 1.2, 2.0))),
            single_entry=bool(rng.integers(0, 2)),
            heterogeneity=str(rng.choice(("inconsistent", "consistent"))),
        )
        graph = generate_random_graph(cfg, rng)
        if len(graph.entry_tasks()) != 1 or len(graph.exit_tasks()) != 1:
            graph = graph.normalized()
        durations = None
        if sigma > 0.0:
            fn = gaussian_noise(graph, sigma, rng)
            durations = np.array(
                [
                    [fn(task, proc) for proc in range(graph.n_procs)]
                    for task in range(graph.n_tasks)
                ]
            )
        jobs.append(
            StreamJob(
                index=index,
                arrival=float(times[index]),
                graph=graph,
                durations=durations,
            )
        )
    return StreamInstance(jobs=tuple(jobs), n_procs=n_procs)


def _run_stream_campaign(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Fuzz the job-stream arena; never raises on an arena bug."""
    from dataclasses import replace as dc_replace

    from repro.qa.corpus import _stream_differential
    from repro.qa.invariants import run_stream_invariants
    from repro.stream.arena import StreamInstance, run_stream
    from repro.stream.spec import DEFAULT_POLICIES, instance_to_dict

    policies = [
        str(p)
        for p in (
            config.stream_policies
            if config.stream_policies is not None
            else DEFAULT_POLICIES
        )
    ]
    report = FuzzReport(config=config)
    bus = obs.get_bus()

    def caught(violation: FuzzViolation, workload) -> None:
        """Pin one failure as a fully materialized stream entry."""
        obs.count("fuzz/violations")
        if bus.active:
            bus.emit(
                "fuzz.violation",
                instance=violation.instance,
                scheduler=violation.scheduler,
                stage=violation.stage,
                first=violation.problems[0] if violation.problems else "",
            )
        if config.corpus_path is not None:
            entry_id = (
                f"stream-s{config.seed}-i{violation.instance}-"
                f"{violation.scheduler.replace('/', '-')}-{violation.stage}"
            )
            expected = {"stream": instance_to_dict(workload)}
            if violation.stage == "differential":
                expected["differential"] = True
            entry = CorpusEntry(
                kind="stream",
                id=entry_id,
                graph=graph_to_dict(workload.jobs[0].graph),
                scheduler=violation.scheduler,
                source=(
                    f"repro fuzz --stream --seed {config.seed} "
                    f"--instances {config.instances}"
                ),
                problems=violation.problems[:10],
                expected=expected,
                note=f"stage={violation.stage}",
            )
            append_entries(config.corpus_path, [entry])
            violation.corpus_id = entry_id
        report.violations.append(violation)

    for instance in range(config.instances):
        rng = np.random.default_rng([config.seed, instance])
        workload = _draw_stream(rng)
        report.instances += 1
        obs.count("fuzz/instances")
        n_tasks = sum(job.graph.n_tasks for job in workload.jobs)
        # the rate->0 sub-workload: the first job alone, arriving at 0
        lone = StreamInstance(
            jobs=(dc_replace(workload.jobs[0], index=0, arrival=0.0),),
            n_procs=workload.n_procs,
        )

        for policy in policies:
            try:
                result = run_stream(workload, policy)
            except Exception as err:
                caught(
                    FuzzViolation(
                        instance=instance,
                        scheduler=policy,
                        stage="build",
                        engine=None,
                        problems=[f"stream run crashed: {err!r}"],
                        graph_tasks=n_tasks,
                    ),
                    workload,
                )
                continue
            report.builds += 1
            obs.count("fuzz/builds")
            inv = run_stream_invariants(workload, result, config.invariants)
            if not inv.ok:
                caught(
                    FuzzViolation(
                        instance=instance,
                        scheduler=policy,
                        stage="invariant",
                        engine=None,
                        problems=inv.all_problems(),
                        graph_tasks=n_tasks,
                    ),
                    workload,
                )
                continue
            # rate->0 differential: a lone job must replay the offline
            # executors bit for bit
            try:
                lone_result = run_stream(lone, policy)
                problems = _stream_differential(lone, policy, lone_result)
            except Exception as err:
                problems = [f"single-job differential crashed: {err!r}"]
            report.exact_checks += 1
            obs.count("fuzz/stream_differentials")
            if problems:
                caught(
                    FuzzViolation(
                        instance=instance,
                        scheduler=policy,
                        stage="differential",
                        engine=None,
                        problems=problems,
                        graph_tasks=lone.jobs[0].graph.n_tasks,
                    ),
                    lone,
                )

        if progress is not None and (instance + 1) % 10 == 0:
            progress(
                f"[{instance + 1}/{config.instances}] "
                f"{report.builds} stream runs, "
                f"{len(report.violations)} violations"
            )

    return report


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def run_campaign(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run the whole campaign; never raises on a scheduler bug."""
    from repro.exact.branch_and_bound import (
        SearchBudgetExceeded,
        optimal_makespan,
    )

    if config.stream:
        if config.inject is not None:
            raise ValueError("inject modes only apply to schedule fuzzing")
        if config.golden_path is not None:
            raise ValueError("golden pinning only applies to schedule fuzzing")
        return _run_stream_campaign(config, progress)
    if config.inject is not None and config.inject not in INJECT_MODES:
        raise ValueError(
            f"unknown inject mode {config.inject!r}; known: {INJECT_MODES}"
        )
    names = config.scheduler_names()
    combos = {name: _combos(name) for name in names}
    report = FuzzReport(config=config)
    bus = obs.get_bus()
    ga_skips = 0
    exact_budget_skips = 0

    def caught(violation: FuzzViolation, graph: TaskGraph) -> None:
        """Shrink, persist and record one failure."""
        obs.count("fuzz/violations")
        if bus.active:
            bus.emit(
                "fuzz.violation",
                instance=violation.instance,
                scheduler=violation.scheduler,
                stage=violation.stage,
                first=violation.problems[0] if violation.problems else "",
            )
        shrunk = graph
        if config.shrink and violation.stage in ("build", "invariant"):
            inv_names = (
                config.invariants
                if config.invariants is not None
                else invariants_for(violation.scheduler)
            )
            if violation.stage == "build":
                predicate = _still_crashes(violation.scheduler, violation.engine)
            elif config.inject is not None:
                # an injected failure shrinks toward the smallest graph
                # on which the corruption still exists AND is still seen
                predicate = _still_caught_injected(
                    violation.scheduler,
                    violation.engine,
                    config.inject,
                    inv_names,
                )
            else:
                predicate = _still_violates(
                    violation.scheduler, violation.engine, inv_names
                )
            shrunk = shrink_graph(
                graph, predicate, max_attempts=config.max_shrink_attempts
            )
            violation.shrunk_tasks = shrunk.n_tasks
        if config.corpus_path is not None:
            entry_id = (
                f"fuzz-s{config.seed}-i{violation.instance}-"
                f"{violation.scheduler}-{violation.stage}"
            )
            entry = CorpusEntry(
                kind="violation",
                id=entry_id,
                graph=graph_to_dict(shrunk),
                scheduler=violation.scheduler,
                engine=violation.engine,
                source=(
                    f"repro fuzz --seed {config.seed} "
                    f"--instances {config.instances}"
                ),
                problems=violation.problems[:10],
                note=f"stage={violation.stage}",
            )
            append_entries(config.corpus_path, [entry])
            violation.corpus_id = entry_id
        report.violations.append(violation)

    for instance in range(config.instances):
        rng = np.random.default_rng([config.seed, instance])
        graph = _draw_graph(rng, instance, config)
        report.instances += 1
        obs.count("fuzz/instances")
        opt_cache: Dict[str, Optional[float]] = {}
        golden_makespans: Dict[str, float] = {}

        for name in names:
            if name == "GA" and graph.n_tasks > config.ga_max_tasks:
                ga_skips += 1
                continue
            inv_names = (
                config.invariants
                if config.invariants is not None
                else invariants_for(name)
            )
            signatures = []
            for engine in combos[name]:
                try:
                    prepared, schedule = _build(name, graph, engine)
                except Exception as err:
                    caught(
                        FuzzViolation(
                            instance=instance,
                            scheduler=name,
                            stage="build",
                            engine=engine,
                            problems=[f"build crashed: {err!r}"],
                            graph_tasks=graph.n_tasks,
                        ),
                        graph,
                    )
                    continue
                report.builds += 1
                obs.count("fuzz/builds")
                if config.inject is not None:
                    if not _inject(config.inject, prepared, schedule):
                        report.notes.append(
                            f"instance {instance}: {name}: no injectable "
                            "task (degenerate schedule)"
                        )
                        continue
                inv = run_invariants(prepared, schedule, inv_names)
                if not inv.ok:
                    caught(
                        FuzzViolation(
                            instance=instance,
                            scheduler=name,
                            stage="invariant",
                            engine=engine,
                            problems=inv.all_problems(),
                            graph_tasks=graph.n_tasks,
                        ),
                        graph,
                    )
                    continue
                if config.inject is not None:
                    continue  # corrupted schedules prove nothing below
                signatures.append((engine, schedule_signature(schedule)))

                # exact oracle: no-duplication schedules cannot beat the
                # no-duplication optimum
                if (
                    config.exact
                    and prepared.n_tasks <= config.exact_max_tasks
                    and not schedule.duplicates()
                ):
                    key = "raw" if prepared is graph else "norm"
                    if key not in opt_cache:
                        try:
                            opt_cache[key] = optimal_makespan(
                                prepared, max_states=config.exact_max_states
                            )
                        except SearchBudgetExceeded:
                            opt_cache[key] = None
                            exact_budget_skips += 1
                    optimum = opt_cache[key]
                    if optimum is not None:
                        report.exact_checks += 1
                        obs.count("fuzz/exact_checks")
                        if schedule.makespan < optimum - FEASIBILITY_EPS * (
                            1.0 + optimum
                        ):
                            caught(
                                FuzzViolation(
                                    instance=instance,
                                    scheduler=name,
                                    stage="exact",
                                    engine=engine,
                                    problems=[
                                        f"makespan {schedule.makespan!r} beats "
                                        f"the no-duplication optimum {optimum!r}"
                                    ],
                                    graph_tasks=graph.n_tasks,
                                ),
                                graph,
                            )

                if config.golden_path is not None and engine in (None, "fast"):
                    golden_makespans[name] = schedule.makespan

            # all supported combos must agree bit for bit
            if len(signatures) > 1:
                base_engine, base_sig = signatures[0]
                for engine, sig in signatures[1:]:
                    if sig != base_sig:
                        diff = sorted(
                            t
                            for t in set(base_sig) | set(sig)
                            if base_sig.get(t) != sig.get(t)
                        )
                        caught(
                            FuzzViolation(
                                instance=instance,
                                scheduler=name,
                                stage="differential",
                                engine=engine,
                                problems=[
                                    f"schedule differs from engine="
                                    f"{base_engine} on tasks "
                                    f"{diff[:8]}"
                                ],
                                graph_tasks=graph.n_tasks,
                            ),
                            graph,
                        )
                        break

        if (
            config.inject is None
            and config.metamorphic_every > 0
            and instance % config.metamorphic_every == 0
        ):
            battery_names = [
                n for n in config.metamorphic_schedulers if n in names
            ]
            for name in battery_names:
                results = run_metamorphic(
                    lambda n=name: make_scheduler(n),
                    graph,
                    rng,
                    scheduler_name=name,
                )
                report.metamorphic_runs += 1
                problems = [
                    f"{r.transform}: {p}"
                    for r in results
                    for p in r.problems
                ]
                if problems:
                    caught(
                        FuzzViolation(
                            instance=instance,
                            scheduler=name,
                            stage="metamorphic",
                            engine=None,
                            problems=problems,
                            graph_tasks=graph.n_tasks,
                        ),
                        graph,
                    )

        if config.golden_path is not None and golden_makespans:
            append_entries(
                config.golden_path,
                [
                    CorpusEntry(
                        kind="golden",
                        id=f"golden-s{config.seed}-i{instance}",
                        graph=graph_to_dict(graph),
                        source=f"repro fuzz --seed {config.seed} --emit-golden",
                        expected={"makespans": golden_makespans},
                    )
                ],
            )

        if progress is not None and (instance + 1) % 10 == 0:
            progress(
                f"[{instance + 1}/{config.instances}] "
                f"{report.builds} builds, "
                f"{len(report.violations)} violations"
            )

    if ga_skips:
        report.notes.append(
            f"GA capped to <= {config.ga_max_tasks} tasks: "
            f"skipped {ga_skips} instances"
        )
    if exact_budget_skips:
        report.notes.append(
            f"branch-and-bound budget exceeded on {exact_budget_skips} "
            "instances (skipped, not failed)"
        )
    return report
