"""Golden digests: the arena's record streams, pinned bit for bit.

Every case materializes a fixed workload, runs it through the arena and
hashes the full realization -- each dispatch record
``(job, task, proc, start, finish, duplicate, lost)`` with times as
exact float hex, then every job's ``finished``/``lost`` flags -- into
one SHA-256 digest.  The fixture ``golden_digests.json`` was written by
the original (scan-everything) arena, before its event loops were made
proportional to the work in flight; any optimization of the arena must
reproduce every digest unchanged.  A mismatch is a behavior change, not
a stale fixture: never rewrite the file to make this test pass.

Coverage: long Poisson streams at a light and a heavy rate under every
default policy, a burst (all arrivals at t=0), noisy FFT jobs whose
entry duplicates occupy real CPU time, and online runs through a
partial and a total fail-stop.  ``python -m tests.stream.test_golden``
prints the current digests (for inspecting a mismatch).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.dynamic.failures import FailStop
from repro.experiments.graphspec import GraphSpec
from repro.stream import ArrivalSpec, StreamInstance, StreamSpec, run_stream
from repro.stream.arena import StreamResult

FIXTURE = Path(__file__).with_name("golden_digests.json")

_POLICIES = ("OnlineHDLTS", "Static/HEFT", "Static/HDLTS")


_RANDOM = GraphSpec(
    "random", {"axis": "v", "n_procs": 4, "ccr": 1.0, "beta": 1.0}
)
#: FFT butterflies have a real (non-zero cost) entry task, so the
#: arena's entry-duplication window has positive width
_FFT = GraphSpec("fft", {"axis": "m", "n_procs": 4, "ccr": 2.0})


def _spec(
    n_jobs: int, arrival: ArrivalSpec, axis: str, sigma: float,
    job: GraphSpec = _RANDOM, job_x: object = 12,
):
    return StreamSpec(
        job=job,
        arrival=arrival,
        n_jobs=n_jobs,
        axis=axis,
        job_x=job_x,
        noise={"kind": "gaussian", "sigma": sigma} if sigma else None,
    )


def _poisson(n_jobs: int, rate: float, seed: int, sigma: float = 0.2, **kw):
    spec = _spec(
        n_jobs, ArrivalSpec("poisson", rate=rate), "rate", sigma, **kw
    )
    return spec.build(rate, np.random.default_rng([seed, 0, 0]))


def _burst(n_jobs: int, seed: int):
    spec = _spec(
        n_jobs, ArrivalSpec("deterministic", interval=0.0), "interval", 0.0
    )
    return spec.build(0.0, np.random.default_rng([seed, 0, 0]))


Case = Tuple[Callable[[], StreamInstance], str, Tuple[FailStop, ...]]


def golden_cases() -> Dict[str, Case]:
    """Case name -> (workload builder, policy, fail-stops)."""
    cases: Dict[str, Case] = {}
    for rate in (0.002, 0.02):
        for policy in _POLICIES:
            cases[f"poisson120-r{rate}-{policy}"] = (
                lambda rate=rate: _poisson(120, rate, 7), policy, ()
            )
    for policy in _POLICIES:
        cases[f"burst40-{policy}"] = (lambda: _burst(40, 3), policy, ())
    for rate, policy in (
        (0.002, "OnlineHDLTS"), (0.05, "OnlineHDLTS"), (0.05, "Static/HDLTS")
    ):
        cases[f"fft60-r{rate}-{policy}"] = (
            lambda rate=rate: _poisson(60, rate, 13, 0.3, job=_FFT, job_x=4),
            policy,
            (),
        )
    cases["failstop60-partial-OnlineHDLTS"] = (
        lambda: _poisson(60, 0.02, 11),
        "OnlineHDLTS",
        (FailStop(1, 900.0), FailStop(3, 1800.0)),
    )
    cases["failstop30-fleet-OnlineHDLTS"] = (
        lambda: _poisson(30, 0.02, 5),
        "OnlineHDLTS",
        tuple(FailStop(p, 300.0 + 100.0 * p) for p in range(4)),
    )
    return cases


def digest(result: StreamResult) -> str:
    """SHA-256 over every record and every job's outcome flags."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            f"{r.job},{r.task},{r.proc},{r.start.hex()},{r.finish.hex()},"
            f"{int(r.duplicate)},{int(r.lost)};".encode()
        )
    h.update(b"|")
    for job in result.jobs:
        h.update(f"{job.job},{int(job.finished)},{int(job.lost)};".encode())
    return h.hexdigest()


def run_case(name: str) -> StreamResult:
    build, policy, failures = golden_cases()[name]
    return run_stream(build(), policy, failures or None)


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_record_stream_matches_golden_digest(golden, name):
    assert digest(run_case(name)) == golden[name]


def test_failure_cases_exercise_loss():
    partial = run_case("failstop60-partial-OnlineHDLTS")
    assert partial.dead_procs and partial.n_lost_dispatches
    assert all(job.finished for job in partial.jobs)
    fleet = run_case("failstop30-fleet-OnlineHDLTS")
    assert fleet.dead_procs == (0, 1, 2, 3)
    assert fleet.lost_jobs()


if __name__ == "__main__":  # pragma: no cover - inspection aid
    print(
        json.dumps(
            {name: digest(run_case(name)) for name in sorted(golden_cases())},
            indent=2,
        )
    )
