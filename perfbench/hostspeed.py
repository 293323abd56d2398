"""Host-speed yardsticks behind the benchmark's normalized times.

The benchmark runs on a few cores of a host it shares with other
tenants.  Their load slows every instruction this process executes --
by up to about 2x, switching on and off within milliseconds, and with a
share that drifts over minutes and hours -- and process CPU time grows
with it, because the slowdown comes from sharing a core, not from
waiting for one.  Raw wall and CPU times of two runs of the same code
can therefore differ by a third.

:func:`slice_s` times a fixed slice of reference work: heap, dict,
sorting and float traffic plus small NumPy calls, the mix the schedulers
and the arena run, so it slows by about the same factor as the program
does.  ``run.py`` times one slice before and after every timed
execution and every set-up probe, and divides the execution's time by
the mean of the two slices it sits between (times :data:`REFERENCE_S`),
which cancels the host's speed at that moment.

Set-up probes are fresh interpreters, which spend their time on process
start and imports rather than on the program's inner loops; they are
timed against the reference launch ``probe.py --reference`` instead,
one just before and one just after each probe (times
:data:`REFERENCE_LAUNCH_S`).

The reference work is the benchmark's own and never changes with the
program, so a change to the program moves a normalized time exactly as
much as the raw one.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: kernels per slice
KERNELS = 300
#: seconds one slice takes on an uncontended host (2-core Intel Xeon,
#: Python 3.11, NumPy 2.4); it only sets the scale of normalized times
REFERENCE_S = 0.030
#: seconds one ``probe.py --reference`` launch takes on the same host
REFERENCE_LAUNCH_S = 0.12

_VEC = np.arange(32.0)


def _kernel() -> float:
    heap = []
    ready = {}
    acc = 0.0
    for i in range(120):
        heapq.heappush(heap, ((i * 7919) % 211, i))
        ready[i % 53] = ready.get(i % 53, 0.0) + i * 0.5
    while heap:
        rank, i = heapq.heappop(heap)
        acc += rank * 0.25 + ready[i % 53]
    times = sorted(float((i * 37) % 101) for i in range(80))
    acc += times[-1] - times[0]
    vec = _VEC
    for _ in range(4):
        vec = np.minimum(vec + 1.0, vec[::-1])
    return acc + float(vec[0])


def slice_s() -> float:
    """Wall seconds of one slice of reference work, right now."""
    started = time.perf_counter()
    for _ in range(KERNELS):
        _kernel()
    return time.perf_counter() - started


def factor(before: float, after: float) -> float:
    """Slowdown of the host around a timed call, from the slices timed
    just before and just after it (1.0 on an uncontended host)."""
    return (before + after) / (2.0 * REFERENCE_S)
