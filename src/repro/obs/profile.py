"""Profiling contexts: nested phase timers behind one on/off switch.

``with phase("eft_vector"):`` times a block into the current
:class:`~repro.obs.metrics.MetricsRegistry` under the joined phase
stack (``HDLTS/eft_vector`` when entered inside ``phase("HDLTS")``),
and ``@instrumented`` wraps a whole function the same way.

The switch is the whole design: profiling defaults to *off*, and a
disabled :func:`phase` returns one shared no-op context manager -- no
allocation, no clock read, one cheap enabled test -- so the
instrumented hot paths of the schedulers cost nothing in production
runs.

Whether recording is on resolves in two steps: a scoped override
(:func:`enabled_scope`) wins while its block runs; otherwise the
``metrics`` field of the active :class:`~repro.runtime.context.RunContext`
decides.  A CLI run therefore turns measurement on by *activating a
context*, and the parallel sweep runner ships the effective state to
worker processes -- under any pool start method, not just ``fork``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.runtime.context import current_context as _current_context

__all__ = [
    "enabled",
    "enabled_scope",
    "phase",
    "instrumented",
    "count",
    "scoped_count",
    "current_scope",
]

#: :func:`enabled_scope` override: None defers to the active RunContext
_override: Optional[bool] = None
_stack: List[str] = []


def enabled() -> bool:
    """Whether the profiling layer is currently recording."""
    if _override is not None:
        return _override
    return _current_context().metrics


@contextmanager
def enabled_scope(flag: bool = True) -> Iterator[None]:
    """Temporarily force the enabled state (restores the previous one)."""
    global _override
    previous = _override
    _override = flag
    try:
        yield
    finally:
        _override = previous
        if not enabled():
            _stack.clear()


class _NoopPhase:
    """Shared do-nothing context: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopPhase()


class _Phase:
    """An active phase timer; records into the current registry on exit.

    When the per-phase span bridge is on (:func:`repro.obs.spans
    .phase_spans_scope`) the phase additionally opens a ``phase`` span,
    so single-run deep dives land in the Chrome-trace export; the timer
    itself is only observed while metric recording is enabled.
    """

    __slots__ = ("name", "_key", "_started", "_record", "_span")

    def __init__(self, name: str) -> None:
        self.name = name
        self._key = ""
        self._started = 0.0
        self._record = True
        self._span = None

    def __enter__(self) -> "_Phase":
        _stack.append(self.name)
        self._key = "/".join(_stack)
        self._record = enabled()
        if _spans.phase_spans_enabled():
            self._span = _spans.span("phase", name=self._key)
            self._span.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._started
        if self._span is not None:
            self._span.__exit__(None, None, None)
            self._span = None
        if _stack and _stack[-1] == self.name:
            _stack.pop()
        if self._record:
            _metrics.get_metrics().timer(self._key).observe(elapsed)
        return False


def phase(name: str):
    """Context manager timing a named (nestable) phase.

    Returns the shared no-op singleton when profiling is disabled, so a
    hot loop pays only the ``enabled`` test (plus one flag read for the
    span bridge).
    """
    if not (enabled() or _spans.phase_spans_enabled()):
        return _NOOP
    return _Phase(name)


def current_scope() -> Optional[str]:
    """Root of the active phase stack (the scheduler name inside a run)."""
    return _stack[0] if _stack and enabled() else None


def count(name: str, n: int = 1) -> None:
    """Increment a counter, but only while profiling is enabled."""
    if enabled():
        _metrics.get_metrics().counter(name).inc(n)


def scoped_count(name: str, n: int = 1) -> None:
    """Like :func:`count`, prefixing the current phase root (if any).

    Lets shared helpers (e.g. the baselines' EFT machinery) attribute
    counts to whichever scheduler's run they execute inside.
    """
    if enabled():
        root = _stack[0] if _stack else None
        key = f"{root}/{name}" if root else name
        _metrics.get_metrics().counter(key).inc(n)


def instrumented(name: Optional[str] = None) -> Callable:
    """Decorator timing every call of a function as a phase.

    ``name`` defaults to the function's ``__qualname__``.
    """

    def decorate(fn: Callable) -> Callable:
        phase_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (enabled() or _spans.phase_spans_enabled()):
                return fn(*args, **kwargs)
            with _Phase(phase_name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
