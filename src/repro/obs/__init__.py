"""Observability: event bus, metrics registry and profiling contexts.

A dependency-free measurement layer for the whole toolkit:

* :mod:`repro.obs.events` -- a structured event bus.  Schedulers, the
  simulator, the online executor and the sweep harness emit typed
  events (``scheduler.decision``, ``sim.task_finish``, ...); any number
  of subscribers -- the Table-I trace recorder, a JSONL sink, a test --
  listen without the producers knowing.
* :mod:`repro.obs.metrics` -- counters, gauges, wall-clock timers and
  streaming histograms in a named registry, snapshot-able to plain
  dicts and exactly mergeable across worker processes.
* :mod:`repro.obs.profile` -- nested ``with phase("..."):`` timers and
  an ``@instrumented`` decorator behind one switch (the run context's
  ``metrics`` field, or :func:`enabled_scope`); disabled (the default)
  they reduce to one bool test and a shared no-op context.

Typical session (what ``repro profile`` does)::

    from repro import obs

    with obs.session(metrics=True) as sess:
        HDLTS().run(graph)
    print(obs.format_metrics(sess.snapshot))
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.events import Event, EventBus, JsonlSink, get_bus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    format_metrics,
    get_metrics,
    merge_snapshots,
    scoped,
)
from repro.obs.profile import (
    count,
    current_scope,
    enabled,
    enabled_scope,
    instrumented,
    phase,
    scoped_count,
)
from repro.obs.spans import (
    SPAN_TOPIC,
    SpanRecorder,
    phase_spans_scope,
    span,
    tracing,
    tracing_scope,
)

__all__ = [
    "Event",
    "EventBus",
    "JsonlSink",
    "get_bus",
    "emit",
    "subscribe",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "scoped",
    "merge_snapshots",
    "format_metrics",
    "enabled",
    "enabled_scope",
    "phase",
    "instrumented",
    "count",
    "scoped_count",
    "current_scope",
    "SPAN_TOPIC",
    "SpanRecorder",
    "span",
    "tracing",
    "tracing_scope",
    "phase_spans_scope",
    "session",
    "ObsSession",
]


def emit(name: str, /, **payload: object) -> None:
    """Emit an event on the process-global bus."""
    get_bus().emit(name, **payload)


def subscribe(subscriber, topics=None):
    """Subscribe to the process-global bus; returns the unsubscriber."""
    return get_bus().subscribe(subscriber, topics)


class ObsSession:
    """One observability session: optional JSONL sink + scoped metrics.

    Use through :func:`session`.  After exit, :attr:`snapshot` holds the
    metrics recorded during the block (empty when ``metrics=False``) and
    :attr:`n_events` counts the events written to the sink.
    """

    def __init__(
        self, events_path: Optional[str] = None, metrics: bool = False
    ) -> None:
        self._events_path = events_path
        self._metrics = metrics
        self._sink: Optional[JsonlSink] = None
        self._unsubscribe = None
        self._scope = None
        self._enabled_scope = None
        self.snapshot: Dict[str, Dict[str, object]] = {}
        self.n_events = 0

    def __enter__(self) -> "ObsSession":
        if self._events_path:
            self._sink = JsonlSink(self._events_path)
            self._unsubscribe = get_bus().subscribe(self._sink)
        if self._metrics:
            # force recording on for the block, restoring the previous
            # override on exit (symmetric even when the active RunContext
            # already has metrics=True)
            self._enabled_scope = enabled_scope(True)
            self._enabled_scope.__enter__()
            self._scope = scoped(merge_up=False)
            self._registry = self._scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._scope is not None:
            self.snapshot = self._registry.snapshot()
            self._scope.__exit__(None, None, None)
            self._enabled_scope.__exit__(None, None, None)
        if self._unsubscribe is not None:
            self._unsubscribe()
        if self._sink is not None:
            self.n_events = self._sink.n_written
            self._sink.close()


def session(
    events_path: Optional[str] = None, metrics: bool = False
) -> ObsSession:
    """Scope a JSONL event sink and/or a metrics-enabled registry."""
    return ObsSession(events_path=events_path, metrics=metrics)
