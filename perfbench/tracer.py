"""In-memory span recorder for the traced benchmark run.

The traced run attributes time to the program's layers without any
instrumentation inside ``src/``: :func:`install` replaces the public
functions and methods each layer exposes, at the module or class
attribute their callers look up, with wrappers that open a span around
the original call.  Spans (name, start, end, parent, attributes) stay in
memory and are written out once, at the end of the run.

A span's *self time* is its duration minus the part of its interval
that child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: one recorded span: [name, start, end, parent index or -1, attrs]
Span = List[object]


def _assign(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Collects spans from wrapped calls; a no-op until :meth:`start`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict[str, object]]:
        """Record ``name`` around the body; yields its mutable attrs."""
        if not self.active:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record: Span = [name, time.perf_counter(), 0.0, parent, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[Callable[..., Dict[str, object]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (``owner[attr]`` for a dict) by a
        spanned wrapper, undone by :meth:`uninstall`; ``attrs(*args,
        **kwargs)`` names span attributes taken from the call."""
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with tracer.span(name, **extra):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        _assign(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            _assign(*self._patches.pop())

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time: duration minus its direct children's
        durations (spans of one process nest strictly)."""
        own = [end - start for _name, start, end, _parent, _attrs in self.spans]
        for _name, start, end, parent, _attrs in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return [max(0.0, t) for t in own]

    def dump(self, path: str, header: Dict[str, object]) -> None:
        """Write the header line and one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                        default=str,
                    )
                    + "\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the module docstring).

    Every attribute is the one the calling layer looks up at call time:
    class methods for graph specs, compilation, schedulers and batch
    packing; the harness's own module globals for the batched kernel and
    the metric table.
    """
    from repro.baselines.heft import HEFT
    from repro.baselines.peft import PEFT
    from repro.baselines.pets import PETS
    from repro.baselines.sdbats import SDBATS
    from repro.core.base import Scheduler
    from repro.core.batch import CompiledBatch
    from repro.core.hdlts import HDLTS
    from repro.experiments import harness
    from repro.experiments.graphspec import GraphSpec
    from repro.model.compiled import CompiledGraph

    tracer.wrap(GraphSpec, "build", "graphspec.build")
    tracer.wrap(CompiledGraph, "__init__", "model.compile")
    scalar = (
        (HDLTS, "core.hdlts"),
        (HEFT, "baselines.heft"),
        (PEFT, "baselines.peft"),
        (PETS, "baselines.pets"),
        (SDBATS, "baselines.sdbats"),
    )
    for cls, name in scalar:
        # the schedulers inherit ``run``; give each class its own
        # spanned copy so the span names the algorithm
        setattr(cls, "run", Scheduler.run)
        tracer.wrap(
            cls, "run", name,
            attrs=lambda self, graph: {"n_tasks": graph.n_tasks},
        )
    tracer.wrap(
        CompiledBatch, "__init__", "core.batch_pack",
        attrs=lambda self, instances: {"lanes": len(instances)},
    )
    tracer.wrap(
        harness, "run_batch", "core.batch",
        attrs=lambda batch, scheduler: {
            "lanes": batch.n_lanes,
            "n_tasks": batch.n_lanes * batch.instances[0].n_tasks,
        },
    )
    for key in list(harness._METRICS):
        tracer.wrap(harness._METRICS, key, "metrics.compute")


def uninstall(tracer: Tracer) -> None:
    """Undo :func:`install`, including the per-class ``run`` copies."""
    from repro.baselines.heft import HEFT
    from repro.baselines.peft import PEFT
    from repro.baselines.pets import PETS
    from repro.baselines.sdbats import SDBATS
    from repro.core.hdlts import HDLTS

    tracer.uninstall()
    for cls in (HDLTS, HEFT, PEFT, PETS, SDBATS):
        if "run" in cls.__dict__:
            delattr(cls, "run")
