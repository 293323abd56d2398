"""Run-context architecture: explicit, picklable execution state.

Two pieces (see docs/architecture.md):

* :mod:`repro.runtime.context` -- the frozen :class:`RunContext`
  (seed, engine, batched kernel, validation, observability flags,
  worker decomposition) held in a context variable.  Readers across the
  model/obs/experiments layers consult it instead of process-global
  toggles; the parallel runner ships it to workers explicitly, which is
  what makes ``spawn``/``forkserver`` pools bit-identical to ``fork``.
* :mod:`repro.runtime.session` -- the :class:`ExperimentSession`: a run
  directory with a ``manifest.json`` (config + resolved sweep specs)
  and a crash-safe ``chunks.jsonl`` ledger that ``repro resume``
  replays.
* :mod:`repro.runtime.telemetry` -- live run observation over that
  directory: per-process heartbeat files, the ``repro.status/1``
  status document (:func:`run_status`), and the ``repro top`` terminal
  view (:func:`format_top`).
"""

from repro.runtime.context import (
    BATCH_CHOICES,
    DEFAULT_CONTEXT,
    ENGINE_CHOICES,
    START_METHODS,
    RunContext,
    activate,
    adopt,
    current_context,
    resolve_engine,
)
from repro.runtime.session import ExperimentSession
from repro.runtime.telemetry import (
    HeartbeatWriter,
    format_top,
    load_heartbeats,
    run_status,
    telemetry_dir,
)

__all__ = [
    "BATCH_CHOICES",
    "DEFAULT_CONTEXT",
    "ENGINE_CHOICES",
    "START_METHODS",
    "RunContext",
    "activate",
    "adopt",
    "current_context",
    "resolve_engine",
    "ExperimentSession",
    "HeartbeatWriter",
    "format_top",
    "load_heartbeats",
    "run_status",
    "telemetry_dir",
]
