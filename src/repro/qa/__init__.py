"""Standing correctness subsystem: oracles that need no scheduler twin.

Every scheduler in the library runs through two fast paths (the scalar
EFT engines and the compiled CSR graph kernels).  This package is the
safety net that catches semantic drift in any of them *without*
reimplementing a scheduler:

* :mod:`repro.qa.invariants` -- a registry of named, composable checks
  run against any ``(graph, schedule)`` pair: feasibility, makespan
  bounds (CP_MIN below, total work + communication above), Algorithm-1
  duplicate legality, metric consistency, and simulator replay
  agreement;
* :mod:`repro.qa.metamorphic` -- semantics-preserving or
  monotonicity-known graph transforms (uniform cost scaling, task
  relabeling, zero-cost transitive edges, CPU permutation, CCR
  rescaling) with the relation each one must induce between the two
  schedules;
* :mod:`repro.qa.fuzz` -- the seeded campaign driver behind
  ``repro fuzz``: random DAGs x every registry scheduler x
  {fast, reference engine}, all invariants,
  exact branch-and-bound oracles on tiny instances, metamorphic
  relations, and shrinking of any failure to a minimal reproducer;
* :mod:`repro.qa.shrink` -- greedy delta-debugging of a failing graph;
* :mod:`repro.qa.corpus` -- the JSONL golden/regression corpus under
  ``tests/corpus/`` that every caught failure joins and that the normal
  pytest suite replays forever after.
"""

from repro.qa.corpus import (
    CorpusEntry,
    append_entries,
    read_corpus,
    replay_entry,
)
from repro.qa.invariants import (
    INVARIANTS,
    Invariant,
    InvariantReport,
    invariant_names,
    invariants_for,
    run_invariants,
)
from repro.qa.metamorphic import (
    DEFAULT_TRANSFORMS,
    MetamorphicResult,
    run_metamorphic,
    schedule_signature,
)
from repro.qa.fuzz import FuzzConfig, FuzzReport, run_campaign
from repro.qa.shrink import shrink_graph

__all__ = [
    "INVARIANTS",
    "Invariant",
    "InvariantReport",
    "invariant_names",
    "invariants_for",
    "run_invariants",
    "DEFAULT_TRANSFORMS",
    "MetamorphicResult",
    "run_metamorphic",
    "schedule_signature",
    "FuzzConfig",
    "FuzzReport",
    "run_campaign",
    "shrink_graph",
    "CorpusEntry",
    "append_entries",
    "read_corpus",
    "replay_entry",
]
