"""Metric catalogue and the map from per-layer to end-to-end metrics.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark
reports, in the order ``BENCHMARK.json`` declares them (``selftest.py``
checks the two agree).  Each per-layer entry also records which
end-to-end metric it should move and on which workloads -- the map
later changes cite by metric name when they claim a gain -- and how it
is measured:

* ``*_s`` times of wrapped program functions (graph build, compile,
  schedulers, batched kernel, metrics) are *self* times:
  span duration minus nested spans, so they add up without double
  counting.  ``experiments.harness_self_s`` is the self time of the
  ``run_sweep`` call itself: fold, shape grouping and dispatch.
* times of calls the benchmark makes itself (``stream.*``) are
  whole-call durations.
* every value is a total over the traced run's fixed rounds, so counts
  repeat exactly at one seed.
* a layer a workload never reaches reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

SWEEPS = ("random_sweep", "workflow_sweep")
ALL = ("random_sweep", "workflow_sweep", "stream_mix")
STREAM = ("stream_mix",)

#: (name, unit, better)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("cpu_s_per_unit", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

TPUT = "throughput_per_s"
CPU = "cpu_s_per_unit"
RSS = "peak_rss_mb"

#: (name, unit, end-to-end metrics it should move, workloads)
PER_LAYER: Tuple[Tuple[str, str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("setup.import_s", "s", ("setup_s",), ALL),
    ("graphspec.build_s", "s", (TPUT,), SWEEPS),
    ("graphspec.builds", "count", (), ALL),
    ("model.compile_s", "s", (TPUT,), ("workflow_sweep",)),
    ("model.compiles", "count", (), ALL),
    ("core.hdlts_s", "s", (TPUT, CPU), ("random_sweep",)),
    ("core.hdlts_runs", "count", (), ALL),
    ("baselines.heft_s", "s", (TPUT, CPU), ("random_sweep",)),
    ("baselines.heft_runs", "count", (), ALL),
    ("baselines.peft_s", "s", (TPUT, CPU), ("random_sweep",)),
    ("baselines.peft_runs", "count", (), ALL),
    ("baselines.pets_s", "s", (TPUT, CPU), SWEEPS),
    ("baselines.pets_runs", "count", (), ALL),
    ("baselines.sdbats_s", "s", (TPUT, CPU), ("random_sweep",)),
    ("baselines.sdbats_runs", "count", (), ALL),
    ("core.batch_s", "s", (TPUT,), ("workflow_sweep",)),
    ("core.batch_calls", "count", (), ALL),
    ("core.batch_lanes", "count", (), ALL),
    ("core.batch_coverage", "ratio", (TPUT,), ("random_sweep",)),
    ("metrics.compute_s", "s", (TPUT,), SWEEPS),
    ("experiments.harness_self_s", "s", (TPUT,), SWEEPS),
    ("share.schedulers", "ratio", (TPUT, CPU), SWEEPS),
    ("share.batch", "ratio", (TPUT,), ("workflow_sweep",)),
    ("share.graphspec", "ratio", (TPUT,), SWEEPS),
    ("counts.instances", "count", (), ALL),
    ("counts.tasks_scheduled", "count", (), ALL),
    ("stream.build_s", "s", (), STREAM),
    ("stream.online_light_s", "s", (), STREAM),
    ("stream.online_heavy_s", "s", (TPUT, RSS), STREAM),
    ("stream.static_light_s", "s", (), STREAM),
    ("stream.static_heavy_s", "s", (TPUT, RSS), STREAM),
    ("stream.dispatches_light", "count", (), STREAM),
    ("stream.dispatches_heavy", "count", (), STREAM),
    ("stream.us_per_dispatch_light", "us", (), STREAM),
    ("stream.us_per_dispatch_heavy", "us", (TPUT, RSS), STREAM),
    ("stream.heavy_light_ratio", "ratio", (TPUT,), STREAM),
    ("stream.max_queue_depth_light", "count", (), STREAM),
    ("stream.max_queue_depth_heavy", "count", (), STREAM),
    ("trace.overhead_frac", "ratio", (), ALL),
)

SCHEDULER_SPANS = (
    "core.hdlts", "baselines.heft", "baselines.peft", "baselines.pets",
    "baselines.sdbats",
)


class SpanIndex:
    """Totals over a tracer's spans, by name and attribute filter."""

    def __init__(self, tracer) -> None:
        self.spans = tracer.spans
        self.own = tracer.self_times()

    def _select(self, name: str, **where):
        for span, own in zip(self.spans, self.own):
            if span[0] != name:
                continue
            attrs = span[4]
            if all(attrs.get(k) == v for k, v in where.items()):
                yield span, own

    def count(self, name: str, **where) -> int:
        return sum(1 for _ in self._select(name, **where))

    def duration(self, name: str, **where) -> float:
        return float(sum(s[2] - s[1] for s, _ in self._select(name, **where)))

    def self_time(self, name: str, **where) -> float:
        return float(sum(own for _, own in self._select(name, **where)))

    def attr_sum(self, name: str, attr: str, **where) -> float:
        return sum(s[4].get(attr, 0) for s, _ in self._select(name, **where))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer,
    counts: Dict[str, int],
    replications: int,
    import_s: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced run.

    ``counts`` are the workload summaries summed (maxed, for queue
    depths) over the traced rounds; ``replications`` is how many
    sweep replications those rounds ran (the batch-coverage base).
    """
    ix = SpanIndex(tracer)
    wall = ix.duration("round")
    sched_self = sum(ix.self_time(n) for n in SCHEDULER_SPANS)
    batch_self = ix.self_time("core.batch") + ix.self_time("core.batch_pack")
    lanes = int(ix.attr_sum("core.batch_pack", "lanes"))
    tasks = int(
        sum(ix.attr_sum(n, "n_tasks") for n in SCHEDULER_SPANS)
        + ix.attr_sum("core.batch", "n_tasks")
    )
    stream = {}
    for rate in ("light", "heavy"):
        for policy in ("online", "static"):
            stream[f"stream.{policy}_{rate}_s"] = ix.duration(
                "stream.run", rate=rate, policy=policy
            )
        dispatches = int(ix.attr_sum("stream.run", "dispatches", rate=rate))
        stream[f"stream.dispatches_{rate}"] = dispatches
        run_s = (
            stream[f"stream.online_{rate}_s"] + stream[f"stream.static_{rate}_s"]
        )
        stream[f"stream.us_per_dispatch_{rate}"] = 1e6 * _ratio(run_s, dispatches)
        stream[f"stream.max_queue_depth_{rate}"] = max(
            (v for k, v in counts.items()
             if k.startswith(f"max_queue_depth_{rate}_")),
            default=0,
        )
    values: Dict[str, float] = {
        "setup.import_s": import_s,
        "graphspec.build_s": ix.self_time("graphspec.build"),
        "graphspec.builds": ix.count("graphspec.build"),
        "model.compile_s": ix.self_time("model.compile"),
        "model.compiles": ix.count("model.compile"),
        "core.batch_s": batch_self,
        "core.batch_calls": ix.count("core.batch"),
        "core.batch_lanes": lanes,
        "core.batch_coverage": _ratio(lanes, replications),
        "metrics.compute_s": ix.self_time("metrics.compute"),
        "experiments.harness_self_s": ix.self_time("experiments.sweep"),
        "share.schedulers": _ratio(sched_self, wall),
        "share.batch": _ratio(batch_self, wall),
        "share.graphspec": _ratio(ix.self_time("graphspec.build"), wall),
        "counts.instances": counts.get("instances", 0),
        "counts.tasks_scheduled": tasks,
        "stream.build_s": ix.duration("stream.build"),
        "stream.heavy_light_ratio": _ratio(
            stream["stream.us_per_dispatch_heavy"],
            stream["stream.us_per_dispatch_light"],
        ),
        "trace.overhead_frac": overhead_frac,
    }
    for span_name in SCHEDULER_SPANS:
        values[f"{span_name}_s"] = ix.self_time(span_name)
        values[f"{span_name}_runs"] = ix.count(span_name)
    values.update(stream)
    return {name: values[name] for name, *_ in PER_LAYER}


def layer_table(metrics: Dict[str, float], workload: str) -> List[str]:
    """Human-readable per-layer table for one workload's traced run."""
    lines = [f"{'per-layer metric':34} {'value':>14} {'unit':6} should move"]
    for name, unit, moves, on in PER_LAYER:
        value = metrics[name]
        target = f"{', '.join(moves)} on {', '.join(on)}" if moves else ""
        if moves and workload not in on:
            target = f"({target})"
        text = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        lines.append(f"{name:34} {text} {unit:6} {target}")
    return lines
