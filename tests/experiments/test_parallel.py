"""Unit tests for the process-parallel sweep runner."""

import pytest

from repro.experiments.harness import run_sweep
from repro.experiments.parallel import run_sweep_parallel
from tests.experiments.test_harness import tiny_sweep


def test_parallel_matches_serial_bit_for_bit():
    serial = run_sweep(tiny_sweep(), reps=6, seed=3)
    parallel = run_sweep_parallel(tiny_sweep(), reps=6, seed=3, workers=3, chunk_size=2)
    for x in serial.definition.x_values:
        for name in serial.definition.schedulers:
            assert parallel.stats[x][name].mean == serial.stats[x][name].mean
            assert parallel.stats[x][name].std == pytest.approx(
                serial.stats[x][name].std
            )
            assert parallel.stats[x][name].n == serial.stats[x][name].n


def test_single_worker_falls_back_to_serial():
    result = run_sweep_parallel(tiny_sweep(), reps=2, seed=0, workers=1)
    assert all(
        result.stats[x]["HDLTS"].n == 2 for x in result.definition.x_values
    )


def test_chunk_size_does_not_change_results():
    a = run_sweep_parallel(tiny_sweep(), reps=5, seed=1, workers=2, chunk_size=1)
    b = run_sweep_parallel(tiny_sweep(), reps=5, seed=1, workers=2, chunk_size=4)
    assert a.series("HDLTS") == b.series("HDLTS")


def test_figure_definitions_survive_forking():
    """Closures in figure factories must work through fork inheritance."""
    from repro.experiments import get_figure

    result = run_sweep_parallel(get_figure("fig13"), reps=2, seed=0, workers=2)
    assert result.stats[1.0]["HDLTS"].n == 2


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        run_sweep_parallel(tiny_sweep(), reps=0)
    with pytest.raises(ValueError):
        run_sweep_parallel(tiny_sweep(), reps=1, workers=0)


def test_zero_chunk_size_rejected():
    with pytest.raises(ValueError, match="chunk_size"):
        run_sweep_parallel(tiny_sweep(), reps=2, workers=2, chunk_size=0)
    with pytest.raises(ValueError, match="chunk_size"):
        run_sweep_parallel(tiny_sweep(), reps=2, workers=2, chunk_size=-3)


def test_shared_pool_reused_across_sweeps_matches_serial():
    """Two sweeps through one sweep_pool equal their serial runs."""
    from repro.experiments import get_figure
    from repro.experiments.parallel import sweep_pool

    first, second = tiny_sweep(), get_figure("fig13")
    with sweep_pool([first, second], workers=2, start_method="fork") as pool:
        a = run_sweep_parallel(first, reps=3, seed=2, pool=pool)
        b = run_sweep_parallel(second, reps=2, seed=0, pool=pool)
    sa = run_sweep(first, reps=3, seed=2)
    sb = run_sweep(second, reps=2, seed=0)
    for result, serial in ((a, sa), (b, sb)):
        for x in serial.definition.x_values:
            for name in serial.definition.schedulers:
                assert result.stats[x][name].mean == serial.stats[x][name].mean
                assert result.stats[x][name].std == serial.stats[x][name].std
                assert result.stats[x][name].n == serial.stats[x][name].n


def test_shared_pool_rejects_unregistered_definition():
    from repro.experiments import get_figure
    from repro.experiments.parallel import sweep_pool

    with sweep_pool([tiny_sweep()], workers=2, start_method="fork") as pool:
        with pytest.raises(ValueError, match="not registered"):
            run_sweep_parallel(get_figure("fig13"), reps=2, pool=pool)


def test_validate_flag_propagates():
    run_sweep_parallel(tiny_sweep(), reps=2, seed=0, workers=2, validate=True)


class TestMetricsMerge:
    """Per-worker metric snapshots must merge to the serial totals."""

    @pytest.fixture(autouse=True)
    def _obs_enabled(self):
        from repro import obs

        with obs.enabled_scope(True), obs.scoped(merge_up=False):
            yield

    def test_parallel_counters_bit_identical_to_serial(self):
        serial = run_sweep(tiny_sweep(), reps=4, seed=7)
        parallel = run_sweep_parallel(
            tiny_sweep(), reps=4, seed=7, workers=2, chunk_size=1
        )
        assert serial.metrics["counters"]
        assert parallel.metrics["counters"] == serial.metrics["counters"]

    def test_enabled_scope_reaches_spawn_workers(self):
        # the override is process state, so only the shipped context
        # (with the parent's effective metrics flag folded in) can turn
        # recording on in a freshly spawned interpreter
        serial = run_sweep(tiny_sweep(), reps=2, seed=3)
        spawn = run_sweep_parallel(
            tiny_sweep(), reps=2, seed=3, workers=2, chunk_size=1,
            start_method="spawn",
        )
        assert serial.metrics["counters"]
        assert spawn.metrics["counters"] == serial.metrics["counters"]

    def test_parallel_timer_counts_match_serial(self):
        serial = run_sweep(tiny_sweep(), reps=3, seed=1)
        parallel = run_sweep_parallel(
            tiny_sweep(), reps=3, seed=1, workers=3, chunk_size=1
        )
        serial_timers = serial.metrics["timers"]
        parallel_timers = parallel.metrics["timers"]
        for key in serial_timers:
            assert parallel_timers[key]["count"] == serial_timers[key]["count"]

    def test_parallel_records_chunk_gauges(self):
        # pinned to a real pool: the gauges describe the decomposition
        result = run_sweep_parallel(
            tiny_sweep(), reps=4, seed=0, workers=2, chunk_size=2,
            start_method="fork",
        )
        gauges = result.metrics["gauges"]
        assert gauges["sweep/workers"] == 2.0
        assert gauges["sweep/chunk_size"] == 2.0
        assert gauges["sweep/chunk_imbalance"] >= 1.0
        assert result.metrics["timers"]["sweep/chunk_wall"]["count"] == 4

    def test_serial_fallback_still_merges_metrics(self, monkeypatch):
        """No-fork platforms fall back to run_sweep with identical stats."""
        import multiprocessing

        def no_fork(method):
            raise ValueError("fork not available")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        fallback = run_sweep_parallel(tiny_sweep(), reps=3, seed=5, workers=4)
        serial = run_sweep(tiny_sweep(), reps=3, seed=5)
        assert fallback.metrics["counters"] == serial.metrics["counters"]
        for x in serial.definition.x_values:
            for name in serial.definition.schedulers:
                assert fallback.stats[x][name].mean == serial.stats[x][name].mean
                assert fallback.stats[x][name].std == serial.stats[x][name].std
                assert fallback.stats[x][name].n == serial.stats[x][name].n
