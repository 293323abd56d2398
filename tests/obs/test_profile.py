"""Unit tests for the profiling contexts and the enable switch."""

import pytest

from repro import obs
from repro.obs import profile as prof
from repro.obs.metrics import scoped


@pytest.fixture(autouse=True)
def _clean_switch():
    """Every test starts and ends with profiling disabled."""
    assert not prof.enabled()
    yield
    assert not prof.enabled()
    assert prof.current_scope() is None


class TestSwitch:
    def test_disabled_by_default(self):
        assert not prof.enabled()

    def test_enable_disable(self):
        with prof.enabled_scope(True):
            assert prof.enabled()
        assert not prof.enabled()

    def test_enabled_scope_restores(self):
        with prof.enabled_scope():
            assert prof.enabled()
        assert not prof.enabled()

    def test_enabled_scope_nested_restore(self):
        with prof.enabled_scope(True):
            with prof.enabled_scope(False):
                assert not prof.enabled()
            assert prof.enabled()


class TestPhase:
    def test_disabled_phase_is_shared_noop(self):
        assert prof.phase("a") is prof.phase("b")

    def test_enabled_phase_records_timer(self):
        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            with prof.phase("outer"):
                pass
        assert registry.timer("outer").count == 1

    def test_nested_phases_join_keys(self):
        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            with prof.phase("HDLTS"):
                with prof.phase("eft_vector"):
                    pass
                with prof.phase("eft_vector"):
                    pass
        snap = registry.snapshot()["timers"]
        assert snap["HDLTS"]["count"] == 1
        assert snap["HDLTS/eft_vector"]["count"] == 2

    def test_current_scope(self):
        assert prof.current_scope() is None
        with prof.enabled_scope():
            with prof.phase("HDLTS"):
                assert prof.current_scope() == "HDLTS"
            assert prof.current_scope() is None


class TestCounters:
    def test_count_noop_when_disabled(self):
        with scoped(merge_up=False) as registry:
            prof.count("x")
        assert not registry

    def test_count_when_enabled(self):
        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            prof.count("x", 3)
        assert registry.counter("x").value == 3

    def test_scoped_count_prefixes_phase_root(self):
        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            with prof.phase("HEFT"):
                prof.scoped_count("eft_evaluations", 4)
            prof.scoped_count("bare", 1)
        snap = registry.snapshot()["counters"]
        assert snap == {"HEFT/eft_evaluations": 4, "bare": 1}


class TestInstrumented:
    def test_decorator_times_calls(self):
        @prof.instrumented("my_phase")
        def work(x):
            return x * 2

        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            assert work(2) == 4
            assert work(3) == 6
        assert registry.timer("my_phase").count == 2

    def test_decorator_free_when_disabled(self):
        calls = []

        @prof.instrumented()
        def work():
            calls.append(1)

        with scoped(merge_up=False) as registry:
            work()
        assert calls == [1]
        assert not registry

    def test_decorator_default_name(self):
        @prof.instrumented()
        def named_fn():
            pass

        with prof.enabled_scope(), scoped(merge_up=False) as registry:
            named_fn()
        (key,) = registry.snapshot()["timers"].keys()
        assert "named_fn" in key


def test_obs_package_reexports():
    for attr in ("phase", "enabled_scope", "get_bus", "get_metrics", "session",
                 "JsonlSink", "MetricsRegistry", "format_metrics"):
        assert hasattr(obs, attr)
    # the process-global setters are gone; enabled_scope is the override
    assert not hasattr(obs, "enable") and not hasattr(obs, "disable")


def test_session_collects_events_and_metrics(tmp_path):
    import json

    path = tmp_path / "events.jsonl"
    with obs.session(events_path=str(path), metrics=True) as sess:
        obs.emit("sweep.point", x=1)
        obs.count("sweep/replications", 2)
    assert sess.n_events == 1
    assert json.loads(path.read_text())["event"] == "sweep.point"
    assert sess.snapshot["counters"]["sweep/replications"] == 2
    assert not obs.enabled()
    assert not obs.get_bus().active
