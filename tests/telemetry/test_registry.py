"""Tests for the metrics registry: instruments, families, the null twin,
and the sampler fast-path instrumentation seam."""

from __future__ import annotations

import pytest

from repro.core import adaptation
from repro.core.adaptation import AdaptationConfig
from repro.core.soa import SoaSamplerEngine
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.telemetry.registry import (NULL_REGISTRY, MetricsRegistry,
                                      NullRegistry, instrument_samplers)


class TestInstruments:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "requests")
        hits.inc()
        hits.inc(2.5)
        depth = registry.gauge("depth", "queue depth")
        depth.set(7.0)
        depth.inc()
        depth.dec(3.0)
        assert hits.get() == 3.5
        assert depth.get() == 5.0

    def test_callback_instruments_read_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.counter("cb_total", "callback", fn=lambda: state["n"])
        state["n"] = 42
        snap = registry.snapshot()
        assert snap["cb_total"]["series"][0]["value"] == 42.0

    def test_histogram_instrument_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds", "latency")
        for v in (0.001, 0.002, 0.004, 0.1):
            hist.observe(v)
        value = hist.get()
        assert value["count"] == 4
        assert value["sum"] == pytest.approx(0.107)
        assert value["min"] == 0.001 and value["max"] == 0.1
        assert set(value["quantiles"]) == {"0.5", "0.9", "0.99"}

    def test_histogram_rejects_callbacks(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", "sketch", labels=("shard",))
        with pytest.raises(ConfigurationError, match="callback"):
            family.labels("0", fn=lambda: 1.0)


class TestFamilies:
    def test_labelled_series_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("per_shard_total", "x", labels=("shard",))
        a = family.labels(0)
        a.inc(5)
        assert family.labels(0) is a
        assert family.labels(1) is not a
        snap = registry.snapshot()["per_shard_total"]
        assert snap["label_names"] == ["shard"]
        assert {tuple(s["labels"]): s["value"]
                for s in snap["series"]} == {("0",): 5.0, ("1",): 0.0}

    def test_label_arity_is_checked(self):
        family = MetricsRegistry().counter("x_total", "x",
                                           labels=("a", "b"))
        with pytest.raises(ConfigurationError, match="label"):
            family.labels("only-one")

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("same_total", "x")
        first.inc()
        again = registry.counter("same_total", "x")
        assert again.get() == 1.0

    def test_kind_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", "x")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("thing", "x")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.counter("thing", "x", labels=("shard",))

    def test_snapshot_is_json_able(self):
        import json
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc()
        registry.histogram("b_seconds", "b").observe(0.5)
        assert json.loads(json.dumps(registry.snapshot()))


class TestNullRegistry:
    def test_all_factories_return_inert_singleton(self):
        null = NullRegistry()
        c = null.counter("x_total")
        g = null.gauge("y")
        h = null.histogram("z_seconds")
        assert c is g is h
        c.inc()
        g.set(5.0)
        h.observe(1.0)
        assert c.get() == 0.0
        assert c.labels("anything") is c
        assert null.snapshot() == {}
        assert list(null.families()) == []

    def test_enabled_flags(self):
        assert MetricsRegistry().enabled
        assert not NULL_REGISTRY.enabled


class TestInstrumentSamplers:
    def setup_method(self):
        # Earlier tests (e.g. in-process runtime servers) may have left a
        # live metrics object with accumulated counts; restoring the null
        # object makes the next live instrumentation start from zero.
        instrument_samplers(NULL_REGISTRY)

    def teardown_method(self):
        instrument_samplers(NULL_REGISTRY)

    @staticmethod
    def _drive(n: int = 200) -> None:
        task = TaskSpec(threshold=100.0, error_allowance=0.05,
                        max_interval=10)
        engine = SoaSamplerEngine()
        row = engine.add_task(task, AdaptationConfig())
        for t in range(n):
            engine.observe_one(row, 10.0 if t != 150 else 200.0, t)

    def test_live_registry_counts_fast_path(self):
        registry = MetricsRegistry()
        instrument_samplers(registry)
        self._drive()
        snap = registry.snapshot()
        observed = snap["volley_sampler_observations_total"]["series"][0]
        assert observed["value"] == 200.0
        assert snap["volley_sampler_violations_total"]["series"][0][
            "value"] >= 1.0
        assert snap["volley_sampler_grow_events_total"]["series"][0][
            "value"] > 0.0

    def test_live_registry_counts_engine_rows(self):
        # A tick bumps the same counters: vectorised (20 due rows) and
        # row by row (5) alike.
        registry = MetricsRegistry()
        instrument_samplers(registry)
        service = MonitoringService(soa=True)
        for i in range(20):
            service.add_task(f"t{i}", TaskSpec(threshold=100.0,
                                               error_allowance=0.05))
        rows = [service.soa_row_for(f"t{i}") for i in range(20)]
        consumed = 0
        for step in range(60):
            width = 5 if step % 2 else 20
            consumed += service.offer_columns(
                rows[:width], [step] * width, [10.0 + step % 3] * width)[1]
        observed = registry.snapshot()[
            "volley_sampler_observations_total"]["series"][0]["value"]
        assert observed == consumed > 20

    def test_null_registry_restores_null_object(self):
        instrument_samplers(MetricsRegistry())
        instrument_samplers(NULL_REGISTRY)
        assert adaptation._SAMPLER_METRICS is \
            adaptation._NULL_SAMPLER_METRICS
        self._drive(50)  # must not blow up and must count nothing

    def test_reinstrumentation_reuses_live_counters(self):
        registry = MetricsRegistry()
        instrument_samplers(registry)
        self._drive(100)
        instrument_samplers(registry)  # e.g. a second server in-process
        self._drive(100)
        observed = registry.snapshot()[
            "volley_sampler_observations_total"]["series"][0]["value"]
        assert observed == 200.0
