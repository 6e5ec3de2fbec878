"""Tests for the metrics registry: instruments, families, and a host's
``volley_sampler_*`` counters read off its engine rows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hosting import WorkerHost
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.registry import MetricsRegistry


class TestInstruments:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        state = {"hits": 3.5, "depth": 5}
        hits = registry.counter("hits_total", "requests",
                                fn=lambda: state["hits"])
        depth = registry.gauge("depth", "queue depth",
                               fn=lambda: state["depth"])
        assert hits.get() == 3.5
        assert depth.get() == 5.0
        state["depth"] = 2
        assert depth.get() == 2.0
        snap = registry.snapshot()
        assert snap["hits_total"]["kind"] == "counter"
        assert snap["depth"]["kind"] == "gauge"

    def test_counter_and_gauge_series_need_a_callback(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="fn="):
            registry.counter("hits_total", "requests")
        family = registry.gauge("depth", "queue depth", labels=("shard",))
        with pytest.raises(ConfigurationError, match="fn="):
            family.labels(0)

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

    @given(ops=st.lists(st.one_of(
        st.sampled_from(["get", "get_raw", "prometheus"]),  # a read
        st.lists(st.integers(0, 12), min_size=1, max_size=64),
        st.lists(st.integers(0, 3000), min_size=1, max_size=8)),
        max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_folded_counts_read_as_recorded(self, ops):
        """Batches of intervals handed over as ``np.bincount`` columns
        and absorbed when read give every read — the summary, the raw
        sketch and the Prometheus lines — what recording each batch's
        distinct values as they come gives."""
        registries = MetricsRegistry(), MetricsRegistry()
        folded, recorded = (registry.histogram("interval", "intervals")
                            for registry in registries)
        reads = {
            "get": lambda i: (folded, recorded)[i].get(),
            "get_raw": lambda i: (folded, recorded)[i].get_raw(),
            "prometheus": lambda i: render_prometheus(
                registries[i].snapshot())}
        for op in ops:
            if isinstance(op, str):
                assert reads[op](0) == reads[op](1)
                continue
            counts = np.bincount(op)
            folded.observe_counts(counts)
            for value, count in enumerate(counts.tolist()):
                if count:
                    recorded.sketch.record(value, count)
        for read in reads.values():
            assert read(0) == read(1)

    def test_histogram_rejects_callbacks(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", "sketch", labels=("shard",))
        with pytest.raises(ConfigurationError, match="callback"):
            family.labels("0", fn=lambda: 1.0)


class TestFamilies:
    def test_labelled_series_are_cached(self):
        registry = MetricsRegistry()
        family = registry.counter("per_shard_total", "x", labels=("shard",))
        a = family.labels(0, fn=lambda: 5)
        assert family.labels(0) is a
        assert family.labels(1, fn=lambda: 0) is not a
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
        first = registry.counter("same_total", "x", fn=lambda: 1)
        again = registry.counter("same_total", "x")
        assert again is first and again.get() == 1.0

    def test_kind_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", "x", fn=lambda: 0)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("thing", "x")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.counter("thing", "x", labels=("shard",))

    def test_snapshot_is_json_able(self):
        import json
        registry = MetricsRegistry()
        registry.counter("a_total", "a", fn=lambda: 1)
        registry.histogram("b_seconds", "b").observe(0.5)
        assert json.loads(json.dumps(registry.snapshot()))


SAMPLER_COUNTS = ("observations", "grow_events", "reset_events",
                  "violations")


def sampler_counts(registry: MetricsRegistry) -> dict[str, float]:
    """The four ``volley_sampler_*`` values of one host's registry."""
    snap = registry.snapshot()
    return {name: snap[f"volley_sampler_{name}_total"]["series"][0]["value"]
            for name in SAMPLER_COUNTS}


class TestInstrumentSamplers:
    """A host exports its rows' sampler counts: each counter is one engine
    column summed over the rows of its hosted shards."""

    def test_live_registry_counts_fast_path(self):
        # Row by row, through the engine's observe_one.
        host = WorkerHost("w0")
        service = host.install_shard(0).service
        service.add_task("t", TaskSpec(threshold=100.0, error_allowance=0.05,
                                       max_interval=10))
        consumed = 0
        for t in range(200):
            consumed += service.offer(
                "t", 10.0 if t < 150 else 200.0, t) is not None
        counts = sampler_counts(host.registry)
        assert counts["observations"] == consumed > 20
        assert counts["violations"] == service.alert_count("t") >= 1
        assert counts["grow_events"] > 0.0
        assert counts["reset_events"] >= 1.0

    def test_live_registry_counts_engine_rows(self):
        # A tick feeds the same columns: vectorised (20 due rows) and
        # row by row (5) alike.
        host = WorkerHost("w0")
        service = host.install_shard(0).service
        for i in range(20):
            service.add_task(f"t{i}", TaskSpec(threshold=100.0,
                                               error_allowance=0.05))
        rows = [service.soa_row_for(f"t{i}") for i in range(20)]
        consumed = 0
        for step in range(60):
            width = 5 if step % 2 else 20
            consumed += service.offer_columns(
                rows[:width], [step] * width, [10.0 + step % 3] * width)[1]
        assert sampler_counts(host.registry)["observations"] == consumed > 20

    def test_counts_are_per_host_and_sum_over_shards(self):
        busy, idle = WorkerHost("w0"), WorkerHost("w1")
        idle.install_shard(0)
        consumed = 0
        for sid in (0, 1):
            service = busy.install_shard(sid).service
            service.add_task(f"t{sid}", TaskSpec(threshold=100.0,
                                                 error_allowance=0.05))
            for step in range(30):
                consumed += service.offer(f"t{sid}", 10.0, step) is not None
        assert sampler_counts(busy.registry)["observations"] == consumed
        assert sampler_counts(idle.registry) == dict.fromkeys(
            SAMPLER_COUNTS, 0.0)
