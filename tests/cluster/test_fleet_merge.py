"""Unit tests for the coordinator-side fleet telemetry merge.

The merge rules under test: counter/gauge series gain a leading
``worker`` label; histogram series merge sketch-first so fleet quantiles
come from the combined distribution (never from averaging per-worker
quantiles); coordinator families pass through and join merged families
only when the label shape matches.
"""

from __future__ import annotations

import asyncio

from repro.cluster.fleet import merge_fleet_snapshots
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.telemetry.exposition import render_prometheus
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.registry import MetricsRegistry


def _worker_snapshot(offered: float, values: list[float]) -> dict:
    registry = MetricsRegistry()
    family = registry.counter("volley_updates_offered_total",
                              "Updates accepted", labels=("shard",))
    family.labels(0, fn=lambda: offered)
    hist = registry.histogram("volley_sampling_interval", "Intervals")
    for v in values:
        hist.observe(v)
    return registry.snapshot(raw=True)


class TestCountersAndGauges:
    def test_series_gain_leading_worker_label(self):
        merged = merge_fleet_snapshots({
            "w0": _worker_snapshot(5.0, []),
            "w1": _worker_snapshot(7.0, []),
        })
        family = merged["volley_updates_offered_total"]
        assert family["label_names"] == ["worker", "shard"]
        by_worker = {s["labels"][0]: s["value"] for s in family["series"]}
        assert by_worker == {"w0": 5.0, "w1": 7.0}

    def test_workers_merge_in_sorted_order(self):
        merged = merge_fleet_snapshots({
            "w1": _worker_snapshot(1.0, []),
            "w0": _worker_snapshot(2.0, []),
        })
        series = merged["volley_updates_offered_total"]["series"]
        assert [s["labels"][0] for s in series] == ["w0", "w1"]


class TestHistograms:
    def test_sketches_merge_into_one_series(self):
        merged = merge_fleet_snapshots({
            "w0": _worker_snapshot(0.0, [1.0, 1.0, 1.0]),
            "w1": _worker_snapshot(0.0, [100.0]),
        })
        family = merged["volley_sampling_interval"]
        assert family["label_names"] == []
        assert len(family["series"]) == 1
        value = family["series"][0]["value"]
        assert value["count"] == 4
        assert value["sum"] == 103.0

    def test_fleet_quantiles_come_from_combined_sketch(self):
        # Three quiet workers and one slow one: the combined p99 must be
        # in the slow worker's range, which averaged per-worker p99s
        # would badly underestimate.
        quiet = [1.0] * 33
        merged = merge_fleet_snapshots({
            "w0": _worker_snapshot(0.0, quiet),
            "w1": _worker_snapshot(0.0, quiet),
            "w2": _worker_snapshot(0.0, quiet),
            "w3": _worker_snapshot(0.0, [1000.0]),
        })
        value = merged["volley_sampling_interval"]["series"][0]["value"]
        reference = LogHistogram()
        for v in quiet * 3 + [1000.0]:
            reference.record(v)
        assert value["quantiles"] == reference.quantiles((0.5, 0.9, 0.99))
        assert value["max"] == reference.max

    def test_empty_fleet_histogram_renders(self):
        merged = merge_fleet_snapshots({"w0": _worker_snapshot(0.0, [])})
        value = merged["volley_sampling_interval"]["series"][0]["value"]
        assert value["count"] == 0 and value["min"] == 0.0


class TestBasePassThrough:
    def test_coordinator_families_pass_through(self):
        registry = MetricsRegistry()
        registry.counter("volley_migrations_total", "Migrations",
                         fn=lambda: 3)
        merged = merge_fleet_snapshots(
            {"w0": _worker_snapshot(1.0, [])}, base=registry.snapshot())
        assert merged["volley_migrations_total"]["series"][0]["value"] == 3

    def test_matching_label_shape_joins_merged_family(self):
        registry = MetricsRegistry()
        shed = registry.counter("volley_updates_offered_total",
                                "Updates accepted",
                                labels=("worker", "shard"))
        shed.labels("router", "-", fn=lambda: 9)
        merged = merge_fleet_snapshots(
            {"w0": _worker_snapshot(2.0, [])}, base=registry.snapshot())
        series = merged["volley_updates_offered_total"]["series"]
        by_worker = {s["labels"][0]: s["value"] for s in series}
        assert by_worker == {"w0": 2.0, "router": 9.0}

    def test_mismatched_label_shape_is_dropped_not_corrupted(self):
        registry = MetricsRegistry()
        registry.counter("volley_updates_offered_total",
                         "Updates accepted", labels=("source",)
                         ).labels("router", fn=lambda: 9)
        merged = merge_fleet_snapshots(
            {"w0": _worker_snapshot(2.0, [])}, base=registry.snapshot())
        family = merged["volley_updates_offered_total"]
        assert family["label_names"] == ["worker", "shard"]
        assert len(family["series"]) == 1


class TestExposition:
    def test_merged_snapshot_renders_as_prometheus_text(self):
        merged = merge_fleet_snapshots({
            "w0": _worker_snapshot(5.0, [1.0, 2.0]),
            "w1": _worker_snapshot(7.0, [3.0]),
        })
        text = render_prometheus(merged)
        assert 'volley_updates_offered_total{worker="w0",shard="0"} 5' \
            in text
        assert 'quantile="0.99"' in text


class TestBothServersExportOneFamilySet:
    """A runtime and an in-proc cluster answer ``telemetry`` with the
    same metric families — the front end's and the host's, the
    ``volley_sampler_*`` counts among them — but for the coordinator's
    own."""

    COORDINATOR_ONLY = {"volley_worker_up", "volley_migrations_total",
                        "volley_replacements_total",
                        "volley_coordinator_uptime_seconds"}

    @staticmethod
    async def _metrics(server):
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await client.register_task("plain", 100.0)
            await client.register_task("p90", 100.0, type="quantile",
                                       quantile=0.9)
            await client.register_task("ent", 0.5, type="entropy")
            return (await client.request({"op": "telemetry"}))["metrics"]
        finally:
            await client.close()
            await server.shutdown()

    def test_family_names_differ_only_by_the_coordinators_own(self):
        runtime = asyncio.run(self._metrics(
            RuntimeServer(RuntimeConfig(port=0))))
        cluster = asyncio.run(self._metrics(ClusterServer(ClusterConfig(
            backend="inproc", workers=2, port=0))))
        assert set(runtime) == set(cluster) - self.COORDINATOR_ONLY
        # One unlabelled series per host: the runtime's, and one per
        # worker once the fleet merge labels them.
        for name in ("observations", "grow_events", "reset_events",
                     "violations"):
            family = f"volley_sampler_{name}_total"
            assert runtime[family]["label_names"] == []
            assert cluster[family]["label_names"] == ["worker"]
            assert sorted(s["labels"][0] for s in
                          cluster[family]["series"]) == ["w0", "w1"]
        # Per type, the fleet's worker-labelled series sum to the
        # runtime's one series.
        by_type = {}
        for series in cluster["volley_tasks_by_type"]["series"]:
            kind = series["labels"][1]
            by_type[kind] = by_type.get(kind, 0.0) + series["value"]
        assert cluster["volley_tasks_by_type"]["label_names"] == [
            "worker", "type"]
        assert by_type == {s["labels"][0]: s["value"] for s
                           in runtime["volley_tasks_by_type"]["series"]}
        assert by_type["quantile"] == by_type["entropy"] == 1.0
