"""Tests for the self-monitoring loop (Volley watching Volley)."""

from __future__ import annotations

import asyncio

from repro.config import RuntimeConfig
from repro.runtime.server import RuntimeServer
from repro.telemetry.selfmon import SELF_SHARD, SelfMonitor


def with_server(scenario, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("shards", 2)

    async def runner():
        server = RuntimeServer(RuntimeConfig(**config_kwargs))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()

    return asyncio.run(runner())


class TestProbeRegistration:
    def test_health_gauges_become_volley_tasks(self):
        async def scenario(server):
            monitor = SelfMonitor(server)
            return monitor.task_names

        names = with_server(scenario)
        assert names == ["volley.shard0.queue_depth",
                         "volley.shard1.queue_depth",
                         "volley.shed_rate"]

    def test_checkpoint_probe_needs_checkpointing(self, tmp_path):
        async def scenario(server):
            return SelfMonitor(server).task_names

        names = with_server(scenario,
                            checkpoint_path=tmp_path / "ckpt.json")
        assert "volley.checkpoint_age" in names

    def test_queue_threshold_tracks_capacity(self):
        async def scenario(server):
            monitor = SelfMonitor(server, saturation_fraction=0.5)
            name = "volley.shard0.queue_depth"
            return monitor.service._tasks[name].task.threshold, \
                server._workers[0].capacity

        threshold, capacity = with_server(scenario, queue_depth=64)
        assert threshold == 0.5 * capacity


class TestLikelihoodScheduling:
    def test_healthy_runtime_saves_probe_collections(self):
        async def scenario(server):
            monitor = SelfMonitor(server)
            for _ in range(500):
                monitor.poll()
            return server.registry.snapshot(), monitor.stats()

        snap, stats = with_server(scenario)
        polls = snap["volley_selfmon_polls_total"]["series"][0]["value"]
        samples = snap["volley_selfmon_samples_total"]["series"][0]["value"]
        assert polls == 500 * 3  # 2 shard probes + shed rate, every period
        # A healthy runtime stretches intervals: most polls collect nothing.
        assert samples < 0.5 * polls
        assert all(entry["interval"] > 1
                   for entry in stats["tasks"].values())

    def test_breach_alerts_and_traces(self):
        async def scenario(server):
            monitor = SelfMonitor(server, shed_rate_threshold=1.0,
                                  max_interval=5)
            for _ in range(20):
                monitor.poll()          # healthy: intervals stretch
            assert not monitor.alerts
            worker = server._workers[0]
            for _ in range(10):
                worker.shed += 500      # sustained shedding storm
                monitor.poll()
            return (monitor.alerts, server.trace.drain(),
                    server.registry.snapshot())

        alerts, events, snap = with_server(scenario)
        assert alerts and alerts[0][0] == "volley.shed_rate"
        assert alerts[0][1].value > 1.0
        selfmon_events = [e for e in events if e["kind"] == "selfmon_alert"]
        assert selfmon_events
        assert selfmon_events[0]["task"] == "volley.shed_rate"
        assert selfmon_events[0]["shard"] == SELF_SHARD
        series = snap["volley_selfmon_alerts_total"]["series"]
        by_task = {tuple(s["labels"]): s["value"] for s in series}
        assert by_task[("volley.shed_rate",)] >= 1.0

    def test_server_start_wires_selfmon_loop(self):
        async def scenario(server):
            assert server.selfmon is not None
            # Let the background loop run a few poll periods.
            await asyncio.sleep(0.12)
            return server.selfmon.stats()

        stats = with_server(scenario, selfmon_interval=0.01)
        assert stats["steps"] >= 3
        assert set(stats["tasks"]) == {"volley.shard0.queue_depth",
                                       "volley.shard1.queue_depth",
                                       "volley.shed_rate"}
