"""Regression tests for the counter-key normalisation.

PR 5 renamed the runtime counters to the canonical telemetry names
(``updates_offered`` ... ``alerts_fired``); the pre-telemetry short keys
(``offered`` ... ``alerts``) are gone from ``stats()`` /
the checkpoint's shard entries and, since every checkpoint any release still reads
carries the canonical keys, from
:func:`repro.runtime.shard.restore_counters` too. Canonical keys are the
only per-shard shape on the wire and on disk.
"""

from __future__ import annotations

import asyncio

from repro.config import RuntimeConfig
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService

ALIASES = {
    "updates_offered": "offered",
    "updates_applied": "applied",
    "updates_consumed": "consumed",
    "updates_shed": "shed",
    "updates_rejected": "rejected",
    "alerts_fired": "alerts",
}

CANONICAL_SHARD_KEYS = {
    "shard", "tasks", "queue_depth", "queue_capacity",
    "updates_offered", "updates_applied", "updates_consumed",
    "updates_shed", "updates_rejected", "alerts_fired",
}


def run_with_server(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("shards", 2)

    async def runner():
        server = RuntimeServer(RuntimeConfig(**config_kwargs))
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.shutdown()

    return asyncio.run(runner())


class TestStatsShapes:
    def test_stats_per_shard_counters_are_canonical_only(self):
        async def scenario(server, client):
            await client.register_task("t", 10.0, error_allowance=0.0)
            await client.offer_batch([["t", s, 20.0] for s in range(5)])
            rejected = await client.offer_batch([["missing", 0, 1.0]])
            for worker in server._workers:
                await worker.drain()
            return rejected, await client.stats()

        rejected, stats = run_with_server(scenario)
        for shard in stats["shards"]:
            assert set(shard) == CANONICAL_SHARD_KEYS
            for alias in ALIASES.values():
                assert alias not in shard
        total_offered = sum(s["updates_offered"] for s in stats["shards"])
        total_alerts = sum(s["alerts_fired"] for s in stats["shards"])
        assert total_offered == 5
        assert total_alerts == 5  # error_allowance=0 alerts on every breach
        # Unknown-task rejections are reported in the batch reply (they
        # have no shard to be attributed to).
        assert rejected["rejected"] == 1
        # The totals dict is its own wire namespace and (deliberately)
        # keeps the short keys consumed by loadgen/replay/chaos tooling.
        assert stats["totals"]["offered"] == 5
        assert stats["totals"]["alerts"] == 5

    def test_runtime_state_counters_use_canonical_keys_only(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task("t", 10.0)
            await client.offer_batch([["t", 0, 1.0]])
            for worker in server._workers:
                await worker.drain()
            await client.checkpoint()
            return read_checkpoint(path)

        state = run_with_server(scenario, checkpoint_path=path,
                                checkpoint_interval=3600.0)
        for entry in state["shards"].values():
            counters = entry["counters"]
            assert set(ALIASES) <= set(counters)
            assert not set(ALIASES.values()) & set(counters)


class TestAliasOnlyCheckpointRestore:
    def test_canonical_keys_win_over_aliases(self, tmp_path):
        path = tmp_path / "mixed.ckpt.json"
        state = {
            "n_shards": 1,
            "shards": {"0": {
                "snapshot": MonitoringService().snapshot(),
                "counters": {"shard": 0, "updates_offered": 42,
                             "offered": 7}}},
            "trigger_plans": [],
            "pending": [],
        }
        write_checkpoint(path, state)

        async def scenario(server, client):
            return server._workers[0].stats()

        stats = run_with_server(scenario, shards=1, checkpoint_path=path)
        assert stats["updates_offered"] == 42
        # The restored stats expose canonical keys only.
        assert "offered" not in stats
