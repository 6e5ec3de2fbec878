"""The ``volley_sampler_*`` counters are read off the engine rows.

Each host's count is the sum of one engine column (``observations``,
``grow_events``, ``reset_events``, ``alerts``) over the rows it hosts
(DESIGN.md S29). So two servers in one process count their own, a
task's counts come back with a checkpoint restore, and counts move with
a migrated shard while the fleet sum stays put.
"""

from __future__ import annotations

import asyncio

import numpy as np
from cluster_utils import run_cluster

from repro.config import RuntimeConfig
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer

SHARDS = 4

COLUMNS = {"observations": ("sampler", "observations"),
           "grow_events": ("sampler", "grow_events"),
           "reset_events": ("sampler", "reset_events"),
           "violations": ("task", "alerts")}
"""Counter name -> where a shard snapshot keeps the column it sums."""

TASKS = [{"name": f"task-{i}", "threshold": 100.0, "error_allowance": 0.02,
          "max_interval": 8} for i in range(12)]


def _schedule(steps: int, start: int = 0) -> list[list]:
    """Quiet values around 60, with a deterministic spike to 140 now and
    then, so intervals grow, reset and violate."""
    return [[task["name"], step,
             140.0 if (step * 31 + i * 17) % 97 == 0
             else 60.0 + (step * 7 + i * 13) % 5]
            for step in range(start, start + steps)
            for i, task in enumerate(TASKS)]


async def _feed(client, updates: list[list]) -> None:
    for i in range(0, len(updates), 64):
        reply = await client.offer_batch(updates[i:i + 64])
        assert reply["accepted"] == len(updates[i:i + 64]), reply


def _series(metrics: dict) -> dict[str, dict[str, float]]:
    """Counter -> {worker label, or "" for an unlabelled series: value}."""
    return {name: {(s["labels"] or [""])[0]: s["value"] for s in
                   metrics[f"volley_sampler_{name}_total"]["series"]}
            for name in COLUMNS}


def _total(metrics: dict) -> dict[str, float]:
    return {name: sum(by_host.values())
            for name, by_host in _series(metrics).items()}


class TestPerServer:
    def test_two_runtimes_in_one_process_count_their_own(self):
        async def scenario():
            busy = RuntimeServer(RuntimeConfig(port=0, shards=2))
            idle = RuntimeServer(RuntimeConfig(port=0, shards=2))
            await busy.start()
            await idle.start()
            client = AsyncRuntimeClient(port=busy.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(40))
                await busy.drain()
                consumed = (await client.stats())["totals"]["consumed"]
                return (consumed, _total(busy.registry.snapshot()),
                        _total(idle.registry.snapshot()))
            finally:
                await client.close()
                await busy.shutdown()
                await idle.shutdown()

        consumed, busy, idle = asyncio.run(scenario())
        assert busy["observations"] == consumed > len(TASKS)
        assert busy["grow_events"] > 0
        assert idle == dict.fromkeys(COLUMNS, 0.0)


class TestCountsFollowTheRows:
    def test_restart_restores_each_tasks_counts(self, tmp_path):
        config = RuntimeConfig(port=0, shards=SHARDS,
                               checkpoint_path=tmp_path / "c.ckpt")

        async def first():
            server = RuntimeServer(config)
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(120))
                await server.drain()
                return _total(server.registry.snapshot())
            finally:
                await client.close()
                await server.shutdown()     # flushes the checkpoint

        async def second():
            server = RuntimeServer(config)
            await server.start()
            try:
                return _total(server.registry.snapshot())
            finally:
                await server.shutdown()

        before = asyncio.run(first())
        doc = read_checkpoint(config.checkpoint_path)
        rows = {name: float(sum(
            np.sum(entry["snapshot"][group][column], dtype=np.int64)
            for entry in doc["shards"].values()))
            for name, (group, column) in COLUMNS.items()}
        after = asyncio.run(second())
        assert after == rows == before
        assert before["observations"] > 0 and before["violations"] > 0

    def test_migration_moves_counts_and_keeps_the_fleet_sum(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(80))
                await cluster.drain()
                before = (await client.telemetry())["metrics"]
                placement = await client.placement()
                source = next(wid for wid, w in placement["workers"].items()
                              if 1 in w["shards"])
                target = "w1" if source == "w0" else "w0"
                migrated = await client.migrate(1, target)
                after = (await client.telemetry())["metrics"]
                return migrated, source, target, before, after
            finally:
                await client.close()

        migrated, source, target, before, after = run_cluster(
            scenario, workers=2, shards=SHARDS)
        assert migrated["ok"] and migrated["fingerprint_match"]
        assert _total(after) == _total(before)
        moved = (_series(before)["observations"][source]
                 - _series(after)["observations"][source])
        assert moved > 0
        assert (_series(after)["observations"][target]
                - _series(before)["observations"][target]) == moved

    def test_a_round_trip_counts_each_row_once(self):
        """A shard that moves away and back retires its rows in both
        hosts' engines, which keep them (rows are never reused), so each
        host must sum the rows of the shards it holds, not its whole
        engine: every per-host count is its shards' snapshot columns,
        and the fleet sum is what it was before the moves."""
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(80))
                await cluster.drain()
                before = (await client.telemetry())["metrics"]
                placement = await client.placement()
                source = next(wid for wid, w in placement["workers"].items()
                              if 1 in w["shards"])
                target = "w1" if source == "w0" else "w0"
                assert (await client.migrate(1, target))["ok"]
                assert (await client.migrate(1, source))["ok"]
                after = (await client.telemetry())["metrics"]
                hosts = {wid: transport.host for wid, transport
                         in cluster.transports.items()}
                held = {wid: {name: float(sum(np.sum(
                    host.shards[sid].service.snapshot()[group][column],
                    dtype=np.int64) for sid in host.shards))
                    for name, (group, column) in COLUMNS.items()}
                    for wid, host in hosts.items()}
                rows = sum(len(host.engine) for host in hosts.values())
                return before, after, held, rows
            finally:
                await client.close()

        before, after, held, rows = run_cluster(scenario, workers=2,
                                                shards=SHARDS)
        assert _total(after) == _total(before)
        assert _total(before)["observations"] > 0
        for name in COLUMNS:
            assert _series(after)[name] == {
                wid: counts[name] for wid, counts in held.items()}
        # Both engines still hold the moved shard's retired rows.
        assert rows > len(TASKS)

    def test_cluster_fleet_sums_equal_the_runtimes_counts(self):
        async def on_runtime():
            server = RuntimeServer(RuntimeConfig(port=0, shards=SHARDS))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(80))
                await server.drain()
                return _total(server.registry.snapshot())
            finally:
                await client.close()
                await server.shutdown()

        async def on_cluster(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await _feed(client, _schedule(80))
                await cluster.drain()
                return (await client.telemetry())["metrics"]
            finally:
                await client.close()

        runtime = asyncio.run(on_runtime())
        fleet = run_cluster(on_cluster, workers=2, shards=SHARDS)
        assert sorted(_series(fleet)["observations"]) == ["w0", "w1"]
        assert _total(fleet) == runtime
        assert runtime["reset_events"] > 0
