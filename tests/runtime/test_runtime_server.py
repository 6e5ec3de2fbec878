"""In-process tests for the sharded ingestion server.

Each test runs a real RuntimeServer on an ephemeral loopback port inside
``asyncio.run`` and drives it through the async client — the full frame
path, not handler calls.
"""

from __future__ import annotations

import asyncio
import collections

import numpy as np
import pytest

from repro.cluster.routing import route
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.exceptions import ProtocolError
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.runtime.shard import ColumnBatch
from repro.service import MonitoringService


def run_with_server(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("shards", 4)

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


class TestControlOps:
    def test_ping(self):
        async def scenario(server, client):
            return await client.ping()

        reply = run_with_server(scenario)
        assert reply["ok"] and reply["shards"] == 4

    def test_register_offer_alerts(self):
        async def scenario(server, client):
            await client.register_task("t", 10.0, error_allowance=0.0)
            await client.offer_batch([["t", 0, 5.0], ["t", 1, 20.0]])
            for worker in server._workers:
                await worker.drain()
            return (await client.alerts("t"),
                    await client.task_info("t"))

        alerts, info = run_with_server(scenario)
        assert alerts == [[1, 20.0, 10.0]]
        assert info["samples_taken"] == 2
        assert info["alerts"] == 1

    def test_register_duplicate_is_error(self):
        async def scenario(server, client):
            await client.register_task("t", 10.0)
            with pytest.raises(ProtocolError, match="already registered"):
                await client.register_task("t", 10.0)
            return True

        assert run_with_server(scenario)

    def test_unknown_op_is_error_not_disconnect(self):
        async def scenario(server, client):
            reply = await client.request({"op": "frobnicate"})
            # The connection must survive an unknown op.
            pong = await client.ping()
            return reply, pong

        reply, pong = run_with_server(scenario)
        assert not reply["ok"] and reply["code"] == "unknown-op"
        assert pong["ok"]

    def test_remove_task(self):
        async def scenario(server, client):
            await client.register_task("t", 10.0)
            await client.remove_task("t")
            reply = await client.request({"op": "task_info", "task": "t"})
            offer = await client.offer_batch([["t", 0, 1.0]])
            return reply, offer

        reply, offer = run_with_server(scenario)
        assert not reply["ok"]
        assert offer["rejected"] == 1 and offer["accepted"] == 0

    def test_due_tracks_schedule(self):
        async def scenario(server, client):
            await client.register_task("t", 1e9, error_allowance=0.0)
            assert await client.due("t", 0)
            await client.offer_batch([["t", 0, 1.0]])
            for worker in server._workers:
                await worker.drain()
            return await client.due("t", 0), await client.due("t", 1)

        due0, due1 = run_with_server(scenario)
        assert not due0 and due1

    def test_stats_totals(self):
        async def scenario(server, client):
            for i in range(8):
                await client.register_task(f"t{i}", 1e9)
            await client.offer_batch(
                [[f"t{i}", 0, 1.0] for i in range(8)])
            for worker in server._workers:
                await worker.drain()
            return await client.stats()

        stats = run_with_server(scenario)
        assert stats["totals"]["tasks"] == 8
        assert stats["totals"]["applied"] == 8
        assert len(stats["shards"]) == 4


class TestSharding:
    def test_tasks_spread_and_route_stably(self):
        async def scenario(server, client):
            names = [f"task-{i}" for i in range(64)]
            shards = {}
            for name in names:
                reply = await client.register_task(name, 1e9)
                shards[name] = reply["shard"]
            return shards

        shards = run_with_server(scenario)
        assert all(shards[n] == route(n, 4) for n in shards)
        # 64 names over 4 shards: every shard gets some tasks.
        assert len(collections.Counter(shards.values())) == 4

    def test_cross_shard_trigger_installs_a_plan(self):
        # A pair is a plan wherever its ends live: the same-shard and the
        # cross-shard pair both install at hysteresis 0 / hold 0.
        async def scenario(server, client):
            names = [f"task-{i}" for i in range(16)]
            for name in names:
                await client.register_task(name, 1e9)
            same = [n for n in names
                    if route(n, 4) == route(names[0], 4)]
            other = [n for n in names
                     if route(n, 4) != route(names[0], 4)]
            local = await client.add_trigger(same[1], same[0], 5.0)
            cross = await client.add_trigger(other[0], names[0], 5.0)
            state = await client.trigger_state(other[0])
            return other[0], local, cross, state, await client.trigger_plans()

        target, local, cross, state, plans = run_with_server(scenario)
        assert local["ok"] and cross["ok"] and cross["plans"] == 2
        assert state["state"]["trigger"] == "task-0"
        assert {(p["target"], p["trigger"], p["hysteresis"], p["min_hold"])
                for p in plans["plans"]} >= {(target, "task-0", 0.0, 0)}

    def test_batch_fans_out_across_shards(self):
        async def scenario(server, client):
            names = [f"task-{i}" for i in range(32)]
            for name in names:
                await client.register_task(name, 1e9)
            await client.offer_batch([[n, 0, 1.0] for n in names])
            for worker in server._workers:
                await worker.drain()
            stats = await client.stats()
            return [s["updates_applied"] for s in stats["shards"]]

        per_shard = run_with_server(scenario)
        assert sum(per_shard) == 32
        assert all(applied > 0 for applied in per_shard)


class TestBackpressure:
    def test_full_queue_sheds_with_retry_hint(self):
        async def scenario(server, client):
            await client.register_task("t", 1e9)
            # Stall the shard's drain loop so the queue can fill up.
            worker = server.worker_for("t")
            worker._runner.cancel()
            try:
                await worker._runner
            except asyncio.CancelledError:
                pass
            worker._runner = None

            replies = []
            for i in range(4):
                replies.append(await client.offer_batch([["t", i, 1.0]]))
            return replies

        replies = run_with_server(scenario, queue_depth=2)
        accepted = [r for r in replies if not r.get("shed")]
        shed = [r for r in replies if r.get("shed")]
        assert len(accepted) == 2 and len(shed) == 2
        assert all(r["backpressure"] and r["retry_after_ms"] >= 0
                   for r in shed)

    def test_one_lagging_shard_does_not_block_others(self):
        async def scenario(server, client):
            names = [f"task-{i}" for i in range(16)]
            for name in names:
                await client.register_task(name, 1e9)
            victim = names[0]
            stalled = server.worker_for(victim)
            stalled._runner.cancel()
            try:
                await stalled._runner
            except asyncio.CancelledError:
                pass
            stalled._runner = None
            healthy = [n for n in names
                       if server.worker_for(n) is not stalled]

            # Saturate the stalled shard...
            for i in range(server.config.queue_depth + 3):
                await client.offer_batch([[victim, i, 1.0]])
            # ...then confirm a healthy shard still applies immediately.
            reply = await client.offer_batch([[healthy[0], 0, 1.0]])
            for worker in server._workers:
                if worker is not stalled:
                    await worker.drain()
            info = await client.task_info(healthy[0])
            return reply, info

        reply, info = run_with_server(scenario, queue_depth=2)
        assert reply["accepted"] == 1 and not reply.get("shed")
        assert info["samples_taken"] == 1

    def test_oversized_batch_rejected(self):
        async def scenario(server, client):
            await client.register_task("t", 1e9)
            return await client.request(
                {"op": "offer_batch",
                 "updates": [["t", i, 1.0] for i in range(5)]})

        reply = run_with_server(scenario, max_batch=4)
        assert not reply["ok"] and reply["code"] == "batch-too-large"


class TestMalformedInput:
    """Regression tests: malformed frames must get error replies and must
    never poison a shard drain loop or drop the connection."""

    def test_non_numeric_update_rejected_before_ack(self):
        async def scenario(server, client):
            await client.register_task("t", 1e9)
            bad_value = await client.request(
                {"op": "offer_batch", "updates": [["t", 0, "oops"]]})
            bad_step = await client.request(
                {"op": "offer_batch", "updates": [["t", None, 1.0]]})
            bool_step = await client.request(
                {"op": "offer_batch", "updates": [["t", True, 1.0]]})
            ok = await client.offer_batch([["t", 0, 1.0]])
            for worker in server._workers:
                await worker.drain()
            info = await client.task_info("t")
            return bad_value, bad_step, bool_step, ok, info

        bad_value, bad_step, bool_step, ok, info = run_with_server(scenario)
        for reply in (bad_value, bad_step, bool_step):
            assert not reply["ok"] and reply["code"] == "bad-update"
        # The shard kept applying after the rejected frames, and
        # run_with_server's shutdown() returning at all proves the drain
        # loop is still consuming (a dead consumer deadlocks queue.join()).
        assert ok["accepted"] == 1
        assert info["samples_taken"] == 1

    def test_drain_loop_survives_poison_update(self):
        # Inject a poisoned update directly into the queue, bypassing
        # wire validation: apply_columns() must reject it per-update and
        # keep applying the rest of the batch.
        async def scenario(server, client):
            await client.register_task("t", 1e9)
            worker = server.worker_for("t")
            row = worker.service.soa_row_for("t")
            assert worker.try_enqueue_columns(ColumnBatch(
                rows=np.array([row, row]), steps=np.array([0, 1]),
                values=np.array([float("nan"), 2.0]), names=["t", "t"]))
            await worker.drain()
            info = await client.task_info("t")
            stats = await client.stats()
            return info, stats

        info, stats = run_with_server(scenario)
        assert info["samples_taken"] == 1
        assert stats["totals"]["rejected"] == 1
        assert stats["totals"]["applied"] == 1

    def test_malformed_control_fields_get_error_reply(self):
        async def scenario(server, client):
            bogus_agg = await client.request(
                {"op": "register_task",
                 "task": {"name": "x", "threshold": 1.0,
                          "aggregate": "bogus"}})
            bad_window = await client.request(
                {"op": "register_task",
                 "task": {"name": "x", "threshold": 1.0, "window": "wide"}})
            bad_step = await client.request(
                {"op": "due", "task": "x", "step": "zero"})
            unhashable_op = await client.request({"op": ["offer_batch"]})
            # The connection must survive all of the above.
            pong = await client.ping()
            return bogus_agg, bad_window, bad_step, unhashable_op, pong

        bogus_agg, bad_window, bad_step, unhashable_op, pong = \
            run_with_server(scenario)
        assert not bogus_agg["ok"] and "bogus" in bogus_agg["error"]
        assert not bad_window["ok"]
        assert not bad_step["ok"]
        assert not unhashable_op["ok"]
        assert unhashable_op["code"] == "unknown-op"
        assert pong["ok"]


class TestCheckpointOps:
    def test_checkpoint_op_and_restore(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task("t", 10.0, error_allowance=0.0)
            await client.offer_batch([["t", 0, 5.0], ["t", 1, 25.0]])
            for worker in server._workers:
                await worker.drain()
            await client.checkpoint()
            return await client.task_info("t")

        info = run_with_server(scenario, checkpoint_path=path,
                               checkpoint_interval=3600.0)

        async def restart():
            server = RuntimeServer(RuntimeConfig(
                port=0, shards=4, checkpoint_path=path,
                checkpoint_interval=3600.0))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                return server.restored_tasks, \
                    await client.task_info("t"), await client.alerts("t")
            finally:
                await client.close()
                await server.shutdown()

        restored_count, restored_info, alerts = asyncio.run(restart())
        assert restored_count == 1
        assert restored_info["samples_taken"] == info["samples_taken"]
        assert restored_info["next_due"] == info["next_due"]
        assert alerts == [[1, 25.0, 10.0]]

    def test_shutdown_flushes_final_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task("t", 1e9)
            # Queue a batch but do NOT drain: graceful shutdown must
            # apply it before flushing the final checkpoint.
            await client.offer_batch([["t", 0, 1.0], ["t", 1, 2.0]])
            return True

        run_with_server(scenario, checkpoint_path=path,
                        checkpoint_interval=3600.0)
        from repro.runtime.checkpoint import read_checkpoint

        state = read_checkpoint(path)
        restored = MonitoringService.restore(
            state["shards"][str(route("t", 4))]["snapshot"])
        assert restored.samples_taken("t") == 2

    @pytest.mark.parametrize("kind", ["runtime", "cluster"])
    def test_checkpoint_loop_survives_write_failure(self, tmp_path, kind):
        """The periodic checkpointer is the front end's, so it degrades
        the same way — counted, traced, retried — on both servers."""
        path = tmp_path / "ckpt.json"
        common = dict(port=0, shards=4, checkpoint_path=path,
                      checkpoint_interval=0.01)

        async def runner():
            if kind == "runtime":
                server = RuntimeServer(RuntimeConfig(**common))
            else:
                server = ClusterServer(ClusterConfig(
                    backend="inproc", workers=2, **common))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                await client.register_task("t", 1e9)
                real = server.write_checkpoint
                calls = {"n": 0}

                def flaky():
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise OSError("disk full")
                    return real()

                server.write_checkpoint = flaky
                # Wait until the loop has both failed once and recovered.
                while calls["n"] < 2 or not path.exists():
                    await asyncio.sleep(0.005)
                server.write_checkpoint = real
                return (await client.stats(), await client.telemetry(),
                        await client.trace())
            finally:
                await client.close()
                await server.shutdown()

        stats, telemetry, trace = asyncio.run(runner())
        assert stats["checkpoint"]["failures"] == 1
        assert stats["checkpoint"]["last_age_s"] is not None
        failures = telemetry["metrics"]["volley_checkpoint_failures_total"]
        assert [s["value"] for s in failures["series"]] == [1.0]
        kinds = [event["kind"] for event in trace["events"]]
        assert kinds.count("checkpoint_failed") == 1
        assert "checkpoint_written" in kinds
        assert path.exists()

    def test_shard_count_mismatch_fails_closed(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task("t", 1e9)
            return True

        run_with_server(scenario, shards=4, checkpoint_path=path,
                        checkpoint_interval=3600.0)

        from repro.exceptions import CheckpointError

        async def restart_wrong():
            server = RuntimeServer(RuntimeConfig(
                port=0, shards=2, checkpoint_path=path,
                checkpoint_interval=3600.0))
            await server.start()

        with pytest.raises(CheckpointError, match="resharding"):
            asyncio.run(restart_wrong())


class TestConfigFileTasks:
    def test_declarative_tasks_registered_at_start(self):
        async def runner():
            server = RuntimeServer(
                RuntimeConfig(port=0, shards=2),
                service_config={
                    "defaults": {"error_allowance": 0.0},
                    "tasks": [{"name": "cfg-a", "threshold": 5.0},
                              {"name": "cfg-b", "threshold": 7.0,
                               "window": 3, "aggregate": "max"}],
                })
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                reply = await client.offer_batch(
                    [["cfg-a", 0, 10.0], ["cfg-b", 0, 10.0]])
                for worker in server._workers:
                    await worker.drain()
                return reply, await client.alerts("cfg-a")
            finally:
                await client.close()
                await server.shutdown()

        reply, alerts = asyncio.run(runner())
        assert reply["accepted"] == 2
        assert alerts == [[0, 10.0, 5.0]]

    @pytest.mark.parametrize("kind", ["runtime", "cluster"])
    @pytest.mark.parametrize("config, culprit", [
        ({"defaults": {"max_intervl": 4},
          "tasks": [{"name": "t", "threshold": 5.0}]}, "max_intervl"),
        ({"task": [{"name": "t", "threshold": 5.0}]}, "'task'"),
    ], ids=["defaults-key", "top-key"])
    def test_an_unknown_config_key_fails_closed(self, kind, config,
                                                culprit):
        """A misspelt key is refused at start on both servers, as
        ``service_from_config`` refuses it — never a task silently given
        the default it did not ask for, nor a server with no tasks."""
        from repro.exceptions import ConfigurationError

        async def runner():
            if kind == "runtime":
                server = RuntimeServer(RuntimeConfig(port=0, shards=2),
                                       service_config=config)
            else:
                server = ClusterServer(
                    ClusterConfig(backend="inproc", workers=1, shards=2,
                                  port=0), service_config=config)
            await server.start()
            await server.shutdown()

        with pytest.raises(ConfigurationError, match=culprit):
            asyncio.run(runner())

    @pytest.mark.parametrize("kind", ["runtime", "cluster"])
    def test_configured_tasks_exist_before_the_socket_accepts(
            self, tmp_path, kind):
        """Both ``start()``s apply the service config before ``_listen``:
        whoever connects first — on a fresh start or a restart from a
        checkpoint — already finds every configured task."""
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        common = dict(port=port, shards=4,
                      checkpoint_path=tmp_path / "ckpt.json",
                      checkpoint_interval=3600.0)
        service_config = {"tasks": [{"name": f"cfg-{i}", "threshold": 5.0}
                                    for i in range(6)]}

        async def incarnation():
            if kind == "runtime":
                server = RuntimeServer(RuntimeConfig(**common),
                                       service_config=service_config)
            else:
                server = ClusterServer(
                    ClusterConfig(backend="inproc", workers=2, **common),
                    service_config=service_config)
            starting = asyncio.create_task(server.start())
            try:
                while True:  # connect in a tight loop from the start
                    client = AsyncRuntimeClient(port=port)
                    try:
                        first = await client.ping()
                        break
                    except OSError:
                        await asyncio.sleep(0)
                    finally:
                        await client.close()
                return first["tasks"], server.restored_tasks
            finally:
                await starting
                await server.shutdown()

        assert asyncio.run(incarnation()) == (6, 0)
        assert asyncio.run(incarnation()) == (6, 6)  # from the checkpoint


class TestTelemetryOps:
    def test_telemetry_op_returns_metrics_and_trace_meta(self):
        async def scenario(server, client):
            await client.register_task("t", 10.0)
            await client.offer_batch([["t", s, 1.0] for s in range(4)])
            for worker in server._workers:
                await worker.drain()
            return await client.telemetry()

        reply = run_with_server(scenario)
        assert reply["ok"]
        metrics = reply["metrics"]
        offered = sum(s["value"] for s in
                      metrics["volley_updates_offered_total"]["series"])
        assert offered == 4
        assert metrics["volley_tasks"]["series"][0]["value"] == 1.0
        assert metrics["volley_frames_total"]["series"][0]["value"] > 0
        assert reply["trace"]["next_seq"] >= 1  # task_registered at least
        assert reply["trace"]["dropped"] == 0

    def test_trace_op_drains_incrementally(self):
        async def scenario(server, client):
            await client.register_task("a", 5.0)
            await client.register_task("b", 5.0)
            full = await client.trace()
            tail = await client.trace(since=full["next_seq"] - 1)
            limited = await client.trace(limit=1)
            await client.remove_task("a")
            after = await client.trace(since=full["next_seq"])
            return full, tail, limited, after

        full, tail, limited, after = run_with_server(scenario)
        kinds = [e["kind"] for e in full["events"]]
        assert kinds.count("task_registered") == 2
        assert len(tail["events"]) == 1
        assert tail["events"][0]["seq"] == full["next_seq"] - 1
        assert len(limited["events"]) == 1
        assert [e["kind"] for e in after["events"]] == ["task_removed"]
        assert after["events"][0]["task"] == "a"
