"""Unit tests for the worker-side shard container (``WorkerHost``)."""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.cluster.hosting import WorkerHost
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.protocol import OfferColumns, encode_frame_parts


def run(coro):
    return asyncio.run(coro)


TASK = {"name": "t", "threshold": 50.0, "error_allowance": 0.01,
        "max_interval": 8}


async def _offer(host: WorkerHost, *segments) -> tuple[int, int, int]:
    """Send ``(shard, [[name, step, value], ...])`` segments down the
    host's data path the way the coordinator does: names interned to
    gids with ``w_intern``, then columns into ``handle_shard_offer``."""
    names = sorted({u[0] for _sid, updates in segments for u in updates})
    assert (await host.handle({
        "op": "w_intern", "tasks": [[g, n] for g, n in enumerate(names)]}))[
            "ok"]
    return host.handle_shard_offer([
        (sid, OfferColumns(
            np.asarray([names.index(u[0]) for u in updates],
                       dtype=np.uint32),
            np.asarray([u[1] for u in updates], dtype=np.int64),
            np.asarray([u[2] for u in updates], dtype=np.float64)))
        for sid, updates in segments])


async def _host_with_task(shard_id: int = 3) -> WorkerHost:
    host = WorkerHost("w0", queue_depth=8)
    host.start()
    assert (await host.handle({"op": "w_add_shard",
                               "shard": shard_id}))["ok"]
    assert (await host.handle({"op": "w_register_task", "shard": shard_id,
                               "task": TASK}))["ok"]
    return host


class TestLifecycle:
    def test_ping_reports_hosted_shards(self):
        async def scenario():
            host = await _host_with_task(shard_id=5)
            reply = await host.handle({"op": "w_ping"})
            await host.close()
            return reply

        reply = run(scenario())
        assert reply["ok"] and reply["worker_id"] == "w0"
        assert reply["shards"] == [5]

    def test_duplicate_add_shard_is_an_error(self):
        async def scenario():
            host = await _host_with_task(shard_id=1)
            reply = await host.handle({"op": "w_add_shard", "shard": 1})
            await host.close()
            return reply

        reply = run(scenario())
        assert not reply["ok"] and reply["code"] == "shard-exists"

    def test_unknown_shard_ops_report_unknown_shard(self):
        async def scenario():
            host = WorkerHost("w0")
            host.start()
            replies = [await host.handle({"op": op, "shard": 9, "task": "t"})
                       for op in ("w_snapshot_shard", "w_drop_shard",
                                  "w_register_task", "w_task_info")]
            await host.close()
            return replies

        for reply in run(scenario()):
            assert not reply["ok"]

    def test_unknown_op_is_rejected(self):
        async def scenario():
            host = WorkerHost("w0")
            reply = await host.handle({"op": "launch_missiles"})
            await host.close()
            return reply

        reply = run(scenario())
        assert not reply["ok"] and reply["code"] == "unknown-op"


class TestDataPath:
    def test_offer_applies_and_counts(self):
        async def scenario():
            host = await _host_with_task(shard_id=2)
            offer = await _offer(host,
                                 (2, [["t", s, 10.0] for s in range(6)]))
            await host.handle({"op": "w_drain"})
            stats = await host.handle({"op": "w_stats"})
            info = await host.handle({"op": "w_task_info", "shard": 2,
                                      "task": "t"})
            await host.close()
            return offer, stats, info

        offer, stats, info = run(scenario())
        assert offer == (6, 0, 0)
        shard = stats["shards"][0]
        assert shard["updates_offered"] == 6
        assert shard["updates_applied"] == 6
        assert "offered" not in shard  # canonical keys only
        assert info["samples_taken"] >= 1

    def test_offer_to_missing_shard_is_rejected_not_shed(self):
        async def scenario():
            host = await _host_with_task(shard_id=0)
            reply = await _offer(host, (7, [["t", 0, 1.0]]),
                                 (0, [["t", 0, 1.0]]))
            await host.close()
            return reply

        accepted, shed, rejected = run(scenario())
        assert rejected == 1 and accepted == 1
        assert shed == 0

    def test_alerts_fire_through_hosted_shards(self):
        async def scenario():
            host = WorkerHost("w0")
            host.start()
            await host.handle({"op": "w_add_shard", "shard": 0})
            await host.handle({"op": "w_register_task", "shard": 0,
                               "task": {"name": "hot", "threshold": 10.0,
                                        "error_allowance": 0.0}})
            await _offer(host, (0, [["hot", s, 99.0] for s in range(4)]))
            await host.handle({"op": "w_drain"})
            alerts = await host.handle({"op": "w_alerts", "shard": 0,
                                        "task": "hot"})
            stats = await host.handle({"op": "w_stats"})
            await host.close()
            return alerts, stats

        alerts, stats = run(scenario())
        assert len(alerts["alerts"]) == 4
        assert stats["shards"][0]["alerts_fired"] == 4

    def test_a_raising_on_alert_costs_nobody_else_anything(self, caplog):
        # 10 tasks x 5 steps, every offer violating, in one batch; the
        # first task's own callback raises on its first alert. The
        # engine has advanced every row by then, so the history, the
        # counters and everybody else's callbacks must all be whole.
        from repro.core.task import TaskSpec
        from repro.service import MonitoringService

        names = [f"hot-{i}" for i in range(10)]
        fired = {name: [] for name in names}

        def on_alert(name, raising):
            def callback(alert):
                fired[name].append(alert)
                if raising and len(fired[name]) == 1:
                    raise RuntimeError("pager is down")
            return callback

        reference = MonitoringService()
        updates = [[name, step, 99.0] for step in range(5)
                   for name in names]

        async def scenario():
            host = WorkerHost("w0")
            host.start()
            await host.handle({"op": "w_add_shard", "shard": 0})
            service = host.shards[0].service
            for i, name in enumerate(names):
                spec = TaskSpec(threshold=10.0, error_allowance=0.01,
                                name=name)
                service.add_task(name, spec, on_alert=on_alert(name, i == 0))
                reference.add_task(name, spec)
            offer = await _offer(host, (0, updates))
            await host.handle({"op": "w_drain"})
            stats = (await host.handle({"op": "w_stats"}))["shards"][0]
            infos = [await host.handle({"op": "w_task_info", "shard": 0,
                                        "task": name}) for name in names]
            snapshot = service.snapshot()
            alerts = {name: service.alerts(name) for name in names}
            await host.close()
            return offer, stats, infos, snapshot, alerts

        offer, stats, infos, snapshot, alerts = run(scenario())
        for name, step, value in updates:
            reference.offer(name, value, step)
        assert offer == (50, 0, 0)
        assert (stats["updates_applied"], stats["updates_rejected"],
                stats["alerts_fired"]) == (50, 0, 50)
        assert [info["alerts"] for info in infos] == [5] * 10
        assert alerts == {name: reference.alerts(name) for name in names}
        assert fired == alerts               # every callback, every alert
        assert (state_fingerprint(snapshot)
                == state_fingerprint(reference.snapshot()))
        assert "pager is down" in caplog.text


class TestSnapshotRestore:
    def test_snapshot_restore_roundtrip_is_bit_identical(self):
        async def scenario():
            source = await _host_with_task(shard_id=4)
            await _offer(source,
                         (4, [["t", s, 30.0 + s] for s in range(20)]))
            snap = await source.handle({"op": "w_snapshot_shard",
                                        "shard": 4, "drain": True,
                                        "fingerprint": True})
            target = WorkerHost("w1")
            target.start()
            restored = await target.handle({
                "op": "w_restore_shard", "shard": 4, "fingerprint": True,
                "snapshot": snap["snapshot"], "counters": snap["counters"]})
            # Nobody who does not ask pays for the hash or gets the key.
            unasked = await target.handle({"op": "w_snapshot_shard",
                                           "shard": 4})
            assert "fingerprint" not in unasked
            # Counters carried over with the shard.
            stats = await target.handle({"op": "w_stats"})
            await source.close()
            await target.close()
            return snap, restored, stats

        snap, restored, stats = run(scenario())
        assert snap["fingerprint"] == state_fingerprint(snap["snapshot"])
        assert restored["fingerprint"] == snap["fingerprint"]
        assert restored["tasks"] == 1
        assert stats["shards"][0]["updates_offered"] == 20

    def test_a_snapshot_crosses_a_frame_as_lists(self):
        """Between processes a ``w_snapshot_shard`` reply is one JSON
        frame: its arrays travel as lists, and the shard restored from
        them is the shard snapshotted."""
        async def scenario():
            source = await _host_with_task(shard_id=4)
            await _offer(source,
                         (4, [["t", s, 30.0 + s] for s in range(20)]))
            snap = await source.handle({"op": "w_snapshot_shard",
                                        "shard": 4, "drain": True,
                                        "fingerprint": True})
            wire = json.loads(encode_frame_parts(snap)[1])
            target = WorkerHost("w1")
            target.start()
            restored = await target.handle({
                "op": "w_restore_shard", "shard": 4, "fingerprint": True,
                "snapshot": wire["snapshot"], "counters": wire["counters"]})
            await source.close()
            await target.close()
            return snap, wire, restored

        snap, wire, restored = run(scenario())
        assert type(snap["snapshot"]["sampler"]["mean"]) is np.ndarray
        assert type(wire["snapshot"]["sampler"]["mean"]) is list
        assert (state_fingerprint(wire["snapshot"]) == snap["fingerprint"]
                == restored["fingerprint"])

    def test_a_snapshot_that_does_not_load_costs_the_hosted_shard_nothing(
            self):
        """``w_restore_shard`` over a shard the worker already hosts
        restores first and swaps after: a malformed snapshot is an error
        reply, and the hosted shard is still there, still serving."""
        async def scenario():
            host = await _host_with_task(shard_id=4)
            await _offer(host, (4, [["t", s, 30.0] for s in range(10)]))
            good = await host.handle({"op": "w_snapshot_shard", "shard": 4,
                                      "drain": True})
            bad = json.loads(json.dumps(good["snapshot"],
                                        default=np.ndarray.tolist))
            bad["sampler"]["mean"].append(0.0)          # a ragged column
            refused = await host.handle({
                "op": "w_restore_shard", "shard": 4, "snapshot": bad,
                "counters": good["counters"]})
            served = await _offer(host, (4, [["t", 10, 30.0]]))
            await host.handle({"op": "w_drain", "shard": 4})
            info = await host.handle({"op": "w_task_info", "shard": 4,
                                      "task": "t"})
            # The well-formed one then takes the old shard's place.
            accepted = await host.handle({
                "op": "w_restore_shard", "shard": 4,
                "snapshot": good["snapshot"], "counters": good["counters"]})
            again = await host.handle({"op": "w_task_info", "shard": 4,
                                       "task": "t"})
            await host.close()
            return refused, served, info, accepted, again

        refused, served, info, accepted, again = run(scenario())
        assert refused["ok"] is False and "sampler.mean" in refused["error"]
        assert served[0] == 1 and info["ok"] and info["observations"] == 11
        assert accepted["ok"] and accepted["tasks"] == 1
        assert again["ok"] and again["observations"] == 10

    def test_restored_shard_keeps_sampling_identically(self):
        async def scenario():
            a = await _host_with_task(shard_id=0)
            b = await _host_with_task(shard_id=0)
            updates = [["t", s, 20.0 + (s % 7)] for s in range(60)]
            # a sees the whole stream; b is snapshotted to c at step 30.
            await _offer(a, (0, updates))
            await _offer(b, (0, updates[:30]))
            snap = await b.handle({"op": "w_snapshot_shard", "shard": 0,
                                   "drain": True})
            c = WorkerHost("w2")
            c.start()
            await c.handle({"op": "w_restore_shard", "shard": 0,
                            "snapshot": snap["snapshot"],
                            "counters": snap["counters"]})
            await _offer(c, (0, updates[30:]))
            final_a = await a.handle({"op": "w_snapshot_shard", "shard": 0,
                                      "drain": True, "fingerprint": True})
            final_c = await c.handle({"op": "w_snapshot_shard", "shard": 0,
                                      "drain": True, "fingerprint": True})
            for host in (a, b, c):
                await host.close()
            return final_a, final_c

        final_a, final_c = run(scenario())
        assert final_a["fingerprint"] == final_c["fingerprint"]

    def test_drop_shard_removes_metric_series(self):
        async def scenario():
            host = await _host_with_task(shard_id=6)
            before = host.registry.snapshot()
            await host.handle({"op": "w_drop_shard", "shard": 6})
            after = host.registry.snapshot()
            await host.close()
            return before, after

        before, after = run(scenario())
        offered = "volley_updates_offered_total"
        assert any(s["labels"] == ["6"]
                   for s in before[offered]["series"])
        assert not any(s["labels"] == ["6"]
                       for s in after[offered]["series"])


class TestTelemetryOps:
    def test_raw_telemetry_carries_mergeable_sketches(self):
        async def scenario():
            host = await _host_with_task(shard_id=0)
            await _offer(host, (0, [["t", s, 20.0] for s in range(10)]))
            await host.handle({"op": "w_drain"})
            reply = await host.handle({"op": "w_telemetry"})
            await host.close()
            return reply

        reply = run(scenario())
        hist = reply["metrics"]["volley_sampling_interval"]
        for series in hist["series"]:
            assert "sketch" in series["value"]

    def test_trace_cursor_drains_incrementally(self):
        async def scenario():
            host = await _host_with_task(shard_id=0)
            await _offer(host, (0, [["t", s, 20.0] for s in range(40)]))
            await host.handle({"op": "w_drain"})
            first = await host.handle({"op": "w_trace", "since": 0})
            second = await host.handle({"op": "w_trace",
                                        "since": first["next_seq"]})
            await host.close()
            return first, second

        first, second = run(scenario())
        assert first["events"]  # interval adaptation emitted something
        assert second["events"] == []
