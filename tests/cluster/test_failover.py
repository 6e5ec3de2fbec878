"""Failure-driven re-placement: worker death must not lose ACKed state.

The coordinator's contract (DESIGN.md): a worker declared dead after
``heartbeat_misses`` missed pings has every shard it hosted rebuilt on a
survivor from the last recovery snapshot. ACKed-and-applied updates that
made it into that snapshot survive; offers racing the crash are *shed*
(honestly counted), never silently dropped — the same at-most-once
contract the single-process runtime states for crash recovery.

The in-proc tests here run in tier 1; the subprocess SIGKILL matrix is
``-m chaos`` (slow: real processes, real heartbeat timing).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from cluster_utils import run_cluster

from repro.cluster.routing import route
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.client import AsyncRuntimeClient
from repro.testkit.invariants import check_no_acked_loss

SHARDS = 4
TASK = "task-0"
TASK_SHARD = route(TASK, SHARDS)
# A same-shard partner: TASK is gated on its last value, so the pair's
# rows are handed back — and must still resolve after a failover.
PARTNER = next(name for name in (f"task-{i}" for i in range(1, 64))
               if route(name, SHARDS) == TASK_SHARD)

TASK_SPEC = {"name": TASK, "threshold": 60.0, "error_allowance": 0.01,
             "max_interval": 6}

FAST_BEAT = {"heartbeat_interval": 0.05, "heartbeat_misses": 2,
             "heartbeat_timeout": 0.5}


async def _wait_until(predicate, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not met within timeout")
        await asyncio.sleep(0.02)


async def _victim_of(client, shard: int) -> str:
    placement = await client.placement()
    return next(w for w, entry in placement["workers"].items()
                if shard in entry["shards"])


class TestInProcReplacement:
    def test_dead_worker_shards_move_to_survivor_with_state(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.register_task(**{**TASK_SPEC, "name": PARTNER})
                await client.add_trigger(TASK, PARTNER, elevation_level=1.0,
                                         suspend_interval=2)
                await client.offer_batch(
                    [[TASK, s, 20.0 + (s % 9)] for s in range(50)])
                await cluster.drain()
                before = await client.task_info(TASK)
                # Pin the recovery snapshot at exactly this point.
                await cluster._collect_state()
                victim = await _victim_of(client, TASK_SHARD)
                await cluster.kill_worker(victim)
                victim_shards = sum(
                    1 for r in cluster.routes if r.worker_id == victim)
                await _wait_until(
                    lambda: cluster.replacements >= victim_shards)
                await cluster.drain()
                after = await client.task_info(TASK)
                placement = await client.placement()
                more = await client.offer_batch([[TASK, 100, 25.0]])
                await cluster.drain()
                final = await client.task_info(TASK)
                events = cluster.trace.drain(0, 10_000)
                host = cluster.transports[
                    cluster.routes[TASK_SHARD].worker_id].host
                worker = host.shards[TASK_SHARD]
                gids = np.asarray([host.gid_names.index(TASK)])
                rows = (host._rows_for(TASK_SHARD, gids).tolist()
                        + [worker.service.soa_row_for(PARTNER)])
                return (victim, before, after, placement, more, final,
                        events, rows)
            finally:
                await client.close()

        victim, before, after, placement, more, final, events, rows = \
            run_cluster(scenario, workers=2, shards=SHARDS, **FAST_BEAT)
        # Restored tasks are rows again, a last-seen pair's included.
        assert min(rows) >= 0
        # The shard came back on the survivor with its snapshotted state.
        assert not placement["workers"][victim]["alive"]
        assert placement["workers"][victim]["shards"] == []
        hosted = sorted(s for w in placement["workers"].values()
                        for s in w["shards"])
        assert hosted == list(range(SHARDS))
        assert after["observations"] == before["observations"]
        assert after["samples_taken"] == before["samples_taken"]
        # The recovered shard keeps serving.
        assert more["accepted"] == 1
        assert final["observations"] == before["observations"] + 1
        kinds = {e["kind"] for e in events}
        assert {"worker_lost", "shard_replaced"} <= kinds
        recovered = [e for e in events if e["kind"] == "shard_replaced"
                     and e["shard"] == TASK_SHARD]
        assert recovered and recovered[0]["recovered"] is True

    def test_the_recovery_copy_is_the_state_it_was_taken_at(self):
        """In-proc, the recovery copy is the worker's own snapshot dict,
        never a JSON text: its columns must not move with the shard they
        were read off. Offers after the copy are lost to a failover, and
        the re-placed shard is the copy, fingerprint for fingerprint."""

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.register_task(**{**TASK_SPEC, "name": PARTNER})
                await client.offer_batch(
                    [[TASK, s, 50.0 + (s % 13)] for s in range(40)])
                await cluster.drain()
                shards = await cluster._collect_state()
                copy = shards[str(TASK_SHARD)]["snapshot"]
                taken = state_fingerprint(copy)
                await client.offer_batch(
                    [[name, s, 55.0 + (s % 11)] for s in range(40, 90)
                     for name in (TASK, PARTNER)])
                await cluster.drain()
                victim = await _victim_of(client, TASK_SHARD)
                live = cluster.transports[victim].host.shards[TASK_SHARD]
                moved = state_fingerprint(live.service.snapshot())
                kept = state_fingerprint(copy)
                await cluster.kill_worker(victim)
                await cluster._handle_worker_loss(victim)
                host = cluster.transports[
                    cluster.routes[TASK_SHARD].worker_id].host
                replaced = state_fingerprint(
                    host.shards[TASK_SHARD].service.snapshot())
                return victim, taken, moved, kept, replaced, host
            finally:
                await client.close()

        victim, taken, moved, kept, replaced, host = run_cluster(
            scenario, workers=2, shards=SHARDS, heartbeat_interval=3600.0)
        assert moved != taken                  # the shard moved on ...
        assert kept == taken                   # ... its copy did not
        assert host.worker_id != victim
        assert replaced == taken

    def test_uncovered_shard_recovers_fresh_with_catalog_tasks(self):
        """No snapshot for the shard → fresh shard, its pending
        registrations registered again."""

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                victim = await _victim_of(client, TASK_SHARD)
                # Kill before any heartbeat snapshotted the shard: the
                # re-placement has nothing to restore from and must fall
                # back to a fresh shard plus the pending registration.
                await cluster.kill_worker(victim)
                await _wait_until(lambda: cluster.replacements >= 1)
                info = await client.task_info(TASK)
                reply = await client.offer_batch([[TASK, 0, 99.0]])
                await cluster.drain()
                final = await client.task_info(TASK)
                events = cluster.trace.drain(0, 10_000)
                return info, reply, final, events
            finally:
                await client.close()

        info, reply, final, events = run_cluster(
            scenario, workers=2, shards=SHARDS,
            heartbeat_interval=0.3, heartbeat_misses=2,
            heartbeat_timeout=0.5)
        assert info["ok"] and info["observations"] == 0
        assert reply["accepted"] == 1
        assert final["observations"] == 1
        replaced = [e for e in events if e["kind"] == "shard_replaced"
                    and e["shard"] == TASK_SHARD]
        assert replaced and replaced[0]["recovered"] is False

    def test_worker_up_gauge_tracks_death(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                victim = await _victim_of(client, TASK_SHARD)
                await cluster.kill_worker(victim)
                await _wait_until(lambda: cluster.replacements >= 1)
                snapshot = cluster.registry.snapshot()
                return victim, snapshot
            finally:
                await client.close()

        victim, snapshot = run_cluster(scenario, workers=2, shards=SHARDS,
                                       **FAST_BEAT)
        up = {s["labels"][0]: s["value"]
              for s in snapshot["volley_worker_up"]["series"]}
        assert up[victim] == 0.0
        survivor = "w1" if victim == "w0" else "w0"
        assert up[survivor] == 1.0
        replacements = snapshot["volley_replacements_total"]
        assert replacements["series"][0]["value"] >= 1


class TestSubprocessSmoke:
    def test_subprocess_backend_end_to_end(self):
        """Real worker processes: spawn, route, count, shut down."""

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                ping = await client.request({"op": "ping"})
                await client.register_task(**TASK_SPEC)
                reply = await client.offer_batch(
                    [[TASK, s, 30.0] for s in range(20)])
                await cluster.drain()
                stats = await client.stats()
                info = await client.task_info(TASK)
                placement = await client.placement()
                return ping, reply, stats, info, placement
            finally:
                await client.close()

        ping, reply, stats, info, placement = run_cluster(
            scenario, backend="subprocess", workers=2, shards=SHARDS)
        assert ping["ok"] and ping["workers"] == 2
        assert reply["accepted"] == 20
        assert stats["totals"]["applied"] == 20
        assert info["observations"] == 20
        pids = {w["pid"] for w in placement["workers"].values()}
        assert len(pids) == 2 and os.getpid() not in pids


@pytest.mark.chaos
class TestSubprocessChaos:
    """SIGKILL matrix against real worker processes."""

    def test_sigkill_under_load_keeps_acked_ledger(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            writer = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 20.0 + (s % 9)] for s in range(50)])
                await cluster.drain()
                await cluster._collect_state()
                base = (await client.stats())["totals"]["applied"]
                victim = await _victim_of(client, TASK_SHARD)
                await cluster.kill_worker(victim)

                # Keep offering through the outage: every batch either
                # ACKs (and must survive) or sheds (honest backpressure).
                acked = 0
                step = 1000
                while cluster.replacements == 0:
                    reply = await writer.offer_batch(
                        [[TASK, step + i, 30.0] for i in range(4)])
                    acked += reply["accepted"]
                    step += 4
                    await asyncio.sleep(0.01)
                await cluster.drain()
                post = await client.offer_batch([[TASK, step, 31.0]])
                acked += post["accepted"]
                await cluster.drain()
                final = (await client.stats())["totals"]["applied"]
                return base, acked, final
            finally:
                await client.close()
                await writer.close()

        base, acked, final = run_cluster(
            scenario, backend="subprocess", workers=2, shards=SHARDS,
            heartbeat_interval=0.1, heartbeat_misses=2,
            heartbeat_timeout=0.5)
        # The applied-update counter is the ledger: ACKed offers that made
        # it past the recovery snapshot must all be applied, shed offers
        # must not be.
        result = check_no_acked_loss(
            expected={TASK: base + acked}, actual={TASK: final},
            scope="since the pre-kill recovery snapshot")
        assert result.passed, result.detail

    def test_sigkill_of_migration_target_aborts_cleanly(self):
        """Migration to a dead worker fails; the source stays whole."""

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            writer = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 30.0] for s in range(40)])
                await cluster.drain()
                source = await _victim_of(client, TASK_SHARD)
                target = "w1" if source == "w0" else "w0"
                # Slow heartbeat: the coordinator has not noticed the
                # target die when the migration tries to restore there.
                await cluster.kill_worker(target)

                stop = asyncio.Event()
                acked = 0

                async def pump():
                    nonlocal acked
                    step = 2000
                    while not stop.is_set():
                        reply = await writer.offer_batch(
                            [[TASK, step + i, 30.0] for i in range(4)])
                        acked += reply["accepted"]
                        step += 4
                        await asyncio.sleep(0)

                pump_task = asyncio.create_task(pump())
                await asyncio.sleep(0.02)
                migrated = await client.request(
                    {"op": "migrate", "shard": TASK_SHARD,
                     "worker": target})
                stop.set()
                await pump_task
                await cluster.drain()
                applied = (await client.stats())["totals"]["applied"]
                events = cluster.trace.drain(0, 10_000)
                return migrated, acked, applied, cluster.migrations, events
            finally:
                await client.close()
                await writer.close()

        migrated, acked, applied, migrations, events = run_cluster(
            scenario, backend="subprocess", workers=2, shards=SHARDS,
            heartbeat_interval=5.0, heartbeat_misses=2,
            heartbeat_timeout=0.5)
        assert not migrated["ok"]
        assert migrations == 0
        # Source still authoritative; the writer's held frames went on
        # to it once the migration gave up.
        result = check_no_acked_loss(
            expected={TASK: 40 + acked}, actual={TASK: applied},
            scope="across the aborted migration")
        assert result.passed, result.detail
        assert any(e["kind"] == "migration_aborted" for e in events)
