"""Property tests: live migration must be invisible to monitoring output.

The headline guarantee of the migration protocol (DESIGN.md) is that a
shard migrated mid-stream — at *any* cut point, under either estimator —
produces bit-identical sampler behaviour to a shard that never moved:
the same alerts at the same steps, the same sampled steps, the same
intervals, and a final state fingerprint equal to the unmigrated run's.
Hypothesis drives randomised streams and cut points at both ends and in
the middle; the reference is a single-process ``RuntimeServer`` with the
same shard count.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_utils import run_cluster

from repro.config import RuntimeConfig
from repro.core.adaptation import AdaptationConfig
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.cluster.routing import route
from repro.testkit.invariants import check_no_acked_loss

SHARDS = 4
TASK = "task-0"  # routes to shard 1 of 4 (pinned in test_routing.py)
TASK_SHARD = route(TASK, SHARDS)

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=10, max_size=120)


TASK_SPEC = {"name": TASK, "threshold": 60.0, "error_allowance": 0.01,
             "max_interval": 6}


def _adaptation(estimator: str) -> AdaptationConfig:
    return AdaptationConfig(estimator=estimator, min_samples=5, patience=5)


async def _observe(client) -> dict:
    info = await client.task_info(TASK)
    alerts = await client.alerts(TASK)
    return {"samples": info["samples_taken"], "interval": info["interval"],
            "next_due": info["next_due"],
            "observations": info["observations"], "alerts": alerts}


def _reference(values: list[float], estimator: str) -> tuple[dict, str]:
    """The unmigrated single-process run: observables + fingerprint."""

    async def runner():
        server = RuntimeServer(RuntimeConfig(port=0, shards=SHARDS),
                               adaptation=_adaptation(estimator))
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await client.register_task(**TASK_SPEC)
            await client.offer_batch(
                [[TASK, step, v] for step, v in enumerate(values)])
            await server.drain()
            observed = await _observe(client)
            snapshot = server._workers[TASK_SHARD].service.snapshot()
            return observed, state_fingerprint(snapshot)
        finally:
            await client.close()
            await server.shutdown()

    return asyncio.run(runner())


class TestMidStreamMigration:
    @given(values=values_strategy,
           cut=st.integers(min_value=0, max_value=120),
           estimator=st.sampled_from(["chebyshev", "gaussian"]))
    @settings(max_examples=15, deadline=None)
    def test_migrated_shard_is_bit_identical(self, values, cut, estimator):
        cut = min(cut, len(values))

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                updates = [[TASK, step, v]
                           for step, v in enumerate(values)]
                if updates[:cut]:
                    await client.offer_batch(updates[:cut])
                await cluster.drain()
                placement = await client.placement()
                source = next(w for w, entry in placement["workers"].items()
                              if TASK_SHARD in entry["shards"])
                target = "w1" if source == "w0" else "w0"
                migrated = await client.migrate(TASK_SHARD, target)
                assert migrated["fingerprint_match"], migrated
                if updates[cut:]:
                    await client.offer_batch(updates[cut:])
                await cluster.drain()
                observed = await _observe(client)
                snap = await cluster._request(target, {
                    "op": "w_snapshot_shard", "shard": TASK_SHARD,
                    "fingerprint": True})
                return observed, snap["fingerprint"]
            finally:
                await client.close()

        observed, fingerprint = run_cluster(
            scenario, adaptation=_adaptation(estimator),
            workers=2, shards=SHARDS)
        expected, expected_fingerprint = _reference(values, estimator)
        assert observed == expected
        assert fingerprint == expected_fingerprint


class TestMigrationUnderConcurrentLoad:
    def test_racing_offers_land_exactly_once(self):
        """Offers racing a migration land exactly once, in order."""

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            writer = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 30.0] for s in range(50)])
                await cluster.drain()

                stop = asyncio.Event()
                acked = 0

                async def pump():
                    nonlocal acked
                    step = 50
                    while not stop.is_set():
                        reply = await writer.offer_batch(
                            [[TASK, step + i, 30.0 + (i % 5)]
                             for i in range(4)])
                        acked += reply["accepted"]
                        step += 4
                        await asyncio.sleep(0)

                pump_task = asyncio.create_task(pump())
                await asyncio.sleep(0.05)
                placement = await client.placement()
                source = next(w for w, e in placement["workers"].items()
                              if TASK_SHARD in e["shards"])
                target = "w1" if source == "w0" else "w0"
                migrated = await client.migrate(TASK_SHARD, target)
                await asyncio.sleep(0.05)
                stop.set()
                await pump_task
                await cluster.drain()
                stats = await client.stats()
                return migrated, acked, stats
            finally:
                await client.close()
                await writer.close()

        migrated, acked, stats = run_cluster(scenario, workers=2,
                                             shards=SHARDS)
        assert migrated["ok"] and migrated["fingerprint_match"]
        # Every ACKed offer (including any held during the cutover) was
        # applied — nothing lost, nothing duplicated.
        assert stats["totals"]["applied"] == acked + 50
        assert stats["cluster"]["migrations"] == 1

    def test_a_writer_cannot_outrun_an_aborted_migration(self):
        """A ``sleep(0)`` writer to the moving shard while its target's
        restore fails: the writer's frames wait for the move, so at most
        the one frame already in flight when it began (4 offers) is ACKed
        while ``migrate`` runs, and every ACKed offer is applied."""
        from repro.exceptions import ClusterError

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            writer = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 30.0] for s in range(40)])
                await cluster.drain()
                target = _other(cluster.routes[TASK_SHARD].worker_id)
                # The heartbeat has not noticed the target die when the
                # migration tries to restore there, and the failed restore
                # takes a while to report, as a dead socket's does.
                transport = cluster.transports[target]
                await transport.kill()
                dead = transport.request

                async def slow_to_fail(payload):
                    await asyncio.sleep(0.05)
                    return await dead(payload)

                transport.request = slow_to_fail

                stop = asyncio.Event()
                migrating = False
                acked = during = 0

                async def pump():
                    nonlocal acked, during
                    step = 2000
                    while not stop.is_set():
                        reply = await writer.offer_batch(
                            [[TASK, step + i, 30.0] for i in range(4)])
                        acked += reply["accepted"]
                        if migrating:
                            during += reply["accepted"]
                        step += 4
                        await asyncio.sleep(0)

                pump_task = asyncio.create_task(pump())
                await asyncio.sleep(0.02)
                migrating = True
                try:
                    await cluster.migrate(TASK_SHARD, target)
                    raised = None
                except ClusterError as exc:
                    raised = exc
                migrating = False
                await asyncio.sleep(0.02)
                stop.set()
                await pump_task
                await cluster.drain()
                applied = (await client.stats())["totals"]["applied"]
                events = [e["kind"] for e in cluster.trace.drain(0, 10_000)]
                return raised, acked, during, applied, events
            finally:
                await client.close()
                await writer.close()

        raised, acked, during, applied, events = run_cluster(
            scenario, workers=2, shards=SHARDS, heartbeat_interval=3600.0)
        assert raised is not None and "is down" in str(raised)
        assert "migration_aborted" in events
        assert during <= 4, during
        assert acked > 4  # the writer did keep offering around the move
        result = check_no_acked_loss(
            expected={TASK: 40 + acked}, actual={TASK: applied},
            scope="across the aborted migration")
        assert result.passed, result.detail

    def test_double_migration_round_trips_home(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                placement = await client.placement()
                home = next(w for w, e in placement["workers"].items()
                            if TASK_SHARD in e["shards"])
                away = "w1" if home == "w0" else "w0"
                updates = [[TASK, s, 20.0 + (s % 9)] for s in range(90)]
                await client.offer_batch(updates[:30])
                await client.migrate(TASK_SHARD, away)
                await client.offer_batch(updates[30:60])
                await client.migrate(TASK_SHARD, home)
                await client.offer_batch(updates[60:])
                await cluster.drain()
                observed = await _observe(client)
                snap = await cluster._request(home, {
                    "op": "w_snapshot_shard", "shard": TASK_SHARD,
                    "fingerprint": True})
                return observed, snap["fingerprint"]
            finally:
                await client.close()

        observed, fingerprint = run_cluster(
            scenario, adaptation=_adaptation("gaussian"),
            workers=2, shards=SHARDS)
        values = [20.0 + (s % 9) for s in range(90)]
        expected, expected_fingerprint = _reference(values, "gaussian")
        assert observed == expected
        assert fingerprint == expected_fingerprint


def _other(worker: str) -> str:
    return "w1" if worker == "w0" else "w0"


class TestTheGateIsTheMigrations:
    """``state_fingerprint`` hashes a whole shard; only ``migrate``
    compares the result, so only ``migrate`` may ask for it."""

    def test_only_migrate_fingerprints_state(self, tmp_path, monkeypatch):
        from repro.cluster import hosting

        calls = []
        real = hosting.state_fingerprint

        def counted(state):
            calls.append(1)
            return real(state)

        monkeypatch.setattr(hosting, "state_fingerprint", counted)
        path = tmp_path / "cluster.ckpt"

        async def first(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 20.0 + (s % 9)] for s in range(40)])
                await cluster.drain()
                await client.checkpoint()
                await cluster.write_checkpoint()
                await cluster._heartbeat_once()
                assert calls == [], "checkpoint / heartbeat hashed state"
                source = cluster.routes[TASK_SHARD].worker_id
                await client.migrate(TASK_SHARD, _other(source))
                assert len(calls) == 2
                await client.migrate(TASK_SHARD, source)
                assert len(calls) == 4
                # Failover: the victim's shards are restored elsewhere
                # from the recovery copy, with nothing to compare to.
                await cluster.kill_worker(source)
                for _ in range(cluster.config.heartbeat_misses):
                    await cluster._heartbeat_once()
                assert cluster.replacements > 0
                return await client.task_info(TASK)
            finally:
                await client.close()

        async def restarted(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return cluster.restored_tasks, await client.task_info(TASK)
            finally:
                await client.close()

        config = dict(workers=2, shards=SHARDS, checkpoint_path=path,
                      checkpoint_interval=3600.0, heartbeat_interval=3600.0)
        before = run_cluster(first, **config)   # + the final flush
        restored, after = run_cluster(restarted, **config)
        assert len(calls) == 4
        assert restored == 1 and after == before

    def test_fingerprint_mismatch_aborts_with_the_source_serving(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task(**TASK_SPEC)
                await client.offer_batch(
                    [[TASK, s, 30.0] for s in range(20)])
                await cluster.drain()
                routed = cluster.routes[TASK_SHARD]
                source = routed.worker_id
                target = _other(source)
                placement = cluster.placement()

                # The target restores a state that hashes differently
                # (here: its reply is tampered), and while it does, a
                # frame arrives and waits for the move to settle.
                transport = cluster.transports[target]
                forward = transport.request
                gate = asyncio.Event()

                async def tampered(payload):
                    reply = await forward(payload)
                    if payload.get("op") == "w_restore_shard":
                        await gate.wait()
                        reply = {**reply, "fingerprint": "0" * 64}
                    return reply

                transport.request = tampered
                migration = asyncio.create_task(
                    cluster.migrate(TASK_SHARD, target))
                while not routed.moving:
                    await asyncio.sleep(0)
                meanwhile = asyncio.create_task(client.offer_batch(
                    [[TASK, s, 30.0] for s in range(20, 30)]))
                await asyncio.sleep(0.05)
                answered_while_held = meanwhile.done()
                gate.set()
                try:
                    await migration
                    raised = None
                except Exception as exc:  # noqa: BLE001 - asserted below
                    raised = exc
                meanwhile = await meanwhile
                transport.request = forward
                await cluster.drain()
                after = await client.offer_batch([[TASK, 30, 30.0]])
                await cluster.drain()
                stats = await client.stats()
                events = [e["kind"] for e in cluster.trace.drain(since=0)]
                hosted = await cluster._request(target, {"op": "w_ping"})
                return (raised, answered_while_held, meanwhile, after,
                        stats, events, hosted, placement,
                        cluster.placement(), source)
            finally:
                await client.close()

        (raised, answered_while_held, meanwhile, after, stats, events,
         hosted, before, now, source) = run_cluster(scenario, workers=2,
                                                    shards=SHARDS)
        from repro.exceptions import ClusterError
        assert not answered_while_held
        assert isinstance(raised, ClusterError)
        assert "fingerprint mismatch" in str(raised)
        assert "migration_aborted" in events
        assert "shard_migrated" not in events
        # The target's copy is dropped and the table did not move.
        assert TASK_SHARD not in hosted["shards"]
        assert now == before and now["migrations"] == 0
        assert TASK_SHARD in now["workers"][source]["shards"]
        # Nothing ACKed was lost: the held frame went on to the source,
        # which goes on accepting and applying.
        assert meanwhile["accepted"] == 10 and after["accepted"] == 1
        assert stats["totals"]["applied"] == 31
        assert stats["totals"]["shed"] == 0
