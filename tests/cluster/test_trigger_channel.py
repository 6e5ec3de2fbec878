"""The coordinator trigger channel (``repro.triggers`` over the wire).

Three contracts:

* **Wire parity** — a schedule that drives real edges through the
  channel answers byte-identically on a
  :class:`~repro.cluster.server.ClusterServer` and a single-process
  :class:`~repro.runtime.server.RuntimeServer`: across workers the
  cluster pumps edges the runtime routes synchronously, and the two must
  agree on the guard state that results. (The ops' error replies are
  front-end behaviour, covered by
  ``tests/runtime/test_wire_conformance.py``.)
* **Migration survival** — a *disarmed* guard's armed flag, watcher
  debounce state and suspension counter ride the shard snapshot across a
  live migration (fingerprint-verified), and the channel keeps routing
  edges to the moved shard afterwards; an edge still waiting for the
  pump when either end's shard moves reaches its target, in its
  trigger's order, never undoing a newer edge.
* **SIGKILL survival** (``-m chaos``) — worker death restores the armed
  state from the recovery snapshot: a deliberately disarmed guard stays
  disarmed on the survivor and can still be re-armed by its trigger.
"""

from __future__ import annotations

import asyncio

import pytest

from cluster_utils import run_cluster

from repro.cluster.routing import route
from repro.config import RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer

SHARDS = 4

TRIGGER = "edge-conns"
# A target on a different shard than its trigger, so every edge crosses
# the coordinator (and, with two workers, usually a process boundary).
TARGET = next(f"dpi-flows-{i:02d}" for i in range(100)
              if route(f"dpi-flows-{i:02d}", SHARDS)
              != route(TRIGGER, SHARDS))

PLAN = {"target": TARGET, "trigger": TRIGGER, "elevation_level": 60.0,
        "suspend_interval": 6, "hysteresis": 0.1, "min_hold": 2}


def _on_shard(prefix: str, shard: int) -> str:
    """The first ``prefix-NN`` task name that routes to ``shard``."""
    return next(f"{prefix}-{i:02d}" for i in range(100)
                if route(f"{prefix}-{i:02d}", SHARDS) == shard)


def _spec(name: str) -> dict:
    return {"name": name, "threshold": 100.0, "error_allowance": 0.05,
            "max_interval": 4}


async def _drive(client, drain) -> list:
    """The parity schedule; returns every reply in order."""
    replies = []
    for name in (TRIGGER, TARGET):
        await client.register_task(**_spec(name))

    # Install (twice: re-install must be idempotent) and initial state.
    replies.append(await client.install_trigger_plan(PLAN))
    replies.append(await client.install_trigger_plan(PLAN))
    replies.append(await client.trigger_state(TARGET))
    replies.append(await client.trigger_state(TRIGGER))

    # Calm trigger stream -> disarm edge; drain before touching the
    # target so the edge has been pumped on both server kinds.
    await client.offer_batch([[TRIGGER, s, 10.0] for s in range(8)])
    await drain()
    replies.append(await client.trigger_plans())
    replies.append(await client.trigger_state(TARGET))

    # The disarmed guard idles at the suspend interval.
    await client.offer_batch([[TARGET, s, 30.0] for s in range(12)])
    await drain()
    replies.append(await client.trigger_plans())

    # Hot trigger -> re-arm; the guard resumes full-rate sampling.
    await client.offer_batch([[TRIGGER, 8 + i, 90.0] for i in range(3)])
    await drain()
    replies.append(await client.trigger_plans())
    replies.append(await client.trigger_state(TARGET))
    await client.offer_batch([[TARGET, 12 + i, 30.0] for i in range(6)])
    await drain()
    replies.append(await client.task_info(TARGET))

    # Explicit operator overrides.
    replies.append(await client.set_trigger_armed(TARGET, False))
    replies.append(await client.set_trigger_armed(TARGET, True))
    replies.append(await client.trigger_plans())
    return replies


class TestTriggerWireParity:
    def test_cluster_replies_match_runtime_byte_for_byte(self):
        async def cluster_scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return await _drive(client, cluster.drain)
            finally:
                await client.close()

        async def runtime_scenario():
            server = RuntimeServer(RuntimeConfig(port=0, shards=SHARDS))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)

            async def drain():
                for worker in server._workers:
                    await worker.drain()

            try:
                return await _drive(client, drain)
            finally:
                await client.close()
                await server.shutdown()

        observed = run_cluster(cluster_scenario, shards=SHARDS)
        expected = asyncio.run(runtime_scenario())
        assert len(observed) == len(expected)
        for i, (obs, exp) in enumerate(zip(observed, expected)):
            assert obs == exp, (i, obs, exp)
        # The schedule actually exercised the channel, not a no-op path.
        final = observed[-1]
        assert final["edges"]["disarm"] >= 2  # watch edge + override
        assert final["edges"]["arm"] >= 2
        assert final["suspensions"] > 0
        assert final["probe_cost_saved"] > 0.0


class TestPlansChangeUnderThePump:
    def test_an_install_racing_a_yielding_pump_raises_nothing(self):
        """The control ops may change the plans while the server awaits
        a shard: ``pump_triggers`` (run by the heartbeat, ``drain`` and
        ``trigger_plans``) and ``_reinstall_triggers`` walk a copy.
        Iterating the dict itself raised ``RuntimeError:
        dictionary changed size during iteration`` — into ``drain``'s
        caller, or out of the beat."""
        late = [f"late-{i}" for i in range(2)]

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for name in (TRIGGER, TARGET, *late):
                    await client.register_task(**_spec(name))
                await client.install_trigger_plan(PLAN)
                await client.offer_batch(
                    [[TRIGGER, s, 10.0] for s in range(8)])   # a disarm
                racing = iter(late)

                async def install_another():
                    target = next(racing)
                    reply = await client.install_trigger_plan(
                        {**PLAN, "target": target})
                    assert reply["ok"]

                shard_call, best_effort = (cluster._shard_call,
                                           cluster._best_effort)

                async def yielding(forward, op, *args):
                    # A transport that yields, and an install that gets
                    # in while it does.
                    if args[-1]["op"] == op:
                        await install_another()
                    return await forward(*args)

                cluster._shard_call = lambda *a: yielding(
                    shard_call, "w_trigger_set", *a)
                await cluster.drain()                   # pumps the edge
                cluster._shard_call = shard_call
                cluster._best_effort = lambda *a: yielding(
                    best_effort, "w_trigger_install", *a)
                await cluster._reinstall_triggers(
                    cluster.routes[route(TARGET, SHARDS)])
                cluster._best_effort = best_effort
                return (await client.trigger_state(TARGET),
                        await client.trigger_plans())
            finally:
                await client.close()

        state, plans = run_cluster(scenario, shards=SHARDS,
                                   heartbeat_interval=3600.0)
        assert state["state"]["armed"] is False         # the edge landed
        assert sorted(p["target"] for p in plans["plans"]) == sorted(
            [TARGET, *late])
        assert plans["edges"]["disarm"] == 1


class TestTriggerMigration:
    def test_disarmed_guard_survives_live_migration(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for name in (TRIGGER, TARGET):
                    await client.register_task(**_spec(name))
                await client.install_trigger_plan(PLAN)
                await client.offer_batch(
                    [[TRIGGER, s, 10.0] for s in range(8)])
                await cluster.drain()
                before = await client.trigger_state(TARGET)

                target_shard = route(TARGET, SHARDS)
                placement = await client.placement()
                source = next(w for w, e in placement["workers"].items()
                              if target_shard in e["shards"])
                dest = next(w for w in placement["workers"]
                            if w != source)
                migrated = await client.migrate(target_shard, dest)
                after = await client.trigger_state(TARGET)

                # The moved guard still defers probes...
                await client.offer_batch(
                    [[TARGET, s, 30.0] for s in range(12)])
                await cluster.drain()
                plans_disarmed = await client.trigger_plans()
                # ...and still receives edges from the (unmoved) trigger.
                await client.offer_batch(
                    [[TRIGGER, 8 + i, 90.0] for i in range(3)])
                await cluster.drain()
                rearmed = await client.trigger_state(TARGET)
                return migrated, before, after, plans_disarmed, rearmed
            finally:
                await client.close()

        migrated, before, after, plans_disarmed, rearmed = run_cluster(
            scenario, shards=SHARDS)
        assert migrated["ok"] and migrated["fingerprint_match"], migrated
        assert before["state"]["armed"] is False
        # Bit-identical restore: guard flag, suspensions and the armed
        # remote-trigger wiring all survive the move.
        assert after["state"] == before["state"]
        assert plans_disarmed["suspensions"] > 0
        assert rearmed["state"]["armed"] is True

    def test_an_edge_outlives_its_shards_migration(self):
        """An edge raised on w0 for a target on w1 waits for the pump in
        w0's outbox, which outlives the trigger's shard moving to w1
        before that pump comes."""
        trigger, target = _on_shard("edge", 0), _on_shard("dpi", 1)
        plan = {**PLAN, "trigger": trigger, "target": target}

        def scenario(migrate):
            async def run(cluster):
                client = AsyncRuntimeClient(port=cluster.tcp_port)
                try:
                    for name in (trigger, target):
                        await client.register_task(**_spec(name))
                    await client.install_trigger_plan(plan)
                    await client.offer_batch(
                        [[trigger, s, 10.0] for s in range(4)])
                    if migrate:
                        moved = await cluster.migrate(0, "w1")
                        assert moved["ok"], moved
                    await cluster.drain()
                    return (await client.trigger_state(target),
                            await client.trigger_plans())
                finally:
                    await client.close()
            return run_cluster(run, shards=SHARDS,
                               heartbeat_interval=3600.0)

        for migrate in (False, True):
            state, plans = scenario(migrate)
            assert state["state"]["armed"] is False, migrate
            assert plans["edges"] == {"arm": 0, "disarm": 1}, migrate

    def test_an_edge_raised_while_its_target_moves_reaches_the_move(self):
        """Trigger and target on two shards of w0; the target's shard is
        snapshotted to move to w1 when an edge fires on w0. w0 flips the
        copy it still holds, which is about to go: the pump delivers the
        edge to the copy that moved."""
        trigger, target = _on_shard("edge", 0), _on_shard("dpi", 2)
        plan = {**PLAN, "trigger": trigger, "target": target}

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            request = cluster._request

            async def racing(wid, payload):
                if payload["op"] == "w_restore_shard":
                    await client.offer_batch(
                        [[trigger, s, 10.0] for s in range(4)])
                    await request("w0", {"op": "w_drain", "shard": 0})
                return await request(wid, payload)

            try:
                for name in (trigger, target):
                    await client.register_task(**_spec(name))
                await client.install_trigger_plan(plan)
                cluster._request = racing
                moved = await cluster.migrate(2, "w1")
                cluster._request = request
                assert moved["ok"], moved
                await cluster.drain()
                return (await client.trigger_state(target),
                        await client.trigger_plans())
            finally:
                await client.close()

        state, plans = run_cluster(scenario, shards=SHARDS,
                                   heartbeat_interval=3600.0)
        assert state["state"]["armed"] is False
        assert plans["edges"] == {"arm": 0, "disarm": 1}

    @pytest.mark.parametrize("ends,shard,to,workers", [
        # Trigger and target share shard 0. Its disarm waits in w0's
        # outbox while the shard moves to w1, where the trigger goes hot
        # and the shard arms its target itself.
        ((0, 0), 0, "w1", 2),
        # The trigger's shard moves from w1 to w0 between its disarm and
        # its arm, and the target sits on w2: the pump reads w0's outbox
        # before w1's.
        ((1, 2), 1, "w0", 3),
    ], ids=["same-shard-plan", "two-workers-to-a-third"])
    def test_a_stale_edge_never_undoes_a_newer_one(self, ends, shard, to,
                                                   workers):
        """Cold trigger offers raise a disarm; ``shard`` moves to ``to``;
        hot offers raise the newer arm there; then one pump. The target
        ends armed, whichever outbox the older edge waited in."""
        trigger, target = _on_shard("edge", ends[0]), _on_shard("dpi", ends[1])
        plan = {**PLAN, "trigger": trigger, "target": target}

        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for name in (trigger, target):
                    await client.register_task(**_spec(name))
                await client.install_trigger_plan(plan)
                await client.offer_batch(
                    [[trigger, s, 10.0] for s in range(4)])
                moved = await cluster.migrate(shard, to)
                assert moved["ok"], moved
                await client.offer_batch(
                    [[trigger, s, 90.0] for s in range(4, 8)])
                await cluster.drain()
                return (await client.trigger_state(target),
                        await client.trigger_plans())
            finally:
                await client.close()

        state, plans = run_cluster(scenario, shards=SHARDS, workers=workers,
                                   heartbeat_interval=3600.0)
        assert state["state"]["armed"] is True
        assert plans["edges"] == {"arm": 1, "disarm": 1}


@pytest.mark.chaos
class TestTriggerChaos:
    def test_disarmed_guard_survives_worker_sigkill(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for name in (TRIGGER, TARGET):
                    await client.register_task(**_spec(name))
                await client.install_trigger_plan(PLAN)
                await client.offer_batch(
                    [[TRIGGER, s, 10.0] for s in range(8)])
                await cluster.drain()
                before = await client.trigger_state(TARGET)
                # Pin the recovery snapshot with the guard disarmed.
                await cluster._collect_state()

                target_shard = route(TARGET, SHARDS)
                placement = await client.placement()
                victim = next(w for w, e in placement["workers"].items()
                              if target_shard in e["shards"])
                victim_shards = len(
                    placement["workers"][victim]["shards"])
                await cluster.kill_worker(victim)
                deadline = asyncio.get_running_loop().time() + 15.0
                while cluster.replacements < victim_shards:
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("re-placement timed out")
                    await asyncio.sleep(0.02)
                await cluster.drain()

                after = await client.trigger_state(TARGET)
                plans = await client.trigger_plans()
                # The restored guard can still be re-armed by its trigger
                # (whichever worker the trigger's shard now lives on).
                await client.offer_batch(
                    [[TRIGGER, 8 + i, 90.0] for i in range(3)])
                await cluster.drain()
                rearmed = await client.trigger_state(TARGET)
                return before, after, plans, rearmed
            finally:
                await client.close()

        before, after, plans, rearmed = run_cluster(
            scenario, backend="subprocess", workers=2, shards=SHARDS,
            heartbeat_interval=0.1, heartbeat_misses=2,
            heartbeat_timeout=0.5)
        assert before["state"]["armed"] is False
        assert after["state"]["armed"] is False
        assert after["state"]["trigger"] == TRIGGER
        assert [p["target"] for p in plans["plans"]] == [TARGET]
        assert rearmed["state"]["armed"] is True
