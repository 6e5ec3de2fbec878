"""JSON ≡ binary: an offer's encoding must not change what it does.

Past the wire decode there is one data path, so the same seeded stream
sent once as JSON ``offer_batch`` frames and once as ``intern`` + binary
offer frames must leave a server in the same place: equal per-frame
reply counts, equal ``stats`` counters, equal per-shard snapshot
fingerprints, equal alerts. Checked on a ``RuntimeServer`` and on an
in-proc ``ClusterServer`` that live-migrates a shard mid-stream, with
frames held, unanswered, while it moves.

The stream is hostile on purpose: plain, windowed, quantile, entropy,
locally-triggered and plan-guarded tasks; tasks repeated within a frame;
stale steps; non-finite values; a name nobody registered; a task
registered and one removed while their offers keep coming. The JSON side
additionally spells some steps as floats (integral, and one fractional
that must truncate to the integer the binary side sends).
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np
import pytest

from repro.cluster.routing import route
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer

SHARDS = 4
FRAMES = 60
REGISTER_AT, MIGRATE_AT, REMOVE_AT = 20, 25, 30
HELD_FRAMES = 3

PLAIN = [f"p{i}" for i in range(8)]
_POOL = [f"t{i}" for i in range(64)]
# A same-shard pair for the local trigger pair, found by the routing
# function itself.
LOCAL_TARGET = _POOL[0]
LOCAL_TRIGGER = next(n for n in _POOL[1:]
                     if route(n, SHARDS) == route(LOCAL_TARGET, SHARDS))
TASKS = PLAIN + ["win", "p90", "ent", LOCAL_TARGET, LOCAL_TRIGGER,
                 "guard", "edge", "gone"]
OFFERED = TASKS + ["late", "ghost"]
PLAN = {"target": "guard", "trigger": "edge", "elevation_level": 60.0,
        "suspend_interval": 6, "hysteresis": 0.1, "min_hold": 2}
MOVED_SHARD = route("p0", SHARDS)
# Every kind of task is an engine row for life — the local pair too;
# one of these lives on the shard that migrates.
ON_ROWS = ["p0", "win", "p90", "ent", "guard", "edge", LOCAL_TARGET,
           LOCAL_TRIGGER]
assert MOVED_SHARD in {route(name, SHARDS) for name in ON_ROWS[1:]}


def _frames() -> list[list[tuple[str, int, float]]]:
    """The stream, as frames of ``(name, step, value)``."""
    rng = np.random.default_rng(2013)
    frames = []
    for f in range(FRAMES):
        hot = 20 <= f < 40
        frame = []
        for occurrence in range(2):
            for name in OFFERED:
                if occurrence and rng.random() < 0.6:
                    continue  # some tasks repeat within the frame
                if name in ("edge", LOCAL_TRIGGER):
                    value = (80.0 if hot else 40.0) + rng.normal(0.0, 1.0)
                elif rng.random() < 0.02:
                    value = float(rng.choice([np.nan, np.inf]))
                else:
                    value = rng.normal(90.0, 8.0)
                frame.append((name, 2 * f + occurrence, float(value)))
        if f % 7 == 3:
            frame.append(("p0", max(0, 2 * f - 9), 50.0))  # a stale step
        frames.append(frame)
    return frames


async def _setup(client: AsyncRuntimeClient) -> None:
    spec = {"error_allowance": 0.05, "max_interval": 6}
    for name in TASKS:
        if name == "win":
            await client.register_task(name, 100.0, window=4, **spec)
        elif name == "p90":
            await client.register_task(name, 100.0, type="quantile",
                                       quantile=0.9, sketch_window=32,
                                       **spec)
        elif name == "ent":
            await client.register_task(name, 0.5, type="entropy",
                                       entropy_window=32, **spec)
        else:
            await client.register_task(name, 100.0, **spec)
    await client.add_trigger(LOCAL_TARGET, LOCAL_TRIGGER,
                             elevation_level=60.0, suspend_interval=5)
    await client.install_trigger_plan(PLAN)


def _engine_rows(server: Any, names: list[str]) -> list[int]:
    """Each task's SoA engine row on the shard that hosts it now — as
    the service knows it and as the server's offer path resolves it."""
    rows = []
    for name in names:
        sid = route(name, SHARDS)
        if isinstance(server, ClusterServer):
            host = server.transports[server.routes[sid].worker_id].host
            worker = host.shards[sid]
            row = worker.service.soa_row_for(name)
            if name in host.gid_names:
                gids = np.asarray([host.gid_names.index(name)])
                assert host._rows_for(sid, gids).tolist() == [row]
        else:
            row = server._workers[sid].service.soa_row_for(name)
            assert server._intern_id(name, sid) == row
        rows.append(row)
    return rows


async def _send(client: AsyncRuntimeClient, encoding: str,
                frame: list[tuple[str, int, float]]) -> tuple[int, int, int]:
    if encoding == "json":
        updates: list[list[Any]] = []
        for k, (name, step, value) in enumerate(frame):
            # Integral floats are steps too, and a fractional one
            # truncates to the integer the binary side sends.
            spelled = (float(step) if k % 3 == 0
                       else step + 0.75 if k % 11 == 5 else step)
            updates.append([name, spelled, value])
        reply = await client.offer_batch(updates)
        return reply["accepted"], reply["shed"], reply["rejected"]
    idx = await client.intern([name for name, _, _ in frame])
    reply = await client.offer_columns(idx, [s for _, s, _ in frame],
                                       [v for _, _, v in frame])
    return reply.accepted, reply.shed, reply.rejected


async def _hold_migration(server: ClusterServer) -> tuple[Any, Any]:
    """Start migrating ``MOVED_SHARD`` and hold it at the source
    snapshot, so the frames that follow wait for it to settle."""
    routed = server.routes[MOVED_SHARD]
    source = server.transports[routed.worker_id]
    target = next(w for w in sorted(server.transports)
                  if w != routed.worker_id)
    gate = asyncio.Event()
    forward = source.request

    async def held(payload: dict[str, Any]) -> dict[str, Any]:
        if payload.get("op") == "w_snapshot_shard" and payload.get("drain"):
            await gate.wait()
        return await forward(payload)

    source.request = held
    migration = asyncio.create_task(server.migrate(MOVED_SHARD, target))
    while not routed.moving:
        await asyncio.sleep(0)
    return gate, migration


async def _drive(server: Any, encoding: str) -> dict[str, Any]:
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        await _setup(client)
        # The stream goes down the columnar path: nothing resolves to
        # -1, and no row comes back by name.
        assert min(_engine_rows(server, ON_ROWS)) >= 0
        if encoding == "binary":
            assert await client.negotiate() == 2
        replies = []
        held = None
        sent: list[asyncio.Task] = []
        for f, frame in enumerate(_frames()):
            if f == REGISTER_AT:
                await client.register_task("late", 100.0,
                                           error_allowance=0.05)
            if f == REMOVE_AT:
                await client.remove_task("gone")
            if f == MIGRATE_AT and isinstance(server, ClusterServer):
                held = await _hold_migration(server)
            if held is None:
                replies.append(await _send(client, encoding, frame))
                await server.drain()
                continue
            # Every frame touches the moving shard, so none is answered
            # until the move settles (the client sends them in order).
            sent.append(asyncio.create_task(_send(client, encoding, frame)))
            if len(sent) < HELD_FRAMES:
                continue  # no drain: the held migration would block it
            await asyncio.sleep(0.05)
            assert not any(task.done() for task in sent)
            gate, migration = held
            gate.set()
            moved = await migration
            assert moved["fingerprint_match"]
            replies.extend([await task for task in sent])
            assert min(_engine_rows(server, ON_ROWS)) >= 0
            held = None
            await server.drain()
        assert min(_engine_rows(server, ON_ROWS)) >= 0
        stats = await client.stats()
        fingerprints = []
        for sid in range(SHARDS):
            snap = await server._shard_call(
                sid, {"op": "w_snapshot_shard", "shard": sid,
                      "fingerprint": True})
            fingerprints.append(snap["fingerprint"])
        alerts = {name: await client.alerts(name)
                  for name in TASKS + ["late"] if name != "gone"}
        plans = await client.trigger_plans()
        return {"replies": replies, "shards": stats["shards"],
                "totals": stats["totals"], "fingerprints": fingerprints,
                "alerts": alerts, "edges": plans["edges"],
                "suspensions": plans["suspensions"]}
    finally:
        await client.close()
        await server.shutdown()


def _runtime() -> RuntimeServer:
    return RuntimeServer(RuntimeConfig(port=0, shards=SHARDS))


def _cluster() -> ClusterServer:
    return ClusterServer(ClusterConfig(backend="inproc", workers=2,
                                       shards=SHARDS, port=0))


@pytest.mark.parametrize("make_server", [_runtime, _cluster],
                         ids=["runtime", "cluster-migrating"])
def test_json_and_binary_offers_are_one_path(make_server):
    as_json = asyncio.run(_drive(make_server(), "json"))
    as_binary = asyncio.run(_drive(make_server(), "binary"))
    for key in as_json:
        assert as_json[key] == as_binary[key], key
    # The stream did reach what it is here for.
    totals = as_json["totals"]
    refused_at_the_door = sum(r for _, _, r in as_json["replies"])
    assert refused_at_the_door > FRAMES         # ghost, late, gone
    assert totals["rejected"] > 0               # non-finite values
    assert totals["alerts"] > 0
    assert as_json["edges"]["arm"] and as_json["edges"]["disarm"]
    assert as_json["suspensions"] > 0


# -- a plan within one worker arms inside the drain loop, on both servers -

SAME_SHARD_PLAN = {**PLAN, "target": LOCAL_TARGET, "trigger": LOCAL_TRIGGER}
# Ends on two shards of one worker: shards 0 and 2 share w0 of a
# 2-worker cluster (placement starts round-robin), and a 1-worker
# cluster hosts every shard.
SPLIT_PLAN = {**PLAN,
              "trigger": next(n for n in _POOL if route(n, SHARDS) == 0),
              "target": next(n for n in _POOL if route(n, SHARDS) == 2)}


async def _guard_a_stream(server: Any, plan: dict[str, Any],
                          ) -> tuple[list[tuple[Any, ...]], tuple[Any, ...]]:
    """One guarded stream through ``plan``; after each frame, the
    target's guard and schedule — with nothing in between that would
    pump a cluster's edge outboxes (no ``drain``, no ``trigger_plans``,
    and the heartbeat an hour away). Then one ``trigger_plans`` (which
    pumps a cluster) and the target once more, with the edge counts."""
    target, trigger = plan["target"], plan["trigger"]
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)

    async def observe() -> tuple[Any, ...]:
        state = (await client.trigger_state(target))["state"]
        info = await client.task_info(target)
        return (state["armed"], state["suspensions"], info["next_due"],
                info["samples_taken"])

    try:
        for name in (target, trigger):
            await client.register_task(name, 100.0, error_allowance=0.05,
                                       max_interval=6)
        await client.install_trigger_plan(plan)
        seen = []
        for step in range(48):
            hot = (step // 8) % 2
            await client.offer_batch([[trigger, step, 80.0 if hot else 40.0],
                                      [target, step, 50.0]])
            for sid in dict.fromkeys(route(n, SHARDS)
                                     for n in (trigger, target)):
                await server._shard_call(sid, {"op": "w_drain",
                                               "shard": sid})
            seen.append((step, *await observe()))
        edges = (await client.trigger_plans())["edges"]
        return seen, (*await observe(), edges)
    finally:
        await client.close()
        await server.shutdown()


def _cluster_between_beats(workers: int) -> ClusterServer:
    return ClusterServer(ClusterConfig(
        backend="inproc", workers=workers, shards=SHARDS, port=0,
        heartbeat_interval=3600.0))


def test_a_same_shard_plan_needs_no_pump():
    """Every guard on the worker that raised an edge flips inside the
    drain loop — its own shard's by the service, the worker's other
    shards' by the worker — and the closing pump delivers nothing there
    again."""
    for plan, fleets in ((SAME_SHARD_PLAN, (2,)), (SPLIT_PLAN, (1, 2))):
        on_runtime = asyncio.run(_guard_a_stream(_runtime(), plan))
        for workers in fleets:
            on_cluster = asyncio.run(_guard_a_stream(
                _cluster_between_beats(workers), plan))
            assert on_cluster == on_runtime, (plan["target"], workers)
        # The edges fell where the trigger crossed its band — disarm on
        # the first cold offer, arm on the first hot one, and so on — and
        # an arm edge made the target due at once.
        seen, final = on_runtime
        flips = [step for (step, armed, *_), (_, was, *_) in zip(
            seen[1:], seen) if armed != was]
        assert not seen[0][1] and flips == [8, 16, 24, 32, 40]
        assert seen[8][3] == 9 and seen[-1][2] > 3
        assert final[:-1] == seen[-1][1:]
        assert final[-1] == {"arm": 3, "disarm": 3}
