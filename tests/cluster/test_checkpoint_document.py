"""One checkpoint document for both servers, and one reader (DESIGN.md S26).

Every checkpoint holds ``n_shards``, ``shards`` (``{"<sid>": {"snapshot",
"counters"}}``), ``trigger_plans`` and ``pending``; the cluster adds its
``placement`` hint and the file layer ``checkpoint_version``. Because
nothing else is in it, a runtime's file restores into a cluster and a
cluster's into a runtime: the same shards, routing, plans and answers as
a restore into the server that wrote it.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal

import pytest

from cluster_utils import run_cluster

from repro.cluster.routing import route
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.exceptions import CheckpointError, ReproError
from repro.runtime.checkpoint import (read_checkpoint, state_fingerprint,
                                      write_checkpoint)
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService, snapshot_task_names

SHARDS = 4
TASKS = [f"doc-{i:02d}" for i in range(12)]
TARGET = TASKS[0]
TRIGGER = next(name for name in TASKS[1:]
               if route(name, SHARDS) != route(TARGET, SHARDS))
KEYS = {"n_shards", "shards", "trigger_plans", "pending",
        "checkpoint_version"}
NEVER = 3600.0


def _server(kind: str, path, workers: int = 1, **kwargs):
    common = dict(port=0, shards=SHARDS, checkpoint_path=path,
                  checkpoint_interval=NEVER, **kwargs)
    if kind == "runtime":
        return RuntimeServer(RuntimeConfig(**common))
    return ClusterServer(ClusterConfig(backend="inproc", workers=workers,
                                       heartbeat_interval=NEVER, **common))


async def _write(kind: str, path, workers: int) -> None:
    """Register, guard, offer and checkpoint on a fresh server."""
    server = _server(kind, path, workers)
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        for i, name in enumerate(TASKS):
            await client.register_task(name, 60.0 + i, max_interval=6)
        await client.install_trigger_plan({
            "target": TARGET, "trigger": TRIGGER, "elevation_level": 55.0,
            "suspend_interval": 3, "hysteresis": 0.1, "min_hold": 2})
        await client.offer_batch([[name, step, 40.0 + (step * 7 + i) % 23]
                                  for step in range(60)
                                  for i, name in enumerate(TASKS)])
        await server.drain()
        await client.checkpoint()
    finally:
        await client.close()
        await server.shutdown()


async def _restored(kind: str, source, scratch, workers: int = 1) -> dict:
    """What a restore of ``source`` into a ``kind`` server answers, and
    the shard snapshots it checkpoints straight after."""
    path = scratch / f"{kind}-{workers}.ckpt"
    shutil.copyfile(source, path)
    server = _server(kind, path, workers)
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        facts = {"task_shard": dict(server.task_shard),
                 "restored_tasks": (await client.stats())["restored_tasks"],
                 "plans": await client.trigger_plans(),
                 "info": [await client.task_info(name) for name in TASKS]}
        await client.checkpoint()
    finally:
        await client.close()
        await server.shutdown()
    facts["shards"] = _fingerprints(read_checkpoint(path))
    return facts


def _fingerprints(state: dict) -> dict[str, str]:
    return {sid: state_fingerprint(entry["snapshot"])
            for sid, entry in state["shards"].items()}


@pytest.mark.parametrize("writer, workers, other", [
    ("runtime", 1, "cluster"), ("cluster", 2, "runtime")])
def test_a_checkpoint_restores_into_the_other_server(tmp_path, writer,
                                                     workers, other):
    """A 4-shard runtime's file into a 1-worker cluster, a 2-worker
    cluster's into a runtime: each answers as the writer's own kind does
    from the same file, shard for shard."""
    source = tmp_path / "source.ckpt"

    async def scenario():
        await _write(writer, source, workers)
        same = await _restored(writer, source, tmp_path, workers)
        cross = await _restored(other, source, tmp_path)
        return same, cross

    same, cross = asyncio.run(scenario())
    state = read_checkpoint(source)
    expected = KEYS | ({"placement"} if writer == "cluster" else set())
    assert set(state) == expected
    assert state["pending"] == []
    assert same["shards"] == cross["shards"] == _fingerprints(state)
    assert cross["task_shard"] == same["task_shard"] == {
        name: route(name, SHARDS) for name in TASKS}
    assert cross["restored_tasks"] == same["restored_tasks"] == len(TASKS)
    assert cross["plans"] == same["plans"]
    assert [p["target"] for p in cross["plans"]["plans"]] == [TARGET]
    assert cross["info"] == same["info"]
    observed = [info["observations"] for info in cross["info"]]
    assert observed[1:] == [60] * (len(TASKS) - 1)
    assert 0 < observed[0] < 60  # the guarded target, suspended


def test_a_dead_workers_shards_keep_their_last_known_good_entry(tmp_path):
    """A shard whose worker is dead, with no survivor to re-place it on,
    keeps its collected entry in every later checkpoint."""
    path = tmp_path / "ckpt"
    names = ["dead-a", "dead-b", "dead-c"]
    config = dict(workers=1, shards=2, checkpoint_path=path,
                  checkpoint_interval=NEVER, heartbeat_interval=NEVER)

    async def before(cluster):
        client = AsyncRuntimeClient(port=cluster.tcp_port)
        try:
            for name in names:
                await client.register_task(name, 1e9)
            await client.offer_batch([[name, step, 1.0] for step in range(20)
                                      for name in names])
            await cluster.drain()
            await cluster._collect_state()
            await cluster.kill_worker("w0")
            await cluster._handle_worker_loss("w0")
            await cluster.write_checkpoint()
        finally:
            await client.close()

    async def after(cluster):
        client = AsyncRuntimeClient(port=cluster.tcp_port)
        try:
            return [await client.task_info(name) for name in names]
        finally:
            await client.close()

    run_cluster(before, **config)
    assert sorted(read_checkpoint(path)["shards"]) == ["0", "1"]
    infos = run_cluster(after, **config)
    assert [info["observations"] for info in infos] == [20, 20, 20]


def test_a_registration_after_the_last_collect_is_pending(tmp_path):
    """A quiet fleet's ``pending`` is empty; a task no collected snapshot
    holds yet is logged as registered, and comes back from that log after
    a worker loss and after a restart, under the defaults it was first
    registered with and guarded by the plan installed on it since."""
    path = tmp_path / "ckpt"
    logged_file = tmp_path / "logged.ckpt"
    late = next(f"late-{i}" for i in range(64)
                if route(f"late-{i}", SHARDS) == route(TASKS[0], SHARDS))
    config = dict(workers=2, shards=SHARDS, checkpoint_interval=NEVER,
                  heartbeat_interval=NEVER)

    def max_interval(cluster, name: str) -> int:
        sid = cluster.task_shard[name]
        host = cluster.transports[cluster.routes[sid].worker_id].host
        snapshot = host.shards[sid].service.snapshot()
        return snapshot["spec"]["max_interval"][
            snapshot_task_names(snapshot).index(name)]

    async def scenario(cluster):
        client = AsyncRuntimeClient(port=cluster.tcp_port)
        try:
            await client.register_task(TASKS[0], 60.0)
            await cluster._collect_state()
            quiet = dict(cluster.pending)
            await client.register_task(late, 70.0)
            await client.install_trigger_plan({
                "target": late, "trigger": TASKS[0],
                "elevation_level": 65.0, "suspend_interval": 3})
            logged = dict(cluster.pending)
            victim = cluster.routes[route(late, SHARDS)].worker_id
            await cluster.kill_worker(victim)
            await cluster.write_checkpoint()  # the late task's shard is gone
            shutil.copyfile(path, logged_file)
            await cluster._handle_worker_loss(victim)
            info = await client.task_info(late)
            guard = (await client.trigger_state(late))["state"]
            return quiet, logged, info, guard, max_interval(cluster, late)
        finally:
            await client.close()

    async def restarted(cluster):
        client = AsyncRuntimeClient(port=cluster.tcp_port)
        try:
            return (await client.task_info(late),
                    (await client.trigger_state(late))["state"],
                    max_interval(cluster, late))
        finally:
            await client.close()

    async def run_configured():
        cluster = ClusterServer(
            ClusterConfig(backend="inproc", port=0, checkpoint_path=path,
                          **config),
            service_config={"defaults": {"max_interval": 4}})
        await cluster.start()
        try:
            return await scenario(cluster)
        finally:
            await cluster.shutdown()

    quiet, logged, info, guard, lost_max = asyncio.run(run_configured())
    written = read_checkpoint(logged_file)
    assert quiet == {}
    assert logged == {late: {"max_interval": 4, "name": late,
                             "threshold": 70.0}}
    assert written["pending"] == [logged[late]]
    assert late not in {name for entry in written["shards"].values()
                        for name in snapshot_task_names(entry["snapshot"])}
    assert info["ok"] and lost_max == 4 and guard["trigger"] == TASKS[0]
    # Restarted with no config at all: the log, not today's defaults.
    info, guard, restarted_max = run_cluster(
        restarted, checkpoint_path=logged_file, **config)
    assert info["ok"] and restarted_max == 4
    assert guard["trigger"] == TASKS[0]


def test_collect_passes_do_not_interleave_around_a_registration(tmp_path):
    """A checkpoint's collect snapshots the late task's shard, the task is
    registered, and a heartbeat collect starts: whichever order the two
    passes end in, the written file and the recovery copy still hold the
    task, in ``pending`` or in a snapshot."""
    path = tmp_path / "ckpt"
    late = TASKS[0]
    sid = route(late, SHARDS)

    async def scenario(cluster):
        request = cluster._request
        snapshotted, release = asyncio.Event(), asyncio.Event()

        async def paused(worker_id, payload):
            reply = await request(worker_id, payload)
            if (payload["op"] == "w_snapshot_shard"
                    and payload["shard"] == sid and not snapshotted.is_set()):
                snapshotted.set()  # the checkpoint's pass, past the shard
                await release.wait()
            return reply

        cluster._request = paused
        client = AsyncRuntimeClient(port=cluster.tcp_port)
        try:
            writing = asyncio.create_task(cluster.write_checkpoint())
            await snapshotted.wait()
            await client.register_task(late, 60.0)
            beat = asyncio.create_task(cluster._collect_state())
            await asyncio.wait({beat}, timeout=0.5)
            release.set()
            await asyncio.gather(writing, beat)
            recovered = cluster._recovery[str(sid)]["snapshot"]
            return read_checkpoint(path), (
                late in cluster.pending
                or late in snapshot_task_names(recovered))
        finally:
            await client.close()

    written, kept = run_cluster(scenario, workers=1, shards=SHARDS,
                                checkpoint_path=path,
                                checkpoint_interval=NEVER,
                                heartbeat_interval=NEVER)
    held = {name for entry in written["shards"].values()
            for name in snapshot_task_names(entry["snapshot"])}
    assert late in held or late in [e["name"] for e in written["pending"]]
    assert kept


def test_a_shard_count_mismatch_is_refused_before_any_worker_starts(
        tmp_path):
    path = tmp_path / "ckpt"
    write_checkpoint(path, {"n_shards": 2, "shards": {},
                            "trigger_plans": [], "pending": []})
    server = _server("cluster", path, workers=2)
    with pytest.raises(CheckpointError, match=r"2 shards.*configured with 4"):
        asyncio.run(server.start())
    assert server.transports == {}


def test_a_failed_start_leaves_no_worker_process(tmp_path):
    """A shard snapshot that does not load fails the start after the
    workers spawned; they are shut down before the error propagates."""
    path = tmp_path / "ckpt"
    snapshot = MonitoringService().snapshot()
    snapshot["names"] = ["ghost"]  # columns one short of the names
    write_checkpoint(path, {
        "n_shards": SHARDS, "shards": {"0": {"snapshot": snapshot}},
        "trigger_plans": [], "pending": []})
    server = ClusterServer(ClusterConfig(
        backend="subprocess", workers=2, shards=SHARDS, port=0,
        checkpoint_path=path, runtime_dir=tmp_path / "run"))
    with pytest.raises(ReproError):
        asyncio.run(server.start())
    pids = [t.pid for t in server.transports.values()]
    assert len(pids) == 2 and None not in pids
    orphans = [pid for pid in pids if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert orphans == []


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True
