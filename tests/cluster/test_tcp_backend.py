"""The ``tcp`` backend end to end: externally started worker processes.

Every other cluster test runs the ``inproc`` or ``subprocess`` backend;
this one starts two ``python -m repro.cluster.worker --port 0`` processes
itself, points a ``ClusterServer(backend="tcp")`` at their endpoints and
drives it through the wire: registrations, binary offers, a live
migration with its fingerprint gate, a checkpoint, and a restart of the
router and both workers from that checkpoint that must come back with
every shard's state and the moved placement.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import subprocess
import sys
import time
from typing import Any, Iterator

import numpy as np
import pytest

from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig
from repro.runtime.checkpoint import read_checkpoint, state_fingerprint
from repro.runtime.client import AsyncRuntimeClient

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
SHARDS = 4
TASKS = [f"tcp-{i:02d}" for i in range(32)]
STEPS = 200


def _start_worker(worker_id: str, ready: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cluster.worker",
         "--worker-id", worker_id, "--port", "0",
         "--ready-file", str(ready)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)


def _wait_ready(proc: subprocess.Popen, ready: pathlib.Path) -> int:
    deadline = time.monotonic() + 30
    while not ready.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"worker died at startup:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            raise AssertionError("worker did not come up in 30s")
        time.sleep(0.02)
    return int(json.loads(ready.read_text())["port"])


@pytest.fixture
def start_workers(tmp_path: pathlib.Path) -> Iterator[Any]:
    """``start_workers(tag)`` starts w0 and w1 and returns their
    ``host:port`` endpoints; every worker started is stopped after."""
    procs: list[subprocess.Popen] = []

    def start(tag: str) -> tuple[str, ...]:
        started = []
        for wid in ("w0", "w1"):
            ready = tmp_path / f"{tag}-{wid}.json"
            procs.append(_start_worker(wid, ready))
            started.append((procs[-1], ready))
        return tuple(f"127.0.0.1:{_wait_ready(proc, ready)}"
                     for proc, ready in started)

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _cluster(endpoints: tuple[str, ...],
             checkpoint: pathlib.Path) -> ClusterServer:
    return ClusterServer(ClusterConfig(
        backend="tcp", workers=2, worker_endpoints=endpoints,
        shards=SHARDS, port=0, checkpoint_path=checkpoint))


async def _first_run(endpoints: tuple[str, ...],
                     checkpoint: pathlib.Path) -> dict[str, Any]:
    server = _cluster(endpoints, checkpoint)
    await server.start()
    try:
        async with AsyncRuntimeClient(port=server.tcp_port) as client:
            for name in TASKS:
                await client.register_task(name, 90.0, error_allowance=0.05,
                                           max_interval=8)
            await client.negotiate()
            idx = np.asarray(await client.intern(TASKS), dtype="<u4")
            rng = np.random.default_rng(3)
            accepted = 0
            for step in range(STEPS):
                reply = await client.offer_columns(
                    idx, np.full(len(idx), step, dtype="<i8"),
                    rng.normal(60.0, 15.0, len(idx)))
                accepted += reply.accepted
            await server.drain()
            source = next(wid for wid, entry in
                          (await client.placement())["workers"].items()
                          if 0 in entry["shards"])
            target = "w1" if source == "w0" else "w0"
            moved = await client.migrate(0, target)
            await client.checkpoint()
            stats = await client.stats()
            placement = await client.placement()
    finally:
        await server.shutdown()
    return {"accepted": accepted, "source": source, "target": target,
            "moved": moved, "stats": stats, "placement": placement}


async def _restarted(endpoints: tuple[str, ...],
                     checkpoint: pathlib.Path) -> dict[str, Any]:
    server = _cluster(endpoints, checkpoint)
    await server.start()
    try:
        async with AsyncRuntimeClient(port=server.tcp_port) as client:
            await client.checkpoint()
            return {"stats": await client.stats(),
                    "placement": await client.placement()}
    finally:
        await server.shutdown()


def _fingerprints(checkpoint: pathlib.Path) -> dict[str, str]:
    state = read_checkpoint(checkpoint)
    return {sid: state_fingerprint(entry["snapshot"])
            for sid, entry in state["shards"].items()}


def test_tcp_workers_migrate_checkpoint_and_restart(start_workers,
                                                     tmp_path):
    checkpoint = tmp_path / "tcp.ckpt"
    first = asyncio.run(_first_run(start_workers("first"), checkpoint))
    offers = len(TASKS) * STEPS
    assert first["accepted"] == offers
    assert first["stats"]["totals"]["applied"] == offers
    assert first["stats"]["restored_tasks"] == 0
    assert first["moved"]["ok"] and first["moved"]["fingerprint_match"]
    assert (first["moved"]["from"], first["moved"]["to"]) == (
        first["source"], first["target"])
    assert 0 in first["placement"]["workers"][first["target"]]["shards"]
    assert read_checkpoint(checkpoint)["placement"]["0"] == first["target"]
    before = _fingerprints(checkpoint)
    assert len(before) == SHARDS

    # A fresh router over fresh workers: the checkpoint is all they share.
    again = asyncio.run(_restarted(start_workers("again"), checkpoint))
    assert again["stats"]["restored_tasks"] == len(TASKS)
    assert again["stats"]["totals"]["applied"] == offers
    assert 0 in again["placement"]["workers"][first["target"]]["shards"]
    assert _fingerprints(checkpoint) == before
