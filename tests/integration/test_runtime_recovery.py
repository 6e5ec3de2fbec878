"""Crash-recovery integration: restart mid-stream, no data loss.

The acceptance bar for the runtime's checkpoint/restore: interrupting the
server in the middle of an ingest run and restarting from the checkpoint
must lose no registered tasks and resume every sampler at its
checkpointed interval/statistics — the recovered run's alerts and sample
counts must equal an uninterrupted run over the same stream.

The deterministic tests run the server in-process on the test's own event
loop: queues are flushed with :meth:`RuntimeServer.drain` (no polling),
graceful restarts use :meth:`RuntimeServer.shutdown`, and hard crashes
use the :meth:`RuntimeServer.abort` fault seam — no wall-clock sleeps or
signal round-trips anywhere, so timing cannot flake them. One slow-marked
smoke test still exercises the real thing: a subprocess over a unix
socket, killed with SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.exceptions import ProtocolError
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.client import AsyncRuntimeClient, RuntimeClient
from repro.runtime.server import RuntimeServer
from repro.service import MonitoringService

REPO_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

TASKS = [f"vm-{i:02d}" for i in range(8)]
THRESHOLD = 100.0
ERR = 0.05
MAX_INTERVAL = 8
STEPS = 400
SPLIT = 200
SHARDS = 4
# Faster adaptation than the paper's defaults so the samplers reach
# non-trivial intervals within the test's 200-step first half.
ADAPTATION = {"patience": 5, "min_samples": 5, "stats_restart": 100}


def make_stream() -> np.ndarray:
    rng = np.random.default_rng(42)
    # Quiet band (so samplers can grow their intervals) plus short bursts
    # crossing the threshold (so alert streams are non-trivial); one burst
    # per half of the run.
    values = rng.normal(70.0, 2.0, (STEPS, len(TASKS)))
    values[40:55] += 38.0
    values[290:305] += 38.0
    return values


def reference_run(stream: np.ndarray, steps: int = STEPS,
                  ) -> MonitoringService:
    service = MonitoringService(AdaptationConfig(**ADAPTATION))
    for name in TASKS:
        service.add_task(name, TaskSpec(threshold=THRESHOLD,
                                        error_allowance=ERR,
                                        max_interval=MAX_INTERVAL))
    for step in range(steps):
        for i, name in enumerate(TASKS):
            service.offer(name, float(stream[step, i]), step)
    return service


def new_server(ckpt: pathlib.Path) -> RuntimeServer:
    return RuntimeServer(
        RuntimeConfig(shards=SHARDS, port=0, checkpoint_path=ckpt,
                      checkpoint_interval=3600.0),
        adaptation=AdaptationConfig(**ADAPTATION))


async def register_all(client: AsyncRuntimeClient) -> None:
    for name in TASKS:
        await client.register_task(name, THRESHOLD, error_allowance=ERR,
                                   max_interval=MAX_INTERVAL)


async def feed(client: AsyncRuntimeClient, stream: np.ndarray, lo: int,
               hi: int) -> None:
    for step in range(lo, hi):
        batch = [[name, step, float(stream[step, i])]
                 for i, name in enumerate(TASKS)]
        reply = await client.offer_batch(batch)
        assert reply["accepted"] == len(batch), reply


def test_graceful_restart_matches_uninterrupted_run(tmp_path):
    stream = make_stream()
    ckpt = tmp_path / "ckpt.json"

    async def scenario():
        # --- Phase 1: serve, register, feed the first half, shut down. --
        server = new_server(ckpt)
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await register_all(client)
            await feed(client, stream, 0, SPLIT)
            await server.drain()
            # Half-time sanity: samplers must have adapted (grown
            # intervals), so the checkpoint carries non-trivial state.
            intervals = {name: (await client.task_info(name))["interval"]
                         for name in TASKS}
            assert any(iv > 1 for iv in intervals.values())
        finally:
            await client.close()
            await server.shutdown()  # drains + flushes the checkpoint
        assert ckpt.exists()

        # --- Phase 2: restart from the checkpoint, feed the rest. ------
        server = new_server(ckpt)
        await server.start()
        assert server.restored_tasks == len(TASKS)
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            # No registered task may be lost across the restart, and each
            # sampler resumes at its checkpointed interval.
            for name in TASKS:
                info = await client.task_info(name)
                assert info["interval"] == intervals[name]
            await feed(client, stream, SPLIT, STEPS)
            await server.drain()

            reference = reference_run(stream)
            for name in TASKS:
                info = await client.task_info(name)
                assert info["samples_taken"] \
                    == reference.samples_taken(name), \
                    f"{name}: sample count diverged after recovery"
                assert info["interval"] == reference.interval(name)
                assert info["next_due"] == reference.next_due(name)
                recovered = await client.alerts(name)
                expected = [[a.time_index, a.value, a.threshold]
                            for a in reference.alerts(name)]
                assert recovered == expected, \
                    f"{name}: alert stream diverged after recovery"
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(scenario())


def test_hard_crash_restores_exact_checkpoint_state(tmp_path):
    """abort() voids post-checkpoint updates; restore is bit-identical."""
    stream = make_stream()
    ckpt = tmp_path / "ckpt.json"

    async def scenario():
        server = new_server(ckpt)
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await register_all(client)
            await feed(client, stream, 0, SPLIT)
            await server.drain()
            await client.checkpoint()
            durable = [state_fingerprint(w.service.snapshot())
                       for w in server._workers]
            # Updates after the checkpoint barrier: voided by the crash.
            await feed(client, stream, SPLIT, SPLIT + 50)
            await server.drain()
            assert [state_fingerprint(w.service.snapshot())
                    for w in server._workers] != durable
        finally:
            await client.close()
            await server.abort()  # hard crash: no drain-flush, no write

        restarted = new_server(ckpt)
        await restarted.start()
        try:
            assert [state_fingerprint(w.service.snapshot())
                    for w in restarted._workers] == durable
            # And the restored state matches a reference run over exactly
            # the pre-checkpoint prefix.
            reference = reference_run(stream, steps=SPLIT)
            client = AsyncRuntimeClient(port=restarted.tcp_port)
            try:
                for name in TASKS:
                    info = await client.task_info(name)
                    assert info["samples_taken"] \
                        == reference.samples_taken(name)
                    assert info["interval"] == reference.interval(name)
            finally:
                await client.close()
        finally:
            await restarted.shutdown()

    asyncio.run(scenario())


def test_fresh_checkpoint_restart_preserves_unfed_tasks(tmp_path):
    """Tasks registered but never offered must survive a restart too."""
    ckpt = tmp_path / "ckpt.json"

    async def scenario():
        server = new_server(ckpt)
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await client.register_task("idle", 50.0)
        finally:
            await client.close()
            await server.shutdown()

        server = new_server(ckpt)
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            info = await client.task_info("idle")
            assert info["samples_taken"] == 0
            with pytest.raises(ProtocolError):
                await client.register_task("idle", 50.0)  # still registered
        finally:
            await client.close()
            await server.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Real-process smoke test (slow tier): SIGTERM against a live subprocess.


def spawn_server(tmp_path: pathlib.Path, sock: pathlib.Path,
                 ckpt: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_SRC}{os.pathsep}" \
        + env.get("PYTHONPATH", "")
    config = tmp_path / "runtime_config.json"
    config.write_text(json.dumps({"adaptation": ADAPTATION}),
                      encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.runtime",
         "--config", str(config),
         "--unix", str(sock), "--port", "0",
         "--shards", str(SHARDS),
         "--checkpoint", str(ckpt),
         "--checkpoint-interval", "3600"],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30
    while not sock.exists():
        if proc.poll() is not None:
            raise AssertionError(
                f"server died at startup:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise AssertionError("server did not come up in 30s")
        time.sleep(0.02)
    return proc


@pytest.mark.slow
def test_sigterm_subprocess_smoke(tmp_path):
    """One real SIGTERM round-trip: the deployment-shaped safety net.

    The deterministic tests above cover the recovery semantics; this one
    only proves the subprocess + signal-handler + unix-socket plumbing
    still works end to end.
    """
    stream = make_stream()
    sock = tmp_path / "runtime.sock"
    ckpt = tmp_path / "ckpt.json"

    proc = spawn_server(tmp_path, sock, ckpt)
    try:
        client = RuntimeClient(unix_socket=sock)
        for name in TASKS:
            client.register_task(name, THRESHOLD, error_allowance=ERR,
                                 max_interval=MAX_INTERVAL)
        for step in range(40):
            batch = [[name, step, float(stream[step, i])]
                     for i, name in enumerate(TASKS)]
            assert client.offer_batch(batch)["accepted"] == len(batch)
        client.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.stdout.read()
        assert ckpt.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    proc = spawn_server(tmp_path, sock, ckpt)
    try:
        client = RuntimeClient(unix_socket=sock)
        # SIGTERM flushed a checkpoint; the restart restored every task.
        for name in TASKS:
            assert client.task_info(name)["ok"]
        client.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
