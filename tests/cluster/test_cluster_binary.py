"""Binary offer path through the cluster front door.

The cluster server negotiates the same protocol as the single-process
runtime, routes decoded columns to workers, and must land on exactly the
state a JSON drive of the same stream produces — the S31 equivalence
contract does not stop at the routing tier.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from cluster_utils import run_cluster

from repro.config import RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.protocol import PROTOCOL_BINARY
from repro.runtime.server import RuntimeServer

TASKS = 8
STEPS = 60


def _values() -> np.ndarray:
    rng = np.random.default_rng(17)
    return rng.normal(86.0, 13.0, (STEPS, TASKS))


async def _drive(server, binary: bool) -> dict:
    names = [f"clu-{i:02d}" for i in range(TASKS)]
    values = _values()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        for name in names:
            reply = await client.register_task(
                name, 100.0, error_allowance=0.02, max_interval=8)
            assert reply["ok"], reply
        if binary:
            assert await client.negotiate() == PROTOCOL_BINARY
            idx = np.asarray(await client.intern(names), dtype=np.uint32)
            for step in range(STEPS):
                steps = np.full(TASKS, step, dtype=np.int64)
                reply = await client.offer_columns(idx, steps, values[step])
                assert reply.rejected == 0
        else:
            for step in range(STEPS):
                batch = [[name, step, float(values[step][i])]
                         for i, name in enumerate(names)]
                reply = await client.offer_batch(batch)
                assert reply.get("rejected", 0) == 0
        deadline = asyncio.get_running_loop().time() + 15
        while True:
            stats = await client.stats()
            if stats["totals"]["applied"] >= STEPS * TASKS:
                break
            assert asyncio.get_running_loop().time() < deadline, stats
            await asyncio.sleep(0.01)
        infos = {name: await client.task_info(name) for name in names}
        alerts = {name: await client.alerts(name) for name in names}
        return {"totals": stats["totals"], "infos": infos,
                "alerts": alerts}
    finally:
        await client.close()


async def _on_runtime(scenario):
    server = RuntimeServer(RuntimeConfig(port=0))
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.shutdown()


class TestClusterBinary:
    def test_negotiate_intern_offer_columns_end_to_end(self):
        async def scenario(server):
            return await _drive(server, binary=True)

        observed = run_cluster(scenario, workers=2)
        assert observed["totals"]["applied"] == STEPS * TASKS
        assert observed["totals"]["rejected"] == 0
        assert sum(len(v) for v in observed["alerts"].values()) > 0

    def test_binary_drive_matches_json_drive(self):
        def run(binary):
            return run_cluster(lambda server: _drive(server, binary),
                               workers=2)

        json_side = run(False)
        bin_side = run(True)
        assert bin_side["totals"]["applied"] \
            == json_side["totals"]["applied"]
        assert bin_side["totals"]["consumed"] \
            == json_side["totals"]["consumed"]
        assert bin_side["totals"]["alerts"] == json_side["totals"]["alerts"]
        assert bin_side["alerts"] == json_side["alerts"]
        for name, info in json_side["infos"].items():
            for key in ("samples_taken", "interval", "next_due",
                        "observations"):
                assert bin_side["infos"][name][key] == info[key], \
                    (name, key)

    @pytest.mark.parametrize("kind", ["cluster", "runtime"])
    def test_unregistered_interned_name_rejected_in_ack(self, kind):
        # Both servers resolve interned names at the front door, so a
        # name with no registered task is rejected in the reply itself.
        async def scenario(server):
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                await client.register_task("real", 100.0,
                                           error_allowance=0.05)
                await client.negotiate()
                await client.intern(["real", "phantom"])
                reply = await client.offer_columns([0, 1], [0, 0],
                                                   [50.0, 50.0])
                deadline = asyncio.get_running_loop().time() + 15
                while True:
                    totals = (await client.stats())["totals"]
                    if totals["applied"] >= 1:
                        break
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                info = await client.task_info("real")
                return reply, totals, info
            finally:
                await client.close()

        if kind == "cluster":
            reply, totals, info = run_cluster(scenario, workers=2)
        else:
            reply, totals, info = asyncio.run(_on_runtime(scenario))
        assert reply.accepted == 1
        assert reply.rejected == 1
        assert totals["applied"] == 1
        assert totals["rejected"] == 0  # no shard saw the phantom
        assert info["samples_taken"] == 1


FIRST_OFFER = """
import asyncio, sys
import numpy as np
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig
from repro.runtime.client import AsyncRuntimeClient

async def main():
    server = ClusterServer(ClusterConfig(backend="inproc", workers=2,
                                         port=0))
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        names = ["ma-0", "ma-1", "ma-2"]
        for name in names:
            assert (await client.register_task(name, 100.0))["ok"]
        await client.negotiate()
        idx = np.asarray(await client.intern(names), dtype=np.uint32)
        before = "numpy.ma" in sys.modules
        reply = await client.offer_columns(
            idx, np.zeros(3, dtype=np.int64), np.array([1.0, 2.0, 3.0]))
        assert reply.accepted == 3, reply
        while (await client.stats())["totals"]["applied"] < 3:
            await asyncio.sleep(0.01)
        print(before, "numpy.ma" in sys.modules)
    finally:
        await client.close()
        await server.shutdown()

asyncio.run(main())
"""


def test_a_first_offer_imports_no_numpy_ma():
    """Resolving a frame's gids to rows must not pull in ``numpy.ma``
    (``np.unique`` imports it on first use: ~1.3 MB resident)."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    out = subprocess.run([sys.executable, "-c", FIRST_OFFER], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
