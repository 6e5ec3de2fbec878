"""Both clients state every op once: one script, two clients, equal values.

:class:`~repro.runtime.client.RuntimeClient` and
:class:`~repro.runtime.client.AsyncRuntimeClient` share each op's body
and differ only in I/O. The script below calls every public op of the
shared body — the binary path (``negotiate``, ``intern``, ``reintern``,
``offer_columns``) and ``offer_batch`` included — on an in-proc cluster
(so the cluster-only ops answer too) through one client and then, on a
second cluster set up alike, through the other; the values, and the
texts of the errors raised, must be equal. A new op needs a row.
"""

from __future__ import annotations

import asyncio
import pathlib
from typing import Any

import numpy as np

from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig
from repro.exceptions import ProtocolError
from repro.runtime.client import (AsyncRuntimeClient, RuntimeClient,
                                  _ConvenienceOps)
from repro.runtime.protocol import OfferReply

PLAN = {"target": "b", "trigger": "a", "elevation_level": 50.0,
        "suspend_interval": 4, "hysteresis": 0.1, "min_hold": 2}

DRAIN = ("<drain>", (), {})

# (op, args, kwargs); DRAIN waits for the shards to apply what was
# offered, so the reads after it do not race the drain loops.
SCRIPT: list[tuple[str, tuple[Any, ...], dict[str, Any]]] = [
    ("ping", (), {}),
    ("register_task", ("a", 100.0), {"error_allowance": 0.0}),
    ("register_task", ("b", 100.0), {"max_interval": 4}),
    ("register_task", ("a", 100.0), {}),
    ("request", ({"op": "task_info", "task": "a"},), {}),
    ("offer_columns", ([0], [0], [1.0]), {}),
    ("negotiate", (), {}),
    ("intern", (["a", "b"],), {}),
    ("intern", (["b", "a"],), {}),
    ("reintern", (), {}),
    ("offer_columns",
     (np.array([0, 1], dtype="<u4"), np.array([0, 0], dtype="<i8"),
      np.array([150.0, 1.0])), {}),
    ("offer_batch", ([["a", 1, 150.0], ["b", 1, 1.0], ["ghost", 1, 0.0]],),
     {}),
    DRAIN,
    ("add_trigger", ("b", "a", 50.0), {}),
    ("add_trigger", ("b", "ghost", 50.0), {}),
    ("install_trigger_plan", (PLAN,), {}),
    ("set_trigger_armed", ("b", False), {}),
    ("set_trigger_armed", ("b", True), {}),
    ("trigger_state", ("b",), {}),
    ("trigger_plans", (), {}),
    ("due", ("a", 5), {}),
    ("task_info", ("a",), {}),
    ("task_info", ("ghost",), {}),
    ("alerts", ("a",), {}),
    ("migrate", (0, "w1"), {}),
    ("placement", (), {}),
    ("checkpoint", (), {}),
    ("stats", (), {}),
    ("telemetry", (), {}),
    ("trace", (0, 4), {}),
    ("remove_task", ("b",), {}),
    DRAIN,
]


def _comparable(op: str, value: Any) -> Any:
    """``value`` without what a run cannot repeat: wall clocks, latency
    histograms and the run's own checkpoint directory."""
    if isinstance(value, OfferReply):
        return {name: getattr(value, name) for name in OfferReply.__slots__}
    if op == "checkpoint":
        return pathlib.Path(value).name
    if op == "telemetry":
        return sorted(value["metrics"])
    if op == "trace":
        return [event["kind"] for event in value["events"]]
    if op == "stats":
        return {k: v for k, v in value.items()
                if k not in ("uptime_s", "checkpoint", "cluster")}
    return value


async def _play(use_sync: bool, tmp: pathlib.Path) -> list[Any]:
    server = ClusterServer(ClusterConfig(
        backend="inproc", workers=2, shards=4, port=0,
        checkpoint_path=tmp / "ops.ckpt"))
    await server.start()
    client: Any = (RuntimeClient(port=server.tcp_port) if use_sync
                   else AsyncRuntimeClient(port=server.tcp_port))
    values = []
    try:
        for op, args, kwargs in SCRIPT:
            if op == DRAIN[0]:
                await server.drain()
                continue
            method = getattr(client, op)
            try:
                if use_sync:
                    value = await asyncio.to_thread(method, *args, **kwargs)
                else:
                    value = await method(*args, **kwargs)
            except ProtocolError as exc:
                value = ("raised", str(exc))
            values.append((op, _comparable(op, value)))
    finally:
        if use_sync:
            await asyncio.to_thread(client.close)
        else:
            await client.close()
        await server.shutdown()
    return values


def test_the_script_calls_every_shared_op():
    ops = {name for name, member in vars(_ConvenienceOps).items()
           if callable(member) and not name.startswith("_")}
    assert ops == {op for op, _, _ in SCRIPT} - {DRAIN[0]}


def test_both_clients_get_equal_values(tmp_path):
    (tmp_path / "sync").mkdir()
    (tmp_path / "async").mkdir()
    on_sync = asyncio.run(_play(True, tmp_path / "sync"))
    on_async = asyncio.run(_play(False, tmp_path / "async"))
    assert on_sync == on_async
    # The rows reached what they name: the binary path was refused
    # before negotiation and taken after it, and every error raised the
    # one text.
    values = [value for _, value in on_sync]
    assert values[3] == ("raised", "'register_task' failed: task 'a' "
                         "already registered (code=bad-request)")
    assert values[5] == ("raised", "binary offers need negotiate() to "
                         "agree on protocol >= 2")
    assert values[6:10] == [2, [0, 1], [1, 0], None]
    assert values[10]["accepted"] == 2 and values[11]["rejected"] == 1
    assert values[12]["plans"] == 1
    assert values[13] == ("raised", "'add_trigger' failed: unknown task "
                          "'ghost' (code=unknown-task)")
    assert values[22] == [[0, 150.0, 100.0], [1, 150.0, 100.0]]
    assert values[23]["fingerprint_match"]
