"""End-to-end tests for the binary offer path of the ingestion runtime.

Covers negotiation (including the mixed-version client/server matrix and
mid-negotiation disconnects), the per-connection interning table, and the
headline contract of DESIGN.md S31: driving the same stream over JSON and
binary produces bit-identical sampler state, counters and alerts.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.exceptions import ProtocolError
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.protocol import (PROTOCOL_BINARY, PROTOCOL_JSON,
                                    encode_frame_parts,
                                    encode_offer_columns, read_frame)
from repro.runtime.server import RuntimeServer

_HEADER = struct.Struct(">I")


def run_with_server(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("shards", 4)

    async def runner():
        server = RuntimeServer(RuntimeConfig(**config_kwargs))
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.shutdown()

    return asyncio.run(runner())


class TestNegotiation:
    def test_hello_agrees_on_binary(self):
        async def scenario(server, client):
            agreed = await client.negotiate()
            return agreed, client.protocol

        agreed, protocol = run_with_server(scenario)
        assert agreed == PROTOCOL_BINARY
        assert protocol == PROTOCOL_BINARY

    def test_client_asking_for_v1_gets_json(self):
        async def scenario(server, client):
            agreed = await client.negotiate(max_protocol=PROTOCOL_JSON)
            # The connection stays fully usable on JSON.
            await client.register_task("t", 100.0, error_allowance=0.05)
            reply = await client.offer_batch([["t", 0, 50.0]])
            return agreed, client.protocol, reply["accepted"]

        agreed, protocol, accepted = run_with_server(scenario)
        assert agreed == protocol == PROTOCOL_JSON
        assert accepted == 1

    def test_offer_columns_without_negotiation_raises(self):
        async def scenario(server, client):
            await client.register_task("t", 100.0, error_allowance=0.05)
            with pytest.raises(ProtocolError, match="protocol >= 2"):
                await client.offer_columns([0], [0], [1.0])
            return True

        assert run_with_server(scenario)

    def test_legacy_server_without_hello_keeps_client_on_json(self):
        # Simulate a protocol-1 build: every op answers unknown-op. The
        # client's negotiate() must treat that as "stay on JSON", not an
        # error.
        async def runner():
            async def legacy(reader, writer):
                while await read_frame(reader) is not None:
                    writer.writelines(encode_frame_parts(
                        {"ok": False, "error": "unknown op",
                         "code": "unknown-op"}))
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(legacy, host="127.0.0.1")
            port = server.sockets[0].getsockname()[1]
            client = AsyncRuntimeClient(port=port)
            try:
                agreed = await client.negotiate()
                return agreed, client.protocol
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        agreed, protocol = asyncio.run(runner())
        assert agreed == PROTOCOL_JSON
        assert protocol == PROTOCOL_JSON

    def test_binary_offer_before_hello_is_a_protocol_error(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port)
            writer.writelines(encode_offer_columns([0], [0], [1.0]))
            await writer.drain()
            reply = await read_frame(reader)
            writer.close()
            # The rogue connection is refused; the server keeps serving.
            ping = await client.ping()
            return reply, ping

        reply, ping = run_with_server(scenario)
        assert reply["ok"] is False
        assert reply["code"] == "protocol"
        assert ping["ok"] is True

    def test_mid_negotiation_disconnect_leaves_server_healthy(self):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.tcp_port)
            header, body = encode_frame_parts(
                {"op": "hello", "max_protocol": 2})
            # Announce the full hello frame but vanish halfway through it.
            writer.write(header + body[:len(body) // 2])
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            agreed = await client.negotiate()
            await client.register_task("t", 100.0, error_allowance=0.05)
            await client.intern(["t"])
            reply = await client.offer_columns([0], [0], [50.0])
            return agreed, reply.accepted

        agreed, accepted = run_with_server(scenario)
        assert agreed == PROTOCOL_BINARY
        assert accepted == 1


class TestInterning:
    def test_duplicate_intern_is_idempotent(self):
        async def scenario(server, client):
            await client.negotiate()
            for name in ("a", "b"):
                await client.register_task(name, 100.0,
                                           error_allowance=0.05)
            first = await client.intern(["a", "b"])
            second = await client.intern(["b", "a", "b"])
            return first, second

        first, second = run_with_server(scenario)
        assert first == [0, 1]
        assert second == [1, 0, 1]

    def test_reintern_resolves_rows_registered_after_intern(self):
        async def scenario(server, client):
            await client.negotiate()
            # Interned before registration: the first offer after the
            # register re-resolves the connection's table, so it lands;
            # a reintern resolves the same way.
            idx = (await client.intern(["late"]))[0]
            await client.register_task("late", 100.0,
                                       error_allowance=0.05)
            early = await client.offer_columns([idx], [0], [50.0])
            await client.reintern()
            late = await client.offer_columns([idx], [1], [60.0])
            info = await client.task_info("late")
            return early, late, info

        early, late, info = run_with_server(scenario)
        assert early.accepted == 1
        assert late.accepted == 1
        assert info["samples_taken"] == 2

    def test_unregistered_name_rejected_in_reply_like_json_path(self):
        # An interned-but-never-registered name mirrors offer_batch with
        # an unknown task: it is counted ``rejected`` in the frame's own
        # reply and never reaches a shard queue — not a poisoned
        # connection, and the registered name beside it still lands.
        async def scenario(server, client):
            await client.negotiate()
            await client.register_task("t", 100.0, error_allowance=0.05)
            await client.intern(["t", "ghost"])
            reply = await client.offer_columns([0, 1], [0, 0],
                                               [50.0, 50.0])
            await server.drain()
            totals = (await client.stats())["totals"]
            ping = await client.ping()
            return reply, totals, ping

        reply, totals, ping = run_with_server(scenario)
        assert reply.accepted == 1
        assert reply.rejected == 1
        assert totals["offered"] == 1
        assert totals["applied"] == 1
        assert totals["rejected"] == 0
        assert ping["ok"] is True

    def test_invalid_intern_entries_get_error_replies(self):
        async def scenario(server, client):
            await client.negotiate()
            replies = []
            for tasks in ([[1 << 21, "big"]], [[True, "bool"]],
                          [["0", "str"]], [[0]], "nope"):
                replies.append(await client.request(
                    {"op": "intern", "tasks": tasks}))
            ping = await client.ping()
            return replies, ping

        replies, ping = run_with_server(scenario)
        assert all(reply["ok"] is False for reply in replies)
        assert ping["ok"] is True


class TestJsonBinaryEquivalence:
    """The same stream over JSON and binary ends in identical state."""

    TASKS = 12
    STEPS = 160

    async def _drive(self, server, client, binary: bool):
        names = [f"eq-{i:02d}" for i in range(self.TASKS)]
        for name in names:
            await client.register_task(name, 100.0, error_allowance=0.02,
                                       max_interval=8)
        rng = np.random.default_rng(42)
        values = rng.normal(85.0, 14.0, (self.STEPS, self.TASKS))
        if binary:
            assert await client.negotiate() == PROTOCOL_BINARY
            idx = np.asarray(await client.intern(names), dtype=np.uint32)
            for step in range(self.STEPS):
                steps = np.full(self.TASKS, step, dtype=np.int64)
                reply = await client.offer_columns(idx, steps, values[step])
                assert reply.rejected == 0
        else:
            for step in range(self.STEPS):
                batch = [[name, step, float(values[step][i])]
                         for i, name in enumerate(names)]
                reply = await client.offer_batch(batch)
                assert reply.get("rejected", 0) == 0
        deadline = asyncio.get_running_loop().time() + 10
        while True:
            stats = await client.stats()
            if stats["totals"]["applied"] >= self.STEPS * self.TASKS:
                break
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.01)
        infos = {name: await client.task_info(name) for name in names}
        alerts = {name: await client.alerts(name) for name in names}
        return stats["totals"], infos, alerts

    def test_binary_drive_matches_json_drive_bit_for_bit(self):
        def run(binary):
            return run_with_server(
                lambda server, client: self._drive(server, client, binary))

        totals_json, infos_json, alerts_json = run(False)
        totals_bin, infos_bin, alerts_bin = run(True)
        assert totals_bin["applied"] == totals_json["applied"]
        assert totals_bin["consumed"] == totals_json["consumed"]
        assert totals_bin["alerts"] == totals_json["alerts"]
        assert alerts_bin == alerts_json
        for name, info in infos_json.items():
            for key in ("samples_taken", "interval", "next_due",
                        "observations"):
                assert infos_bin[name][key] == info[key], (name, key)

    def test_mixed_json_and_binary_connections_share_state(self):
        # A JSON-only client and a binary client may interleave on the
        # same task: the intern table is per-connection, the state is not.
        async def runner():
            server = RuntimeServer(RuntimeConfig(port=0, shards=2))
            await server.start()
            json_client = AsyncRuntimeClient(port=server.tcp_port)
            bin_client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                await json_client.register_task(
                    "shared", 100.0, error_allowance=0.05)
                await bin_client.negotiate()
                idx = (await bin_client.intern(["shared"]))[0]
                assert (await json_client.offer_batch(
                    [["shared", 0, 40.0]]))["accepted"] == 1
                reply = await bin_client.offer_columns([idx], [1], [45.0])
                assert reply.accepted == 1
                assert (await json_client.offer_batch(
                    [["shared", 2, 50.0]]))["accepted"] == 1
                deadline = asyncio.get_running_loop().time() + 10
                while True:
                    stats = await json_client.stats()
                    if stats["totals"]["applied"] >= 3:
                        break
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                return await json_client.task_info("shared")
            finally:
                await json_client.close()
                await bin_client.close()
                await server.shutdown()

        info = asyncio.run(runner())
        assert info["samples_taken"] == 3
        assert info["observations"] == 3
