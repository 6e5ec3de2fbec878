"""End-to-end wire tests for sketch-backed task types (DESIGN.md S29).

Quantile and entropy tasks must work through the *runtime*, not just the
service object: registered over the JSON control path with typed config
keys, fed through offer batches (which fall back to the scalar by-name
path — typed tasks are not SoA-eligible), adapting and alerting on the
derived statistic, and surviving checkpoint → restart bit-identically
including the substrate's sketch/window state.
"""

from __future__ import annotations

import asyncio

from repro.config import RuntimeConfig
from repro.runtime.checkpoint import read_checkpoint, state_fingerprint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.cluster.routing import route


def run_with_server(coro_factory, **config_kwargs):
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("shards", 2)

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


async def _drain(server):
    for worker in server._workers:
        await worker.drain()


class TestQuantileOverTheWire:
    def test_register_offer_adapt_alert(self):
        async def scenario(server, client):
            reply = await client.register_task(
                "q", 80.0, type="quantile", quantile=0.9,
                sketch_window=32, error_allowance=0.01, max_interval=6)
            assert reply["ok"] and reply["type"] == "quantile"
            # Calm: everything far below the SLO -> exceedance 0.
            await client.offer_batch(
                [["q", step, 40.0] for step in range(100)])
            await _drain(server)
            calm_info = await client.alerts("q")
            # Regression: every observation above -> exceedance -> 1.
            await client.offer_batch(
                [["q", 100 + i, 200.0] for i in range(60)])
            await _drain(server)
            return calm_info, await client.alerts("q"), \
                await client.task_info("q")

        calm_alerts, alerts, info = run_with_server(scenario)
        assert calm_alerts == []
        assert alerts, "regression must raise quantile alerts"
        assert all(step >= 100 for step, *_ in alerts)
        # Alerts are reported in the *value* frame: the raw SLO as the
        # threshold and the estimated p90 as the violating value, even
        # though detection ran on the derived exceedance stream.
        assert all(threshold == 80.0 for *_, threshold in alerts)
        assert alerts[-1][1] > 80.0
        assert info["type"] == "quantile"
        # The p90 estimate reflects the regression regime.
        assert info["estimate"] > 80.0

    def test_checkpoint_restart_is_bit_identical(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task(
                "q", 80.0, type="quantile", quantile=0.9,
                sketch_window=16, error_allowance=0.01, max_interval=6)
            # Stop mid-epoch (37 % 16 != 0) so rotation state matters.
            await client.offer_batch(
                [["q", step, 40.0 + (step % 7) * 30.0]
                 for step in range(37)])
            await _drain(server)
            await client.checkpoint()
            return await client.task_info("q"), await client.alerts("q")

        info, alerts = run_with_server(scenario, checkpoint_path=path,
                                       checkpoint_interval=3600.0)

        async def restart():
            server = RuntimeServer(RuntimeConfig(
                port=0, shards=2, checkpoint_path=path,
                checkpoint_interval=3600.0))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                shard = route("q", 2)
                fingerprint = state_fingerprint(
                    server._workers[shard].service.snapshot())
                return (server.restored_tasks, fingerprint,
                        await client.task_info("q"),
                        await client.alerts("q"))
            finally:
                await client.close()
                await server.shutdown()

        restored_count, fingerprint, restored_info, restored_alerts = \
            asyncio.run(restart())
        assert restored_count == 1
        assert restored_info == info
        assert restored_alerts == alerts
        checkpoint_state = read_checkpoint(path)
        assert fingerprint \
            == state_fingerprint(checkpoint_state["shards"][
                str(route("q", 2))]["snapshot"])


class TestEntropyOverTheWire:
    def test_register_offer_adapt_alert(self):
        async def scenario(server, client):
            reply = await client.register_task(
                "h", 1.5, type="entropy", entropy_window=16,
                bin_width=1.0, direction="lower",
                error_allowance=0.01, max_interval=6)
            assert reply["ok"] and reply["type"] == "entropy"
            # Diverse symbols: windowed entropy sits at log2(16) = 4.
            await client.offer_batch(
                [["h", step, float(step % 16)] for step in range(80)])
            await _drain(server)
            info_healthy = await client.task_info("h")
            # Flood of identical symbols: entropy drains toward zero.
            await client.offer_batch(
                [["h", 80 + i, 7.0] for i in range(40)])
            await _drain(server)
            return (info_healthy, await client.task_info("h"),
                    await client.alerts("h"))

        healthy, flooded, alerts = run_with_server(scenario)
        assert healthy["type"] == "entropy"
        assert healthy["estimate"] == 4.0
        assert flooded["estimate"] == 0.0
        # Cold-start alerts (a partial window legitimately has low
        # entropy) are allowed; the flood must alert as well.
        assert any(step >= 80 for step, *_ in alerts)

    def test_checkpoint_restart_is_bit_identical(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(server, client):
            await client.register_task(
                "h", 1.5, type="entropy", entropy_window=12,
                bin_width=2.0, direction="lower",
                error_allowance=0.01, max_interval=6)
            # Stop with a partially diverse window in flight.
            await client.offer_batch(
                [["h", step, float((step * 3) % 10)]
                 for step in range(29)])
            await _drain(server)
            await client.checkpoint()
            return await client.task_info("h"), await client.alerts("h")

        info, alerts = run_with_server(scenario, checkpoint_path=path,
                                       checkpoint_interval=3600.0)

        async def restart():
            server = RuntimeServer(RuntimeConfig(
                port=0, shards=2, checkpoint_path=path,
                checkpoint_interval=3600.0))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                return (await client.task_info("h"),
                        await client.alerts("h"))
            finally:
                await client.close()
                await server.shutdown()

        restored_info, restored_alerts = asyncio.run(restart())
        assert restored_info == info
        assert restored_alerts == alerts


class TestTypedTelemetry:
    def test_tasks_by_type_gauge_counts_each_kind(self):
        async def scenario(server, client):
            await client.register_task("v", 100.0)
            await client.register_task("q", 80.0, type="quantile",
                                       quantile=0.99)
            await client.register_task("h", 1.0, type="entropy",
                                       direction="lower")
            snapshot = server.registry.snapshot()
            family = snapshot["volley_tasks_by_type"]
            return {series["labels"][0]: series["value"]
                    for series in family["series"]}

        gauges = run_with_server(scenario)
        assert gauges["value"] == 1.0
        assert gauges["quantile"] == 1.0
        assert gauges["entropy"] == 1.0
