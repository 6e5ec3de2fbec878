"""Tests for Prometheus text rendering and the telemetry HTTP endpoint."""

from __future__ import annotations

import asyncio
import json

from repro.config import RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.telemetry.exposition import (CONTENT_TYPE_PROMETHEUS,
                                        TelemetryHTTPServer,
                                        render_prometheus)
from repro.telemetry.registry import MetricsRegistry


class TestRenderPrometheus:
    def test_golden_render(self):
        registry = MetricsRegistry()
        registry.counter("volley_frames_total", "Frames decoded",
                         fn=lambda: 7)
        depth = registry.gauge("volley_queue_depth", "Queue depth",
                               labels=("shard",))
        depth.labels(0, fn=lambda: 3.0)
        depth.labels(1, fn=lambda: 0.0)
        lat = registry.histogram("volley_offer_latency_seconds",
                                 "Offer handling latency")
        for v in (0.001, 0.002, 0.004):
            lat.observe(v)
        text = render_prometheus(registry.snapshot())
        lines = text.splitlines()
        assert "# HELP volley_frames_total Frames decoded" in lines
        assert "# TYPE volley_frames_total counter" in lines
        assert "volley_frames_total 7" in lines
        assert "# TYPE volley_queue_depth gauge" in lines
        assert 'volley_queue_depth{shard="0"} 3' in lines
        assert 'volley_queue_depth{shard="1"} 0' in lines
        # Histograms render as summaries: quantile series + _sum/_count.
        assert "# TYPE volley_offer_latency_seconds summary" in lines
        assert any(line.startswith(
            'volley_offer_latency_seconds{quantile="0.5"} ')
            for line in lines)
        assert "volley_offer_latency_seconds_count 3" in lines
        assert any(line.startswith("volley_offer_latency_seconds_sum ")
                   for line in lines)
        assert text.endswith("\n")

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({}) == ""

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("odd_total", "odd", labels=("name",))
        family.labels('he said "hi"\nand \\ left', fn=lambda: 1)
        text = render_prometheus(registry.snapshot())
        assert (r'odd_total{name="he said \"hi\"\nand \\ left"} 1'
                in text.splitlines())

    def test_special_float_values(self):
        snapshot = {
            "weird": {"kind": "gauge", "help": "", "label_names": [],
                      "series": [{"labels": [], "value": float("inf")}]},
        }
        assert "weird +Inf" in render_prometheus(snapshot)


async def _http_get(port: int, target: str,
                    method: str = "GET") -> tuple[int, dict[str, str], str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"{method} {target} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    status_line, *header_lines = head.split("\r\n")
    status = int(status_line.split(" ")[1])
    headers = {}
    for line in header_lines:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


class TestTelemetryHTTPServer:
    def test_routes_and_errors(self):
        async def scenario():
            server = TelemetryHTTPServer({
                "/ok": lambda params: (200, "text/plain",
                                       f"since={params.get('since', '')}\n"),
                "/boom": lambda params: 1 / 0,
            })
            await server.start()
            try:
                ok = await _http_get(server.port, "/ok?since=9")
                missing = await _http_get(server.port, "/nope")
                posted = await _http_get(server.port, "/ok", method="POST")
                broken = await _http_get(server.port, "/boom")
                head = await _http_get(server.port, "/ok", method="HEAD")
                return ok, missing, posted, broken, head
            finally:
                await server.stop()

        ok, missing, posted, broken, head = asyncio.run(scenario())
        assert ok == (200, ok[1], "since=9\n")
        assert ok[1]["content-length"] == str(len("since=9\n"))
        assert ok[1]["connection"] == "close"
        assert missing[0] == 404
        assert posted[0] == 405
        assert broken[0] == 500 and "error" in json.loads(broken[2])
        assert head[0] == 200 and head[2] == ""  # HEAD: headers only


class TestRuntimeHTTPEndpoint:
    @staticmethod
    def _run(scenario):
        async def runner():
            server = RuntimeServer(RuntimeConfig(port=0, shards=2,
                                                 http_port=0))
            await server.start()
            client = AsyncRuntimeClient(port=server.tcp_port)
            try:
                return await scenario(server, client)
            finally:
                await client.close()
                await server.shutdown()

        return asyncio.run(runner())

    def test_metrics_endpoint_serves_prometheus(self):
        async def scenario(server, client):
            await client.register_task("web.cpu", 80.0)
            await client.offer_batch([["web.cpu", t, 10.0]
                                      for t in range(8)])
            for worker in server._workers:
                await worker.drain()
            return await _http_get(server.http_port, "/metrics")

        status, headers, body = self._run(scenario)
        assert status == 200
        assert headers["content-type"] == CONTENT_TYPE_PROMETHEUS
        lines = body.splitlines()
        assert any(line.startswith("volley_frames_total ")
                   and float(line.split()[-1]) > 0 for line in lines)
        assert 'volley_updates_offered_total{shard=' in body
        assert any(line.startswith("volley_tasks ")
                   and float(line.split()[-1]) == 1.0 for line in lines)

    def test_healthz_reports_liveness(self):
        async def scenario(server, client):
            healthy = await _http_get(server.http_port, "/healthz")
            server._shutdown_started = True
            draining = await _http_get(server.http_port, "/healthz")
            server._shutdown_started = False
            return healthy, draining

        healthy, draining = self._run(scenario)
        assert healthy[0] == 200
        payload = json.loads(healthy[2])
        assert payload["ok"] is True and payload["shards"] == 2
        assert draining[0] == 503 and json.loads(draining[2])["ok"] is False

    def test_trace_endpoint_serves_jsonl_with_since(self):
        async def scenario(server, client):
            await client.register_task("a", 5.0)
            await client.register_task("b", 5.0)
            full = await _http_get(server.http_port, "/trace")
            events = [json.loads(line)
                      for line in full[2].splitlines()]
            later = await _http_get(
                server.http_port, f"/trace?since={events[-1]['seq']}")
            bad = [await _http_get(server.http_port, f"/trace?since={since}")
                   for since in ("zzz", "-1")]
            return full, events, later, bad

        full, events, later, bad = self._run(scenario)
        assert full[0] == 200
        assert full[1]["content-type"] == "application/x-ndjson"
        kinds = [e["kind"] for e in events]
        assert kinds.count("task_registered") == 2
        tail = [json.loads(line) for line in later[2].splitlines()]
        assert [e["seq"] for e in tail] == [events[-1]["seq"]]
        assert [reply[0] for reply in bad] == [400, 400]  # -1 was a 500
