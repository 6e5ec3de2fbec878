"""Sharded asyncio ingestion server wrapping MonitoringService shards.

One process, one event loop, ``shards`` independent
:class:`~repro.service.MonitoringService` instances each owned by a
:class:`~repro.runtime.shard.ShardWorker`. Connection handlers parse
frames and route; the only work done inline on the data path is hashing
the task name and a non-blocking queue put — application of updates
happens in the shard drain loops, so a burst on one shard backpressures
that shard alone.

Delivery semantics: an ``offer_batch`` reply with ``accepted == n`` means
the updates are queued on their shards. Batches are applied in arrival
order per shard. On graceful shutdown (SIGTERM/SIGINT or
:meth:`RuntimeServer.shutdown`) the server stops accepting connections,
drains every queue, and flushes a final checkpoint — every acknowledged
update is therefore either applied or persisted. On a hard crash, updates
queued after the last checkpoint are lost (at-most-once); clients that
need stronger guarantees replay from their own cursor.

Correlation triggers are one gate (DESIGN.md S32): a guard on the target
flipped by the arm/disarm edges of a watch on the trigger, installed as
one :class:`~repro.triggers.plan.TriggerPlan` by one path. ``add_trigger``
is ``trigger_install`` of the pair at hysteresis 0 / hold 0, and either
op takes a pair whose ends live on any two shards — or, under the
cluster runtime, any two workers. A service flips the guards it hosts
itself; the shards' host routes every edge between them, as a cluster
worker does its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import pathlib
import sys
from typing import Any

# Module, not name: hosting imports repro.runtime's lower layers, so when
# it is imported first it is still initialising while this module loads.
from repro.cluster import hosting
from repro.cluster.routing import route
from repro.config import RuntimeConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ConfigurationError
from repro.runtime.frontend import (ConnState, WireServer, cli_overrides,
                                    load_config_file, run_cli,
                                    write_ready_file)
from repro.runtime.shard import ColumnBatch, InternedNames, ShardWorker
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.selfmon import SelfMonitor
from repro.telemetry.trace import DecisionTrace
from repro.testkit.faults import FaultHook, NOOP_HOOK
from repro.triggers.plan import count_edge

__all__ = ["RuntimeServer", "main"]


class RuntimeServer(WireServer):
    """The live-ingestion runtime: shards, wire handlers, checkpoints.

    The wire surface is :class:`~repro.runtime.frontend.WireServer`'s;
    this class is its in-process backend. All shards live in one
    :class:`~repro.cluster.hosting.WorkerHost` built on the server's own
    registry and trace, control ops dispatch straight into that host's op
    table, offers go through its enqueue body straight onto the shard
    queues, and its edge router hands each trigger edge to the front
    end's counter — nothing on any path suspends, so a request can never
    interleave with another mid-handler.

    Each server owns one live
    :class:`~repro.telemetry.registry.MetricsRegistry` and one
    :class:`~repro.telemetry.trace.DecisionTrace` ring of
    ``runtime.trace_capacity`` events; there is no un-instrumented mode.

    Args:
        runtime: deployment knobs (shard count, queue depth, listen
            addresses, checkpoint path/interval).
        service_config: optional declarative service config (the
            ``defaults``/``tasks``/``triggers``/``trigger_plans`` root of
            :func:`repro.config.service_from_config`); tasks it declares
            are registered at startup unless a checkpoint already has them.
        adaptation: default adaptation tunables for tasks registered over
            the wire.
        fault_hook: chaos-testing seam (``repro.testkit``). The default
            :data:`~repro.testkit.faults.NOOP_HOOK` injects nothing and
            costs one guarded attribute check per frame/batch.
    """

    def __init__(self, runtime: RuntimeConfig | None = None,
                 service_config: dict[str, Any] | None = None,
                 adaptation: AdaptationConfig | None = None,
                 fault_hook: FaultHook = NOOP_HOOK):
        config = runtime or RuntimeConfig()
        super().__init__(
            config, config.shards, MetricsRegistry(),
            DecisionTrace(config.trace_capacity),
            fault_hook=fault_hook, service_config=service_config)
        self._host = hosting.WorkerHost(
            "runtime", queue_depth=config.queue_depth, adaptation=adaptation,
            registry=self.registry, trace=self.trace, fault_hook=fault_hook,
            edge_sink=lambda event: count_edge(
                self.trigger_plans, self.task_shard, self.trigger_edges,
                event))
        self._workers = [self._host.install_shard(sid)
                         for sid in range(self.n_shards)]

    # ------------------------------------------------------------------
    # Shard plumbing (the in-process backend)

    async def _start_shards(self, shards: dict[str, Any],
                            placement: dict[str, str]) -> None:
        for key, entry in shards.items():
            sid = int(key)
            self._workers[sid] = self._host.install_shard(
                sid, entry["snapshot"], entry.get("counters"))

    async def _collect_shards(self) -> tuple[dict[str, Any], dict[str, Any]]:
        # Awaits nothing: a runtime request never interleaves mid-handler.
        return {str(w.shard_id): {"snapshot": w.service.snapshot(),
                                  "counters": w.stats()}
                for w in self._workers}, {}

    def worker_for(self, name: str) -> ShardWorker:
        """The shard worker a task name routes to."""
        return self._workers[route(name, self.n_shards)]

    async def _shard_call(self, sid: int,
                          payload: dict[str, Any]) -> dict[str, Any]:
        return await self._host.handle(payload)

    def _intern_id(self, name: str, sid: int) -> int:
        # The SoA engine row, the task's for life; a row gone stale
        # (task removed) degrades to the always-correct by-name fallback.
        try:
            return self._workers[sid].service.soa_row_for(name)
        except ConfigurationError:
            return -1

    def _submit_columns(self, conn: ConnState,
                        per_shard: dict[int, tuple[Any, Any, Any]],
                        ) -> tuple[int, int, int]:
        return self._host.enqueue(
            (sid, ColumnBatch(rows=conn.ids[idx], steps=steps, values=values,
                              names=InternedNames(conn.names, idx)))
            for sid, (idx, steps, values) in per_shard.items())

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Restore state, start shard workers, bind listen sockets."""
        await self._restore()
        await self.apply_config(self._service_config)
        self._host.start()
        cfg = self.config
        await self._listen(cfg.unix_socket)
        if cfg.selfmon_interval is not None:
            self.selfmon = SelfMonitor(self)
            self.selfmon.start(cfg.selfmon_interval)

    async def _stop(self, drain: bool) -> None:
        if not await self._stop_serving():
            return
        if self.selfmon is not None:
            await self.selfmon.stop()
        await self._host.close(drain=drain)
        if drain:
            await self._flush_checkpoint()
        if (self.config.unix_socket is not None
                and self.config.unix_socket.exists()):
            self.config.unix_socket.unlink()
        self._done.set()

    async def shutdown(self) -> None:
        """Graceful stop: quiesce, drain every shard, flush a checkpoint."""
        await self._stop(drain=True)

    async def abort(self) -> None:
        """Hard crash: stop everything with no drain and no final flush.

        The counterpart of :meth:`shutdown` for chaos testing — queued
        batches are abandoned and no checkpoint is written, so the next
        incarnation restores exactly the last durable checkpoint
        (at-most-once delivery, as documented in the module docstring).
        """
        await self._stop(drain=False)

    async def drain(self) -> None:
        """Wait until every queued batch on every shard has been applied."""
        for worker in self._workers:
            await worker.drain()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Sharded live-ingestion server for Volley monitoring "
                    "tasks (length-prefixed JSON over TCP/unix socket).")
    parser.add_argument("--config", type=pathlib.Path, default=None,
                        help="JSON config file; may hold a 'runtime' "
                             "section plus defaults/tasks/triggers")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port (0 = ephemeral)")
    parser.add_argument("--unix", dest="unix_socket", type=pathlib.Path,
                        default=None,
                        help="unix-domain socket path to listen on")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--queue-depth", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=None)
    parser.add_argument("--checkpoint", dest="checkpoint_path",
                        type=pathlib.Path, default=None,
                        help="checkpoint file (restored at startup if it "
                             "exists; flushed on shutdown)")
    parser.add_argument("--checkpoint-interval", type=float, default=None,
                        help="seconds between periodic checkpoints")
    parser.add_argument("--http-port", type=int, default=None,
                        help="telemetry HTTP port serving /metrics, "
                             "/healthz and /trace (0 = ephemeral; "
                             "omitted = disabled)")
    parser.add_argument("--selfmon-interval", type=float, default=None,
                        help="seconds between self-monitoring polls "
                             "(omitted = disabled)")
    parser.add_argument("--ready-file", type=pathlib.Path, default=None,
                        help="write {port, unix, http_port, pid} JSON "
                             "once listening")
    return parser


def _runtime_config(args: argparse.Namespace,
                    file_section: dict[str, Any]) -> RuntimeConfig:
    base = RuntimeConfig.from_dict(file_section)
    return dataclasses.replace(base, **cli_overrides(args, base))


async def _run(args: argparse.Namespace) -> None:
    section, adaptation, service_config = load_config_file(args.config,
                                                           "runtime")
    server = RuntimeServer(_runtime_config(args, section),
                           service_config=service_config,
                           adaptation=adaptation)
    await server.start()
    endpoints = []
    if server.tcp_port is not None:
        endpoints.append(f"tcp {server.config.host}:{server.tcp_port}")
    if server.config.unix_socket is not None:
        endpoints.append(f"unix {server.config.unix_socket}")
    if server.http_port is not None:
        endpoints.append(f"http {server.config.host}:{server.http_port}")
    print(f"[runtime] listening on {', '.join(endpoints)} "
          f"({server.config.shards} shards, "
          f"{server.restored_tasks} tasks restored)", flush=True)
    write_ready_file(args.ready_file, {
        "port": server.tcp_port,
        "unix": (str(server.config.unix_socket)
                 if server.config.unix_socket else None),
        "http_port": server.http_port,
        "pid": os.getpid()})
    await server.serve_forever()
    print("[runtime] shut down cleanly", flush=True)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.runtime``)."""
    return run_cli("runtime", _build_parser(), _run, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
