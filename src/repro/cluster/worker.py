"""Cluster worker process: ``python -m repro.cluster.worker``.

One event loop hosting a :class:`~repro.cluster.hosting.WorkerHost`
behind the runtime's length-prefixed JSON framing, listening on a
unix-domain socket (the ``subprocess`` backend) and/or a TCP port (the
``tcp`` backend for remote peers). The coordinator is the only intended
client, but the protocol is the same one ``repro.runtime`` speaks, so a
worker is debuggable with the ordinary tooling.

Lifecycle: the worker writes a ``{pid, unix, port}`` ready file once
listening, then serves until it receives ``w_shutdown`` (graceful: every
hosted shard drains its queue first) or SIGTERM. SIGKILL is the chaos
path — queued batches die with the process and the coordinator recovers
the shards from the last cluster checkpoint, exactly the at-most-once
contract the single-process runtime documents.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import os
import pathlib
import sys

from repro.cluster.hosting import WorkerHost
from repro.exceptions import ProtocolError, ReproError
from repro.runtime.frontend import (listen, run_cli, stop_listening,
                                    until_signalled, write_ready_file)
from repro.runtime.protocol import (ShardOffer, encode_frame_parts,
                                    encode_offer_reply, read_frame)

__all__ = ["ClusterWorker", "main"]

logger = logging.getLogger(__name__)


class ClusterWorker:
    """The serving shell around one :class:`WorkerHost`."""

    def __init__(self, worker_id: str, queue_depth: int = 1024,
                 trace_capacity: int = 4096):
        self.host = WorkerHost(worker_id, queue_depth=queue_depth,
                               trace_capacity=trace_capacity)
        self._servers: list[asyncio.AbstractServer] = []
        self._shutdown = asyncio.Event()
        self._tcp_port: int | None = None

    @property
    def tcp_port(self) -> int | None:
        return self._tcp_port

    async def start(self, unix_socket: pathlib.Path | None,
                    host: str, port: int | None) -> None:
        self.host.start()
        self._servers, self._tcp_port = await listen(
            self._on_connection, host, port, unix_socket)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    writer.writelines(encode_frame_parts(
                        {"ok": False, "error": str(exc), "code": "protocol"}))
                    await writer.drain()
                    break
                if request is None:
                    break
                if isinstance(request, ShardOffer):
                    # Pre-routed columnar fan-out from the coordinator.
                    # No negotiation dance worker-side: the coordinator
                    # only sends binary to workers it spawned/configured.
                    a, s, r = self.host.handle_shard_offer(request.segments)
                    writer.writelines(encode_offer_reply(
                        a, s, r, backpressure=s > 0, retry_after_ms=0))
                    await writer.drain()
                    continue
                if not isinstance(request, dict):
                    writer.writelines(encode_frame_parts(
                        {"ok": False, "error": "unexpected binary frame "
                         "kind", "code": "protocol"}))
                    await writer.drain()
                    break
                if request.get("op") == "w_shutdown":
                    # ACK first, then begin teardown: the coordinator's
                    # close() wants a reply before waiting on the process.
                    writer.writelines(encode_frame_parts(
                        {"ok": True, "shutdown": True}))
                    await writer.drain()
                    self._shutdown.set()
                    continue
                reply = await self.host.handle(request)
                writer.writelines(encode_frame_parts(reply))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def run_until_shutdown(self) -> None:
        await until_signalled(self._shutdown, self._shutdown.set)
        await stop_listening(self._servers)
        await self.host.close(drain=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="One cluster worker process hosting monitoring shards "
                    "for a repro.cluster coordinator.")
    parser.add_argument("--worker-id", required=True)
    parser.add_argument("--unix", type=pathlib.Path, default=None,
                        help="unix-domain socket to listen on")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="TCP port to listen on (0 = ephemeral)")
    parser.add_argument("--queue-depth", type=int, default=1024)
    parser.add_argument("--trace-capacity", type=int, default=4096)
    parser.add_argument("--ready-file", type=pathlib.Path, default=None,
                        help="write {pid, unix, port} JSON once listening")
    return parser


async def _run(args: argparse.Namespace) -> None:
    if args.unix is None and args.port is None:
        raise ReproError("worker needs --unix and/or --port to listen on")
    worker = ClusterWorker(args.worker_id, queue_depth=args.queue_depth,
                           trace_capacity=args.trace_capacity)
    await worker.start(args.unix, args.host, args.port)
    write_ready_file(args.ready_file, {
        "pid": os.getpid(),
        "worker_id": args.worker_id,
        "unix": str(args.unix) if args.unix is not None else None,
        "port": worker.tcp_port})
    await worker.run_until_shutdown()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.cluster.worker``)."""
    return run_cli("cluster-worker", _build_parser(), _run, argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
