"""Shard-transport interface: how the routing tier reaches a shard.

The coordinator speaks to every worker through one small interface —
``start() / request(payload) / close() / alive`` — so where a shard
actually lives is a deployment decision, not an architectural one:

* :class:`InProcTransport` — the worker host runs inside the router
  process and ``request`` is a direct method call on decoded dicts
  (zero-copy; the single-process runtime's behaviour, useful for tests
  and as the degenerate one-worker cluster);
* :class:`SubprocessTransport` — one ``python -m repro.cluster.worker``
  process per worker, reached over a unix-domain socket (the production
  local backend: one event loop per core);
* :class:`TCPTransport` — an externally managed worker on a TCP
  endpoint (remote peers).

All wire transports frame requests with the runtime's length-prefixed
JSON protocol (:mod:`repro.runtime.protocol`) and hold a small connection
pool so offer forwarding and control ops never serialise behind each
other. Failures surface as :class:`~repro.exceptions.ClusterError`; the
coordinator turns data-path failures into shed counts and lets the
heartbeat loop confirm worker death.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import sys
from typing import Any, Protocol

from repro.exceptions import ClusterError, ProtocolError
from repro.runtime.protocol import (OfferColumns, OfferReply,
                                    encode_frame_parts, encode_shard_offer,
                                    read_frame)

from repro.cluster.hosting import WorkerHost

__all__ = ["InProcTransport", "ShardTransport", "SubprocessTransport",
           "TCPTransport"]

READY_TIMEOUT = 15.0
"""Seconds to wait for a spawned worker's ready file."""

CONNECTIONS_PER_WORKER = 2
"""Pooled connections per wire worker: more than one keeps offers
flowing while control ops are in flight."""


class ShardTransport(Protocol):
    """What the coordinator needs from any worker backend."""

    worker_id: str

    async def start(self) -> None:
        """Bring the backend up (spawn/connect); idempotent."""

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/one reply; raises ClusterError when unreachable."""

    async def request_columns(self, segments: list[Any],
                              ) -> tuple[int, int, int]:
        """Forward pre-routed ``(shard, task_idx, steps, values)``
        segments (the one offer forward); returns (accepted, shed,
        rejected)."""

    async def close(self) -> None:
        """Graceful teardown (drains hosted shards where applicable)."""

    @property
    def alive(self) -> bool:
        """Whether the backend is believed reachable."""


class InProcTransport:
    """Zero-copy transport to a :class:`WorkerHost` in this process."""

    def __init__(self, worker_id: str, host: WorkerHost):
        self.worker_id = worker_id
        self.host = host
        self._alive = False

    async def start(self) -> None:
        self.host.start()
        self._alive = True

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        if not self._alive:
            raise ClusterError(f"worker {self.worker_id} is down")
        return await self.host.handle(payload)

    async def request_columns(self, segments: list[Any],
                              ) -> tuple[int, int, int]:
        """Columnar fan-out without any wire encode: arrays pass through."""
        if not self._alive:
            raise ClusterError(f"worker {self.worker_id} is down")
        return self.host.handle_shard_offer(
            [(sid, OfferColumns(idx, steps, values))
             for sid, idx, steps, values in segments])

    async def close(self) -> None:
        if self._alive:
            self._alive = False
            await self.host.close(drain=True)

    async def kill(self) -> None:
        """Simulated crash: abandon queued batches, stop serving."""
        if self._alive:
            self._alive = False
            await self.host.close(drain=False)

    @property
    def alive(self) -> bool:
        return self._alive


class _PooledSocketTransport:
    """Connection-pooled framing over a stream endpoint (unix or TCP)."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self._slots: asyncio.Queue[tuple[Any, Any] | None] = asyncio.Queue()
        for _ in range(CONNECTIONS_PER_WORKER):
            self._slots.put_nowait(None)
        self._closed = False

    async def _open(self) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        raise NotImplementedError

    async def _roundtrip(self, parts: tuple[bytes, bytes],
                         what: str) -> Any:
        """One framed request/reply over a pooled connection."""
        conn = await self._slots.get()
        try:
            if conn is None:
                conn = await self._open()
            reader, writer = conn
            writer.writelines(parts)
            await writer.drain()
            reply = await read_frame(reader)
        except (OSError, ProtocolError, asyncio.IncompleteReadError) as exc:
            # Broken connection: hand the slot back empty so the next
            # request reopens it (the worker may just have restarted a
            # socket; actual death is the heartbeat's call).
            if conn is not None:
                conn[1].close()
            self._slots.put_nowait(None)
            raise ClusterError(
                f"worker {self.worker_id} unreachable during "
                f"{what}: {exc}") from None
        self._slots.put_nowait(conn)
        if reply is None:
            raise ClusterError(
                f"worker {self.worker_id} closed the connection during "
                f"{what}")
        return reply

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        if not self.alive:
            raise ClusterError(f"worker {self.worker_id} is down")
        reply = await self._roundtrip(encode_frame_parts(payload),
                                      repr(payload.get("op")))
        if not isinstance(reply, dict):
            raise ClusterError(
                f"worker {self.worker_id} sent a binary reply to "
                f"{payload.get('op')!r}")
        return reply

    async def request_columns(self, segments: list[Any],
                              ) -> tuple[int, int, int]:
        """Forward ``(shard, task_idx, steps, values)`` segments as one
        binary SHARD_OFFER frame; returns (accepted, shed, rejected)."""
        if not self.alive:
            raise ClusterError(f"worker {self.worker_id} is down")
        reply = await self._roundtrip(encode_shard_offer(segments),
                                      "shard_offer")
        if isinstance(reply, OfferReply):
            return reply.accepted, reply.shed, reply.rejected
        raise ClusterError(
            f"worker {self.worker_id} rejected a shard_offer frame: "
            f"{reply.get('error') if isinstance(reply, dict) else reply}")

    async def _close_pool(self) -> None:
        self._closed = True
        while not self._slots.empty():
            conn = self._slots.get_nowait()
            if conn is not None:
                conn[1].close()
                try:
                    await conn[1].wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    @property
    def alive(self) -> bool:
        return not self._closed


class TCPTransport(_PooledSocketTransport):
    """Transport to an externally started worker on ``host:port``."""

    def __init__(self, worker_id: str, host: str, port: int):
        super().__init__(worker_id)
        self.host = host
        self.port = port

    async def start(self) -> None:
        # Externally managed process; verify reachability with one ping.
        reply = await self.request({"op": "w_ping"})
        if not reply.get("ok"):
            raise ClusterError(
                f"worker {self.worker_id} at {self.host}:{self.port} "
                f"rejected ping: {reply}")

    async def _open(self) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            import socket as _socket
            sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
        return reader, writer

    async def close(self) -> None:
        await self._close_pool()


class SubprocessTransport(_PooledSocketTransport):
    """Spawns and owns one worker process over a unix-domain socket.

    The worker is ``python -m repro.cluster.worker`` with this package's
    source tree prepended to ``PYTHONPATH``, so the cluster works from a
    source checkout without installation. Readiness is signalled through
    a JSON ready file (the same handshake ``python -m repro.runtime``
    uses in CI).
    """

    def __init__(self, worker_id: str, runtime_dir: pathlib.Path,
                 queue_depth: int = 1024, trace_capacity: int = 4096):
        super().__init__(worker_id)
        self.runtime_dir = pathlib.Path(runtime_dir)
        self.queue_depth = queue_depth
        self.trace_capacity = trace_capacity
        self.socket_path = self.runtime_dir / f"{worker_id}.sock"
        self.ready_path = self.runtime_dir / f"{worker_id}.ready.json"
        self.proc: asyncio.subprocess.Process | None = None

    @property
    def pid(self) -> int | None:
        """The worker process id (None before start)."""
        return self.proc.pid if self.proc is not None else None

    async def start(self) -> None:
        if self.proc is not None:
            return
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        for stale in (self.socket_path, self.ready_path):
            if stale.exists():
                stale.unlink()
        import repro
        src_dir = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.cluster.worker",
            "--worker-id", self.worker_id,
            "--unix", str(self.socket_path),
            "--queue-depth", str(self.queue_depth),
            "--trace-capacity", str(self.trace_capacity),
            "--ready-file", str(self.ready_path),
            env=env)
        deadline = asyncio.get_running_loop().time() + READY_TIMEOUT
        while not self.ready_path.exists():
            if self.proc.returncode is not None:
                raise ClusterError(
                    f"worker {self.worker_id} exited with code "
                    f"{self.proc.returncode} before becoming ready")
            if asyncio.get_running_loop().time() > deadline:
                self.proc.kill()
                raise ClusterError(
                    f"worker {self.worker_id} not ready after "
                    f"{READY_TIMEOUT}s")
            await asyncio.sleep(0.02)
        ready = json.loads(self.ready_path.read_text(encoding="utf-8"))
        if ready.get("pid") != self.proc.pid:  # pragma: no cover
            raise ClusterError(
                f"worker {self.worker_id} ready file pid {ready.get('pid')} "
                f"does not match spawned pid {self.proc.pid}")

    async def _open(self) -> tuple[asyncio.StreamReader,
                                   asyncio.StreamWriter]:
        return await asyncio.open_unix_connection(str(self.socket_path))

    @property
    def alive(self) -> bool:
        return (not self._closed and self.proc is not None
                and self.proc.returncode is None)

    async def kill(self) -> None:
        """SIGKILL the worker (chaos testing / CI re-placement check)."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    async def close(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            try:
                await asyncio.wait_for(
                    self.request({"op": "w_shutdown"}), timeout=5.0)
            except (ClusterError, asyncio.TimeoutError):
                self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover
                self.proc.kill()
                await self.proc.wait()
        await self._close_pool()
        for path in (self.socket_path, self.ready_path):
            if path.exists():
                path.unlink()
