"""Sync and asyncio clients for the ingestion runtime.

Both clients speak one request/one reply over a single connection (the
server replies in order, so no correlation ids are needed). Error replies
(``ok: false``) raise :class:`~repro.exceptions.ProtocolError` — with the
deliberate exception of backpressure: a shed batch is an expected
operating condition, so :meth:`~_ConvenienceOps.offer_batch` returns the
reply dict and the caller decides whether to retry after
``retry_after_ms`` or drop.

Every op is written once, in :class:`_ConvenienceOps`; the two clients
differ only in I/O. The sync :class:`RuntimeClient` exists for collection
pipelines that are not asyncio programs (cron collectors, WSGI hooks, the
load generator); the :class:`AsyncRuntimeClient` is for event-loop-native
integrations.
"""

from __future__ import annotations

import asyncio
import pathlib
import socket
from typing import Any, Callable, Sequence

from repro.exceptions import ProtocolError
from repro.runtime.protocol import (PROTOCOL_BINARY, PROTOCOL_JSON,
                                    PROTOCOL_VERSION, OfferReply,
                                    encode_frame_parts,
                                    encode_offer_columns, read_frame,
                                    read_frame_blocking)

__all__ = ["AsyncRuntimeClient", "RuntimeClient"]

Update = Sequence[Any]  # [task, step, value]
Pick = Callable[[Any], Any]


def _failure(reply: Any, op: str) -> ProtocolError:
    if not isinstance(reply, dict):
        return ProtocolError(
            f"unexpected {type(reply).__name__} reply to {op!r}")
    return ProtocolError(
        f"{op!r} failed: {reply.get('error', 'unknown error')} "
        f"(code={reply.get('code', '?')})")


def _check_reply(reply: Any, op: str) -> dict[str, Any]:
    if isinstance(reply, dict) and reply.get("ok"):
        return reply
    raise _failure(reply, op)


def _whole(reply: Any) -> Any:
    return reply


def _offer_reply(reply: Any) -> OfferReply:
    if isinstance(reply, OfferReply):
        return reply
    raise _failure(reply, "binary offer")


class _ConvenienceOps:
    """Every op both clients offer, each stated once.

    A method builds its request frame and hands ``(parts, pick)`` to
    ``_exchange``; ``pick`` takes the reply to the method's value. An op
    with nothing to send hands its value to ``_done`` instead.
    :class:`RuntimeClient` answers with that value,
    :class:`AsyncRuntimeClient` with a coroutine of it — the annotations
    below name the value either way. A request is built (and the intern
    table updated) when the method is called.
    """

    def __init__(self, host: str, port: int,
                 unix_socket: str | pathlib.Path | None):
        self._host = host
        self._port = port
        self._unix = None if unix_socket is None else str(unix_socket)
        self._protocol = PROTOCOL_JSON
        self._intern: dict[str, int] = {}

    def _exchange(self, parts: tuple[bytes, bytes], pick: Pick) -> Any:
        """Send one frame, read its reply and return ``pick(reply)``."""
        raise NotImplementedError

    def _done(self, value: Any) -> Any:
        """``value``, as an op that needed no I/O returns it."""
        raise NotImplementedError

    def _forget_connection(self) -> None:
        # Negotiation and the intern table are per-connection server
        # state: a closed connection takes both with it.
        self._protocol = PROTOCOL_JSON
        self._intern.clear()

    @property
    def protocol(self) -> int:
        """The negotiated protocol version (1 until :meth:`negotiate`)."""
        return self._protocol

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and return the raw reply dict."""
        return self._exchange(encode_frame_parts(payload), _whole)

    def _call(self, payload: dict[str, Any], pick: Pick = _whole) -> Any:
        op = str(payload.get("op"))
        return self._exchange(encode_frame_parts(payload),
                              lambda reply: pick(_check_reply(reply, op)))

    # -- negotiation and the binary protocol ------------------------------

    def negotiate(self, max_protocol: int = PROTOCOL_VERSION) -> int:
        """Negotiate the connection's protocol; returns the agreed version."""
        def agreed(reply: dict[str, Any]) -> int:
            self._protocol = int(reply.get("protocol", PROTOCOL_JSON))
            return self._protocol

        return self._call({"op": "hello", "max_protocol": max_protocol},
                          agreed)

    def intern(self, names: Sequence[str]) -> list[int]:
        """Intern task names for columnar offers; returns their indexes.

        Indexes are assigned client-side (dense, in first-seen order) and
        are stable for the life of the connection. Already-interned names
        cost nothing; call :meth:`reintern` instead after registering
        tasks that were interned *before* registration, so the server
        re-resolves them onto engine rows.
        """
        entries = []
        for name in names:
            if name not in self._intern:
                idx = len(self._intern)
                self._intern[name] = idx
                entries.append([idx, name])
        indexes = [self._intern[n] for n in names]
        if not entries:
            return self._done(indexes)
        return self._call({"op": "intern", "tasks": entries},
                          lambda reply: indexes)

    def reintern(self) -> None:
        """Re-send the whole intern table (re-resolves rows server-side)."""
        if not self._intern:
            return self._done(None)
        return self._call({"op": "intern",
                           "tasks": [[i, n] for n, i in self._intern.items()]},
                          lambda reply: None)

    def offer_columns(self, task_idx: Any, steps: Any,
                      values: Any) -> OfferReply:
        """Push one binary columnar batch; returns the decoded reply.

        Requires a prior :meth:`negotiate` that agreed on protocol >= 2
        and task indexes from :meth:`intern`. Backpressure is reported on
        the reply (``reply.backpressure`` / ``reply.retry_after_ms``), not
        raised, mirroring :meth:`offer_batch`.
        """
        if self._protocol < PROTOCOL_BINARY:
            raise ProtocolError(
                "binary offers need negotiate() to agree on protocol >= 2")
        return self._exchange(encode_offer_columns(task_idx, steps, values),
                              _offer_reply)

    # -- JSON ops --------------------------------------------------------

    def offer_batch(self, updates: Sequence[Update]) -> dict[str, Any]:
        """Push a batch; returns the reply even under backpressure
        (check ``reply.get("shed", 0)``)."""
        return self._call({"op": "offer_batch",
                           "updates": [list(u) for u in updates]})

    def ping(self) -> dict[str, Any]:
        return self._call({"op": "ping"})

    def register_task(self, name: str, threshold: float,
                      **spec: Any) -> dict[str, Any]:
        """Register a task; ``spec`` takes the declarative config keys
        (``error_allowance``, ``max_interval``, ``direction``, ``window``,
        ``aggregate``, ...)."""
        task = {"name": name, "threshold": threshold, **spec}
        return self._call({"op": "register_task", "task": task})

    def remove_task(self, name: str) -> dict[str, Any]:
        return self._call({"op": "remove_task", "task": name})

    def add_trigger(self, target: str, trigger: str, elevation_level: float,
                    suspend_interval: int = 10) -> dict[str, Any]:
        """Guard ``target`` on ``trigger``: the plan of the pair at
        hysteresis 0 / hold 0, wherever the two tasks live."""
        return self._call({"op": "add_trigger", "target": target,
                           "trigger": trigger,
                           "elevation_level": elevation_level,
                           "suspend_interval": suspend_interval})

    def install_trigger_plan(self, plan: dict[str, Any]) -> dict[str, Any]:
        """Install a correlated-monitoring :class:`repro.triggers.TriggerPlan`
        (as its ``to_dict()`` form); both server kinds accept it."""
        return self._call({"op": "trigger_install", "plan": dict(plan)})

    def set_trigger_armed(self, task: str, armed: bool) -> dict[str, Any]:
        """Arm (or disarm) a guarded task's remote trigger explicitly."""
        op = "trigger_arm" if armed else "trigger_disarm"
        return self._call({"op": op, "task": task})

    def trigger_state(self, task: str) -> dict[str, Any]:
        """One task's channel wiring (guard state and/or watch state)."""
        return self._call({"op": "trigger_state", "task": task})

    def trigger_plans(self) -> dict[str, Any]:
        """Installed plans plus channel accounting (edge counts, guard
        suspensions, estimated probe collections saved)."""
        return self._call({"op": "trigger_plans"})

    def due(self, task: str, step: int) -> bool:
        return self._call({"op": "due", "task": task, "step": step},
                          lambda reply: bool(reply["due"]))

    def task_info(self, task: str) -> dict[str, Any]:
        return self._call({"op": "task_info", "task": task})

    def alerts(self, task: str) -> list[list[float]]:
        return self._call({"op": "alerts", "task": task},
                          lambda reply: list(reply["alerts"]))

    def stats(self) -> dict[str, Any]:
        return self._call({"op": "stats"})

    def checkpoint(self) -> str:
        return self._call({"op": "checkpoint"},
                          lambda reply: str(reply["path"]))

    def telemetry(self) -> dict[str, Any]:
        """The server's full metrics snapshot (see ``repro.telemetry``)."""
        return self._call({"op": "telemetry"})

    def trace(self, since: int = 0,
              limit: int | None = None) -> dict[str, Any]:
        """Drain decision-trace events with ``seq >= since``.

        Returns the reply dict: ``events`` (oldest first), ``next_seq``
        (pass back as ``since`` to poll incrementally), ``dropped``.
        """
        payload: dict[str, Any] = {"op": "trace", "since": since}
        if limit is not None:
            payload["limit"] = limit
        return self._call(payload)

    def migrate(self, shard: int, worker: str) -> dict[str, Any]:
        """Move one shard to another worker live (``repro.cluster`` only;
        a single-process server answers with ``unknown-op``)."""
        return self._call({"op": "migrate", "shard": shard,
                           "worker": worker})

    def placement(self) -> dict[str, Any]:
        """The cluster's live placement table (``repro.cluster`` only)."""
        return self._call({"op": "placement"})


class RuntimeClient(_ConvenienceOps):
    """Blocking client over TCP or a unix-domain socket.

    Args:
        host / port: TCP endpoint (ignored when ``unix_socket`` given).
        unix_socket: unix-domain socket path.
        timeout: per-request socket timeout in seconds.

    Usable as a context manager; the connection is opened lazily on the
    first request and survives across requests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 unix_socket: str | pathlib.Path | None = None,
                 timeout: float = 30.0):
        super().__init__(host, port, unix_socket)
        self._timeout = timeout
        self._sock: socket.socket | None = None
        self._file: Any = None

    def connect(self) -> None:
        """Open the connection now (otherwise the first request does)."""
        if self._sock is not None:
            return
        if self._unix is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._unix)
        else:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rb")

    def close(self) -> None:
        """Close the connection (idempotent); re-run :meth:`negotiate`
        after reconnecting."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._forget_connection()

    def __enter__(self) -> "RuntimeClient":
        self.connect()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _send_parts(self, header: bytes, body: bytes) -> None:
        """Writev-style send: header + body without concatenating them."""
        assert self._sock is not None
        if not hasattr(self._sock, "sendmsg"):  # e.g. Windows
            self._sock.sendall(header + body)
            return
        sent = self._sock.sendmsg((header, body))
        total = len(header) + len(body)
        if sent >= total:
            return
        # Rare partial gather-send (tiny socket buffer): finish with
        # plain sendall on whatever remains of each part.
        if sent < len(header):
            self._sock.sendall(header[sent:])
            self._sock.sendall(body)
        else:
            self._sock.sendall(body[sent - len(header):])

    def _exchange(self, parts: tuple[bytes, bytes], pick: Pick) -> Any:
        self.connect()
        self._send_parts(*parts)
        reply = read_frame_blocking(self._file)
        if reply is None:
            raise ProtocolError("server closed the connection")
        return pick(reply)

    def _done(self, value: Any) -> Any:
        return value


class AsyncRuntimeClient(_ConvenienceOps):
    """Asyncio twin of :class:`RuntimeClient` (same op surface).

    Requests are serialised with an internal lock so concurrent coroutines
    can share one client without interleaving frames.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 unix_socket: str | pathlib.Path | None = None):
        super().__init__(host, port, unix_socket)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def connect(self) -> None:
        if self._writer is not None:
            return
        if self._unix is not None:
            self._reader, self._writer = await asyncio.open_unix_connection(
                self._unix)
        else:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None
        self._forget_connection()

    async def __aenter__(self) -> "AsyncRuntimeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def _exchange(self, parts: tuple[bytes, bytes], pick: Pick) -> Any:
        async with self._lock:
            await self.connect()
            assert self._writer is not None and self._reader is not None
            self._writer.writelines(parts)
            await self._writer.drain()
            reply = await read_frame(self._reader)
        if reply is None:
            raise ProtocolError("server closed the connection")
        return pick(reply)

    async def _done(self, value: Any) -> Any:
        return value
