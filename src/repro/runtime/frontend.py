"""The client-facing wire front end shared by both servers.

:class:`WireServer` is everything a monitoring server says to a client,
written once: the listen sockets and telemetry HTTP endpoint, the
connection loop, protocol negotiation and interning, offer validation
and routing, the op dispatcher with its error mapping, and every
router-level control op. :class:`~repro.runtime.server.RuntimeServer`
(shards in this process) and :class:`~repro.cluster.server.ClusterServer`
(shards on worker hosts) subclass it and differ only in how a
routed request reaches a shard.

Every control op is written over a seam of two members:

* ``task_shard`` — the task name → shard id map of registered tasks;
* ``async _shard_call(sid, payload)`` — send one shard-level ``w_*`` op
  (the :class:`~repro.cluster.hosting.WorkerHost` op table) to the host
  of shard ``sid`` and return its reply.

The data path is one chain whatever the frame's encoding: a JSON
``offer_batch`` and a binary offer frame both decode to
``(intern slot, step, value)`` columns, which :meth:`WireServer._route`
groups by shard and hands to the backend's ``_submit_columns``. That hook
returns ``(accepted, shed, rejected)`` — directly when the shard queues
are local, as an awaitable when they are a worker round-trip away — and
``_intern_id`` names the id a backend addresses an interned task by. The
front end awaits the hook's result only when it is awaitable, so the
single-process offer path never yields to the event loop between a frame
and its reply.

The shell around that is written once, too. The checkpointer — periodic
loop, failure counter, age, write-latency histogram, trace events, final
flush — is :meth:`WireServer.write_checkpoint` and its callers, and the
checkpoint is one document with one reader, :meth:`WireServer._restore`
(DESIGN.md S26). A backend supplies only its per-shard entries
(``_collect_shards``), takes them back on restore (``_start_shards``)
and writes its own ``shutdown`` body. The module-level helpers
at the bottom (:func:`listen`, :func:`until_signalled`,
:func:`write_ready_file`, :func:`run_cli`) are the lifecycle every
executable shares, the cluster worker included.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import logging
import os
import pathlib
import signal
import sys
import time
from typing import Any, Awaitable, Callable

import numpy as np

from repro.cluster.routing import route
from repro.config import (_TOP_KEYS, _service_defaults,
                          config_trigger_plans, trigger_pair_plan)
from repro.core.adaptation import AdaptationConfig
from repro.core.soa import STEP_MAX, STEP_MIN
from repro.exceptions import (CheckpointError, ConfigurationError,
                              ProtocolError, ReproError)
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.runtime.protocol import (PROTOCOL_BINARY, PROTOCOL_JSON,
                                    PROTOCOL_VERSION, SHED_RETRY_MS,
                                    OfferColumns,
                                    encode_frame_parts, encode_offer_reply,
                                    intern_entries, read_frame)
from repro.runtime.shard import SHARD_COUNTERS
from repro.telemetry.exposition import (CONTENT_TYPE_PROMETHEUS,
                                        TelemetryHTTPServer,
                                        render_prometheus)
from repro.service import snapshot_task_names
from repro.testkit.faults import FaultHook, NOOP_HOOK
from repro.triggers.plan import TriggerPlan

__all__ = ["WireServer"]

logger = logging.getLogger(__name__)

_MAX_INTERN = 1 << 20  # hard cap on per-connection intern table size


def _error(message: str, code: str = "bad-request") -> dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


def _unknown_task(name: str) -> dict[str, Any]:
    return _error(f"unknown task {name!r}", code="unknown-task")


def _check(reply: dict[str, Any]) -> None:
    """Raise a start-up step's error reply as a ConfigurationError."""
    if not reply.get("ok"):
        raise ConfigurationError(str(reply.get("error")))


class ConnState:
    """Per-connection wire state: negotiated version + intern table.

    ``shard`` and ``ids`` are parallel to ``names``: each interned name's
    shard (``-1`` = empty slot or not a registered task) and the id the
    backend addresses it by (SoA engine row in the runtime, cluster-global
    task id in the cluster). Both are only valid
    for the task table they were resolved against — ``epoch`` records
    the server's task-table version so they refresh lazily after any
    register/remove instead of per offer.
    """

    __slots__ = ("protocol", "names", "shard", "ids", "epoch")

    def __init__(self) -> None:
        self.protocol = PROTOCOL_JSON
        self.names: list[str | None] = []
        self.shard = np.empty(0, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)
        self.epoch = -1


class WireServer:
    """Wire front end + router-level ops over a shard backend.

    Args:
        config: a :class:`~repro.config.RuntimeConfig` or
            :class:`~repro.config.ClusterConfig` (the listen addresses,
            ``max_batch`` and ``checkpoint_path`` fields are read here;
            a shed reply's retry hint is :data:`~repro.runtime.protocol.SHED_RETRY_MS`).
        n_shards: total shard count tasks are routed over.
        registry: metrics registry for the front end's instruments.
        trace: decision trace receiving structured server events.
        fault_hook: chaos-testing seam (``repro.testkit``); the default
            :data:`~repro.testkit.faults.NOOP_HOOK` injects nothing and
            costs one guarded attribute check per frame.
        service_config: optional declarative service config (the
            ``defaults``/``tasks``/``triggers``/``trigger_plans`` root of
            :func:`repro.config.service_from_config`); a backend's
            ``start`` applies it before the first socket is bound, and
            tasks a checkpoint already restored win over it.
    """

    selfmon: Any = None
    """Self-monitor whose stats ride the ``telemetry`` reply (or None)."""

    def __init__(self, config: Any, n_shards: int, registry: Any, trace: Any,
                 fault_hook: FaultHook = NOOP_HOOK,
                 service_config: dict[str, Any] | None = None):
        self.config = config
        self.n_shards = n_shards
        self.registry = registry
        self.trace = trace
        self.fault_hook = fault_hook
        self.task_shard: dict[str, int] = {}
        self.defaults: dict[str, Any] = {}
        self.trigger_plans: dict[str, TriggerPlan] = {}
        self.pending: dict[str, dict[str, Any]] = {}
        """Registrations no shard entry holds yet, by task name, each as
        it was registered (defaults folded in): a checkpoint's
        ``pending``. Only a backend whose shard entries can lag a
        registration (the cluster's recovery copy) logs any."""
        self.trigger_edges = {"arm": 0, "disarm": 0}
        self.restored_tasks = 0
        """Number of tasks recovered from the checkpoint at startup."""
        # Bumped on every register/remove so connections revalidate
        # their interned-name resolution lazily.
        self._task_epoch = 0
        # JSON offers name their tasks; the names resolve through this
        # server-owned intern table (name -> slot of ``_json_conn``),
        # started afresh whenever the task table changes.
        self._json_conn = ConnState()
        self._json_slots: dict[str, int] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[asyncio.Task[None]] = set()
        self._http: TelemetryHTTPServer | None = None
        self._tcp_port: int | None = None
        self._frames = 0
        self._service_config = service_config or {}
        self._checkpoint_task: asyncio.Task[None] | None = None
        self._last_checkpoint_monotonic: float | None = None
        self._checkpoint_failures = 0
        self._shutdown_started = False
        self._done = asyncio.Event()
        self._started_monotonic = time.monotonic()
        registry.counter("volley_frames_total", "Wire frames handled",
                         fn=lambda: float(self._frames))
        registry.gauge("volley_tasks", "Monitoring tasks registered",
                       fn=lambda: float(len(self.task_shard)))
        registry.gauge("volley_trigger_plans",
                       "Correlation trigger plans installed",
                       fn=lambda: float(len(self.trigger_plans)))
        edges = registry.counter(
            "volley_trigger_edges_total",
            "Trigger-channel arm/disarm edges routed to guarded tasks",
            labels=("op",))
        for edge_op in ("arm", "disarm"):
            edges.labels(edge_op,
                         fn=lambda o=edge_op: float(self.trigger_edges[o]))
        self._offer_latency = registry.histogram(
            "volley_offer_latency_seconds",
            "offer_batch handler latency (server-side)")
        self._offer_batch_size = registry.histogram(
            "volley_offer_batch_size", "Updates per offer_batch frame")
        registry.counter("volley_checkpoint_failures_total",
                         "Periodic checkpoint writes that failed",
                         fn=lambda: float(self._checkpoint_failures))
        registry.gauge("volley_checkpoint_age_seconds",
                       "Seconds since the last successful checkpoint "
                       "(0 before the first)",
                       fn=lambda: self.checkpoint_age() or 0.0)
        self._checkpoint_write = registry.histogram(
            "volley_checkpoint_write_seconds",
            "Checkpoint serialize+fsync latency")
        registry.gauge("volley_uptime_seconds",
                       "Seconds since the server started",
                       fn=lambda: time.monotonic() - self._started_monotonic)
        registry.counter("volley_trace_events_dropped_total",
                         "Decision-trace events evicted unread",
                         fn=lambda: float(self.trace.dropped))

    # ------------------------------------------------------------------
    # The shard-backend seam (subclasses implement)

    async def _shard_call(self, sid: int,
                          payload: dict[str, Any]) -> dict[str, Any]:
        """Send one ``w_*`` op to the host of shard ``sid``."""
        raise NotImplementedError

    def _submit_columns(self, conn: ConnState,
                        per_shard: dict[int, tuple[Any, Any, Any]]) -> Any:
        """Queue one frame's routed offers: ``per_shard`` maps shard id to
        ``(intern_idx, steps, values)`` arrays over ``conn``'s table.
        Returns ``(accepted, shed, rejected)`` or an awaitable of it."""
        raise NotImplementedError

    def _intern_id(self, name: str, sid: int) -> int:
        """The backend's columnar id for a registered task (``-1`` = none)."""
        raise NotImplementedError

    async def _start_shards(self, shards: dict[str, Any],
                            placement: dict[str, str]) -> None:
        """Bring every shard up: from its entry in ``shards`` (``{"<sid>":
        {"snapshot", "counters"}}``) where it has one, fresh otherwise.
        ``placement`` is the checkpoint's shard → worker hint, if any."""
        raise NotImplementedError

    async def _collect_shards(self) -> tuple[dict[str, Any], dict[str, Any]]:
        """Every shard's checkpoint entry, in the shape ``_start_shards``
        takes, and any hint the backend writes beside them."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Listening, telemetry HTTP, lifecycle

    @property
    def tcp_port(self) -> int | None:
        """The bound TCP port (resolves ``port=0`` to the actual port)."""
        return self._tcp_port

    @property
    def http_port(self) -> int | None:
        """The bound telemetry HTTP port (None when disabled)."""
        return self._http.port if self._http is not None else None

    async def _listen(self, unix_socket: pathlib.Path | None = None) -> None:
        """Bind the client sockets and the telemetry HTTP endpoint, then
        start the periodic checkpointer."""
        cfg = self.config
        self._servers, self._tcp_port = await listen(
            self._on_connection, cfg.host, cfg.port, unix_socket)
        if cfg.http_port is not None:
            self._http = TelemetryHTTPServer(
                self._http_routes(), host=cfg.host, port=cfg.http_port)
            await self._http.start()
        if cfg.checkpoint_path is not None:
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._checkpoint_loop(), name="checkpoint-loop")

    async def _stop_serving(self) -> bool:
        """Stop accepting, cancel connections, stop the HTTP endpoint and
        the periodic checkpointer.

        The common prelude of every shutdown flavour. Returns False when
        a shutdown was already under way (after waiting for it to
        finish), so callers return without tearing down twice.
        """
        if self._shutdown_started:
            await self._done.wait()
            return False
        self._shutdown_started = True
        await stop_listening(self._servers)
        for conn in list(self._connections):
            conn.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._http is not None:
            await self._http.stop()
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
        return True

    async def shutdown(self) -> None:
        """Graceful stop (subclasses define what is flushed)."""
        raise NotImplementedError

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (or SIGTERM/SIGINT) completes."""
        loop = asyncio.get_running_loop()
        stopping: list[asyncio.Task[None]] = []  # keeps the task alive
        await until_signalled(
            self._done,
            lambda: stopping.append(loop.create_task(self.shutdown())))

    def _metrics(self) -> dict[str, Any]:
        """The metrics snapshot ``/metrics`` and ``telemetry`` serve."""
        return self.registry.snapshot()

    def _health(self) -> dict[str, Any]:
        """The ``/healthz`` body; ``ok`` decides 200 vs 503."""
        return {"ok": not self._shutdown_started,
                "shards": self.n_shards,
                "tasks": len(self.task_shard),
                "uptime_s": time.monotonic() - self._started_monotonic}

    def _http_routes(self) -> dict[str, Any]:
        # Route handlers are synchronous: they must not await a worker.
        def metrics(params: dict[str, str]) -> tuple[int, str, str]:
            return (200, CONTENT_TYPE_PROMETHEUS,
                    render_prometheus(self._metrics()))

        def healthz(params: dict[str, str]) -> tuple[int, str, str]:
            body = self._health()
            return ((200 if body["ok"] else 503), "application/json",
                    json.dumps(body))

        def trace_route(params: dict[str, str]) -> tuple[int, str, str]:
            try:  # not an integer, or negative: drain refuses it
                since = int(params.get("since", "0"))
                body = self.trace.to_jsonl(since=since)
            except ValueError:
                return 400, "text/plain; charset=utf-8", "bad since\n"
            return 200, "application/x-ndjson", body

        return {"/metrics": metrics, "/healthz": healthz,
                "/trace": trace_route}

    async def apply_config(self, config: dict[str, Any]) -> None:
        """Register defaults, tasks and trigger plans from a config dict.

        Fails closed, as :func:`repro.config.service_from_config` does: an
        unknown key at the top or in ``defaults``, or a malformed trigger
        entry, is refused. Tasks and trigger plans a checkpoint already
        restored win over the config's copy, so restarted state (a
        deliberately disarmed guard, an adapted sampler) is never reset
        by the file.
        """
        if not config:
            return
        self.defaults = dict(_service_defaults(config, _TOP_KEYS))
        plans = config_trigger_plans(config)
        for entry in config.get("tasks", []):
            if str(entry.get("name", "")) not in self.task_shard:
                _check(await self.register_task(dict(entry)))
        restored = set(self.trigger_plans)
        for plan in plans:
            if plan.target not in restored:
                _check(await self.install_plan(plan))

    async def _restore(self) -> None:
        """Bring the backend up from the checkpoint file, if there is one.

        The one reader of the one checkpoint document (DESIGN.md S26),
        whichever server wrote it. The shard count is checked before the
        backend starts anything. Routing comes from the shard snapshots'
        task names and the plans from ``trigger_plans`` (their armed
        flags and watcher state are inside the snapshots); the backend
        then gets the shard entries back, and each ``pending``
        registration no snapshot holds is registered again, as it was
        first, with the plans that touch it.
        """
        path = self.config.checkpoint_path
        state: dict[str, Any] = {}
        if path is not None and pathlib.Path(path).exists():
            state = read_checkpoint(path)
            if state.get("n_shards") != self.n_shards:
                raise CheckpointError(
                    f"checkpoint was written with {state.get('n_shards')} "
                    f"shards but the server is configured with "
                    f"{self.n_shards}; resharding a checkpoint is not "
                    f"supported")
        shards = state.get("shards", {})
        for sid, entry in shards.items():
            for name in snapshot_task_names(entry["snapshot"]):
                self.task_shard[name] = int(sid)
        for entry in state.get("trigger_plans", []):
            plan = TriggerPlan.from_dict(dict(entry))
            self.trigger_plans[plan.target] = plan
        self.restored_tasks = len(self.task_shard)
        await self._start_shards(shards, state.get("placement", {}))
        replayed: set[str] = set()
        # Replay runs before any defaults are configured: each entry
        # registers exactly as it was logged.
        for entry in state.get("pending", []):
            if str(entry.get("name", "")) not in self.task_shard:
                reply = await self.register_task(dict(entry))
                _check(reply)
                replayed.add(reply["task"])
        for plan in list(self.trigger_plans.values()):
            for name in {plan.target, plan.trigger} & replayed:
                sid = self.task_shard[name]
                _check(await self._shard_call(sid, {
                    "op": "w_trigger_install", "shard": sid,
                    "plan": plan.to_dict()}))
        if state:
            self.trace.emit("restore", tasks=self.restored_tasks,
                            shards=self.n_shards, path=str(path))

    # ------------------------------------------------------------------
    # The connection loop

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        conn = ConnState()
        try:
            hook = self.fault_hook
            while True:
                try:
                    request = await read_frame(reader, fault_hook=hook)
                except ProtocolError as exc:
                    writer.writelines(encode_frame_parts(
                        _error(str(exc), code="protocol")))
                    await writer.drain()
                    break
                if request is None:
                    break
                self._frames += 1
                if isinstance(request, OfferColumns):
                    if conn.protocol < PROTOCOL_BINARY:
                        writer.writelines(encode_frame_parts(_error(
                            "binary frames require a negotiated "
                            "protocol >= 2 (send a 'hello' op first)",
                            code="protocol")))
                        await writer.drain()
                        break
                    writer.writelines(await self._offer_columns(conn,
                                                                request))
                    await writer.drain()
                    continue
                if not isinstance(request, dict):
                    # Decoded binary frame of a kind the ingest server
                    # has no business receiving (reply / shard fan-out).
                    writer.writelines(encode_frame_parts(_error(
                        "unexpected binary frame kind", code="protocol")))
                    await writer.drain()
                    break
                op = request.get("op")
                if op == "hello":
                    reply = self._op_hello(conn, request)
                elif op == "intern":
                    reply = self._op_intern(conn, request)
                else:
                    reply = await self.handle_request(request)
                    if (hook.enabled and op == "offer_batch"
                            and hook.duplicate_frame(request)):
                        # Duplicated delivery: the frame is dispatched
                        # twice but only the primary reply goes back on
                        # the wire — exactly what a client retrying a
                        # lost ACK produces.
                        hook.note_duplicate_reply(
                            await self.handle_request(request))
                writer.writelines(encode_frame_parts(reply))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one decoded request frame to its op handler.

        Per-connection ordering is preserved — one frame is fully handled
        before the next is read. Whether connections can interleave
        mid-handler is the backend's property: a handler suspends only
        where ``_shard_call`` / ``_submit_columns`` do.
        """
        op = request.get("op")
        if not isinstance(op, str) or op not in self._OPS:
            return _error(f"unknown op {op!r}", code="unknown-op")
        try:
            return await getattr(self, "_op_" + op)(request)
        except ReproError as exc:
            return _error(str(exc))
        except (ValueError, TypeError, KeyError) as exc:
            # Malformed field inside an otherwise well-framed request
            # (e.g. aggregate="bogus", non-int step). The connection must
            # get an error reply, never be dropped.
            return _error(f"invalid request: {exc}")

    # ------------------------------------------------------------------
    # Connection-scoped ops (negotiation + interning)

    def _op_hello(self, conn: ConnState,
                  request: dict[str, Any]) -> dict[str, Any]:
        """Version negotiation: both sides meet at the lower maximum.

        A client asking for 1 (or sending no ``max_protocol``) stays on
        JSON. Every server answers ``hello``, so a client treats any
        error reply to it as a failure.
        """
        try:
            peer_max = int(request.get("max_protocol", PROTOCOL_JSON))
        except (TypeError, ValueError):
            return _error("hello needs an integer 'max_protocol'")
        conn.protocol = max(PROTOCOL_JSON, min(peer_max, PROTOCOL_VERSION))
        return {"ok": True, "protocol": conn.protocol,
                "server_protocol": PROTOCOL_VERSION,
                "max_batch": self.config.max_batch}

    def _op_intern(self, conn: ConnState,
                   request: dict[str, Any]) -> dict[str, Any]:
        """Install ``[index, name]`` pairs in the connection's table.

        Indexes are caller-assigned (so the client's own numbering rides
        the wire) and may be re-interned to repoint a slot. A frame is
        applied whole or not at all. Names interned before their task is
        registered are rejected on offer until the task exists — the
        table re-resolves itself on the first offer after any
        register/remove.
        """
        entries = request.get("tasks")
        problem = intern_entries(conn.names, entries, _MAX_INTERN, "index")
        if problem is not None:
            return _error(problem)
        self._resolve(conn)
        return {"ok": True, "interned": len(entries),
                "table_size": len(conn.names)}

    def _resolve(self, conn: ConnState, start: int = 0) -> None:
        """(Re)resolve interned names, from slot ``start`` up, to shards
        and backend ids."""
        names = conn.names
        shard = np.full(len(names), -1, dtype=np.int64)
        ids = np.full(len(names), -1, dtype=np.int64)
        shard[:start] = conn.shard[:start]
        ids[:start] = conn.ids[:start]
        task_shard = self.task_shard
        for i in range(start, len(names)):
            sid = task_shard.get(names[i])
            if sid is not None:
                shard[i] = sid
                ids[i] = self._intern_id(names[i], sid)
        conn.shard = shard
        conn.ids = ids
        conn.epoch = self._task_epoch

    # ------------------------------------------------------------------
    # Data path

    def _too_large(self, count: int) -> dict[str, Any]:
        return _error(f"batch of {count} exceeds max_batch="
                      f"{self.config.max_batch}", code="batch-too-large")

    async def _op_offer_batch(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        """Decode a JSON offer batch to columns and route it.

        JSON is an encoding, not a path: past this decode the offers are
        the same ``(intern slot, step, value)`` columns a binary frame
        carries. A malformed update fails the whole frame before
        anything is enqueued — an update must never be ACKed and then
        fail inside the host's drain loop.
        """
        began = time.perf_counter()
        updates = request.get("updates")
        if not isinstance(updates, list):
            return _error("offer_batch needs an 'updates' list")
        if len(updates) > self.config.max_batch:
            return self._too_large(len(updates))
        conn, slots, task_shard = (self._json_conn, self._json_slots,
                                   self.task_shard)
        if conn.epoch != self._task_epoch:
            # Rebound, never cleared: queued batches still read names
            # through the table they were routed with.
            conn = self._json_conn = ConnState()
            slots = self._json_slots = {}
            conn.epoch = self._task_epoch
        idx: list[int] = []
        steps: list[int] = []
        values: list[float] = []
        rejected = 0
        for update in updates:
            if (not isinstance(update, (list, tuple)) or len(update) != 3):
                return _error("each update must be [task, step, value]")
            step, value = update[1], update[2]
            if (not isinstance(step, (int, float))
                    or not isinstance(value, (int, float))
                    or isinstance(step, bool) or isinstance(value, bool)):
                return _error(
                    f"update step and value must be numbers, got "
                    f"[{update[0]!r}, {step!r}, {value!r}]",
                    code="bad-update")
            try:
                step = int(step)  # fractional steps truncate
                value = float(value)
                fits = STEP_MIN <= step <= STEP_MAX
            except (OverflowError, ValueError):
                fits = False  # inf/nan step, or an int no double holds
            if not fits:
                return _error(
                    f"update step must lie in [{STEP_MIN}, {STEP_MAX}] "
                    f"(and value fit a double), got [{update[0]!r}, "
                    f"{update[1]!r}, {update[2]!r}]", code="bad-update")
            name = str(update[0])
            slot = slots.get(name)
            if slot is None:
                if name not in task_shard:
                    rejected += 1
                    continue
                slot = slots[name] = len(conn.names)
                conn.names.append(name)
            idx.append(slot)
            steps.append(step)
            values.append(value)
        if len(conn.names) > len(conn.shard):
            self._resolve(conn, start=len(conn.shard))
        accepted, shed, late_rejected = await self._route(
            conn, began, len(updates), np.array(idx, dtype=np.int64),
            np.array(steps, dtype=np.int64),
            np.array(values, dtype=np.float64))
        reply: dict[str, Any] = {"ok": True, "accepted": accepted,
                                 "shed": shed,
                                 "rejected": rejected + late_rejected}
        if shed:
            reply["backpressure"] = True
            reply["retry_after_ms"] = SHED_RETRY_MS
        return reply

    async def _offer_columns(self, conn: ConnState,
                             cols: OfferColumns) -> tuple[bytes, bytes]:
        """Route a decoded binary offer batch; returns the reply frame."""
        began = time.perf_counter()
        count = len(cols)
        if count > self.config.max_batch:
            return encode_frame_parts(self._too_large(count))
        if conn.epoch != self._task_epoch:
            self._resolve(conn)
        idx = cols.task_idx.astype(np.int64)
        steps = cols.steps
        values = cols.values
        if np.count_nonzero((steps < STEP_MIN) | (steps > STEP_MAX)):
            return encode_frame_parts(_error(
                f"offer steps must lie in [{STEP_MIN}, {STEP_MAX}]",
                code="bad-update"))
        valid = idx < len(conn.names)
        rejected = 0
        if np.count_nonzero(valid) < count:
            keep = valid.nonzero()[0]
            rejected = count - len(keep)
            idx = idx[keep]
            steps = steps[keep]
            values = values[keep]
        accepted, shed, late_rejected = await self._route(
            conn, began, count, idx, steps, values)
        return encode_offer_reply(accepted, shed, rejected + late_rejected,
                                  shed > 0,
                                  SHED_RETRY_MS if shed else 0)

    async def _route(self, conn: ConnState, began: float, count: int,
                     idx: np.ndarray, steps: np.ndarray, values: np.ndarray,
                     ) -> tuple[int, int, int]:
        """The tail of every offer frame (of ``count`` offers, begun at
        ``began``): group its decoded columns by shard (ascending) and
        submit; ``idx`` holds slots of ``conn``'s table. Returns
        ``(accepted, shed, rejected)``; slots that name no registered
        task are rejected.
        """
        shards = conn.shard[idx]
        rejected = 0
        unknown = shards < 0
        if np.count_nonzero(unknown):
            keep = (~unknown).nonzero()[0]
            rejected = len(idx) - len(keep)
            idx = idx[keep]
            steps = steps[keep]
            values = values[keep]
            shards = shards[keep]
        per_shard: dict[int, tuple[Any, Any, Any]] = {}
        # The shards present, ascending, from a count over the shard ids
        # rather than a sort of the frame (np.unique): grouping 16 384
        # offers over 4 shards takes ~150 us this way, ~420 us that way.
        present = np.bincount(shards, minlength=self.n_shards)
        for shard in present.nonzero()[0].tolist():
            sel = (shards == shard).nonzero()[0]
            per_shard[shard] = (idx[sel], steps[sel], values[sel])
        result = self._submit_columns(conn, per_shard)
        if hasattr(result, "__await__"):
            result = await result
        accepted, shed, late_rejected = result
        if shed:
            self.trace.emit("shed", count=shed, batch=count,
                            accepted=accepted)
        self._offer_batch_size.observe(count)
        self._offer_latency.observe(time.perf_counter() - began)
        return accepted, shed, rejected + late_rejected

    # ------------------------------------------------------------------
    # Router-level control ops, over task_shard + _shard_call

    async def _task_call(self, op: str, name: str,
                         **fields: Any) -> dict[str, Any]:
        """Send a per-task shard op to the shard ``name`` lives on."""
        sid = self.task_shard.get(name)
        if sid is None:
            return _unknown_task(name)
        return await self._shard_call(
            sid, {"op": op, "shard": sid, "task": name, **fields})

    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "shards": self.n_shards,
                "tasks": len(self.task_shard),
                "protocol": PROTOCOL_VERSION}

    async def register_task(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Register one task config entry on the shard its name routes to,
        under the configured defaults.

        The entry is parsed once, by the shard's host; a malformed one
        comes back as that host's error reply.
        """
        sid = route(str(entry.get("name", "")), self.n_shards)
        reply = await self._shard_call(sid, {
            "op": "w_register_task", "shard": sid, "task": entry,
            "defaults": self.defaults})
        if not reply.get("ok"):
            return reply
        name, kind = reply["task"], reply["type"]
        self.task_shard[name] = sid
        self._task_epoch += 1
        self.trace.emit("task_registered", task=name, shard=sid,
                        threshold=reply["threshold"], type=kind)
        return {"ok": True, "task": name, "shard": sid, "type": kind}

    async def _op_register_task(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        entry = request.get("task")
        if not isinstance(entry, dict):
            return _error("register_task needs a 'task' dict")
        return await self.register_task(entry)

    async def remove_task(self, name: str) -> dict[str, Any]:
        """Remove a registered task from its shard and the routing map,
        and with it every trigger plan it was an end of: a target whose
        trigger went falls back to full-rate sampling (its own shard saw
        to that if it hosted both; best effort elsewhere — the target
        may be gone too)."""
        reply = await self._task_call("w_remove_task", name)
        if not reply.get("ok"):
            return reply
        sid = self.task_shard.pop(name)
        self._task_epoch += 1
        gone = [plan for plan in self.trigger_plans.values()
                if name in (plan.target, plan.trigger)]
        for plan in gone:
            del self.trigger_plans[plan.target]
        for plan in gone:
            if self.task_shard.get(plan.target) not in (None, sid):
                try:
                    await self._task_call("w_trigger_set", plan.target,
                                          armed=True)
                except ReproError:
                    pass  # unreachable host: its guard stays as it is
        self.trace.emit("task_removed", task=name, shard=sid)
        return {"ok": True, "task": name}

    async def _op_remove_task(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        return await self.remove_task(str(request.get("task", "")))

    # -- trigger channel (repro.triggers, DESIGN.md S32) ----------------

    async def _op_trigger_install(self, request: dict[str, Any],
                                  ) -> dict[str, Any]:
        entry = request.get("plan")
        if not isinstance(entry, dict):
            return _error("trigger_install needs a 'plan' dict")
        return await self.install_plan(TriggerPlan.from_dict(entry))

    async def _op_add_trigger(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        """A pair's flat fields: the plan at hysteresis 0 / hold 0."""
        return await self.install_plan(trigger_pair_plan(
            {key: value for key, value in request.items() if key != "op"}))

    async def install_plan(self, plan: TriggerPlan) -> dict[str, Any]:
        """Install a trigger plan on the shards of both its tasks — one
        shard or two, on one worker or two: the trigger's shard watches
        for elevation edges and its host (or the cluster server) routes
        them to the target's shard."""
        for name in (plan.target, plan.trigger):
            if name not in self.task_shard:
                return _unknown_task(name)
        self._refuse_second_level(plan)
        for sid in dict.fromkeys((self.task_shard[plan.target],
                                  self.task_shard[plan.trigger])):
            reply = await self._shard_call(sid, {
                "op": "w_trigger_install", "shard": sid,
                "plan": plan.to_dict()})
            if not reply.get("ok"):
                return reply
        self.trigger_plans[plan.target] = plan
        self.trace.emit("trigger_plan_installed", task=plan.target,
                        shard=self.task_shard[plan.target],
                        trigger=plan.trigger,
                        elevation_level=plan.elevation_level,
                        suspend_interval=plan.suspend_interval)
        return {"ok": True, "target": plan.target, "trigger": plan.trigger,
                "plans": len(self.trigger_plans)}

    def _refuse_second_level(self, plan: TriggerPlan) -> None:
        """A trigger task carries one watch, hence one level, whichever
        shards its targets live on: checked over every installed plan
        before any shard is written."""
        plan.refuse_second_level({
            other.target: other.elevation_level
            for other in self.trigger_plans.values()
            if other.trigger == plan.trigger})

    async def _set_trigger_armed(self, request: dict[str, Any],
                                 armed: bool) -> dict[str, Any]:
        """Explicitly arm/disarm a guarded task (operator override)."""
        reply = await self._task_call(
            "w_trigger_set", str(request.get("task", "")), armed=armed)
        if reply.get("ok") and reply["was_armed"] != armed:
            self.trigger_edges["arm" if armed else "disarm"] += 1
        return reply

    async def _op_trigger_arm(self, request: dict[str, Any],
                              ) -> dict[str, Any]:
        return await self._set_trigger_armed(request, True)

    async def _op_trigger_disarm(self, request: dict[str, Any],
                                 ) -> dict[str, Any]:
        return await self._set_trigger_armed(request, False)

    async def _op_trigger_state(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        return await self._task_call("w_trigger_state",
                                     str(request.get("task", "")))

    async def _op_trigger_plans(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        suspensions, saved = 0, 0.0
        for target in list(self.trigger_plans):
            reply = await self._task_call("w_trigger_state", target)
            if not reply.get("ok"):
                continue  # target removed since the plan was installed
            status = reply["state"]
            count = int(status.get("suspensions", 0))
            suspensions += count
            saved += count * (int(status.get("suspend_interval", 1)) - 1)
        return {"ok": True,
                "plans": [self.trigger_plans[t].to_dict()
                          for t in sorted(self.trigger_plans)],
                "edges": dict(self.trigger_edges),
                "suspensions": suspensions,
                "probe_cost_saved": saved}

    # -- reads ----------------------------------------------------------

    async def _op_due(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self._task_call("w_due", str(request.get("task", "")),
                                     step=int(request.get("step", 0)))

    async def _op_task_info(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        return await self._task_call("w_task_info",
                                     str(request.get("task", "")))

    async def _op_alerts(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self._task_call("w_alerts",
                                     str(request.get("task", "")))

    # -- server state ---------------------------------------------------

    def checkpoint_age(self) -> float | None:
        """Seconds since the last successful checkpoint (None if never)."""
        last = self._last_checkpoint_monotonic
        return None if last is None else time.monotonic() - last

    async def write_checkpoint(self) -> pathlib.Path:
        """Write a checkpoint now; returns the path written.

        The one document on both servers: ``n_shards``, the backend's
        ``shards`` entries and hints, ``trigger_plans`` and ``pending``
        (read after the collection, which may retire entries from it).
        """
        path = self.config.checkpoint_path
        if path is None:
            raise ConfigurationError("no checkpoint_path configured")
        began = time.monotonic()
        shards, hints = await self._collect_shards()
        written = write_checkpoint(path, {
            "n_shards": self.n_shards, "shards": shards,
            "trigger_plans": [self.trigger_plans[t].to_dict()
                              for t in sorted(self.trigger_plans)],
            "pending": list(self.pending.values()), **hints},
            fault_hook=self.fault_hook)
        finished = time.monotonic()
        self._last_checkpoint_monotonic = finished
        self._checkpoint_write.observe(finished - began)
        self.trace.emit("checkpoint_written", path=str(written),
                        write_s=finished - began,
                        tasks=len(self.task_shard))
        return written

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            await self._flush_checkpoint()

    async def _flush_checkpoint(self) -> None:
        """The periodic and the final write (a no-op with no path set).

        A failure (disk full, permissions, an unreachable worker) must
        not kill the periodic loop — crash recovery would then silently
        degrade to the last good checkpoint — nor leave a shutdown
        half-done: log it, count it, go on. The count and the age of the
        last good write are visible via ``stats`` and ``/metrics``.
        """
        if self.config.checkpoint_path is None:
            return
        try:
            await self.write_checkpoint()
        except Exception:
            self._checkpoint_failures += 1
            self.trace.emit("checkpoint_failed",
                            failures=self._checkpoint_failures)
            logger.exception("checkpoint write failed (%d so far)",
                             self._checkpoint_failures)

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        shards: list[dict[str, Any]] = []
        for sid in range(self.n_shards):
            try:
                reply = await self._shard_call(
                    sid, {"op": "w_stats", "shard": sid})
            except ReproError:
                continue  # unreachable host: report the shards we can see
            if reply.get("ok"):
                shards.extend(reply["shards"])
        # The totals keep the ledger's short keys: the reply's own
        # namespace (loadgen, replay, the chaos harness read it).
        totals = {counter.short: sum(s[counter.key] for s in shards)
                  for counter in SHARD_COUNTERS}
        totals["queue_depth"] = sum(s["queue_depth"] for s in shards)
        totals["tasks"] = len(self.task_shard)
        reply = {"ok": True, "shards": shards, "totals": totals,
                 "frames": self._frames,
                 "protocol": PROTOCOL_VERSION,
                 "uptime_s": time.monotonic() - self._started_monotonic,
                 "restored_tasks": self.restored_tasks}
        if self.config.checkpoint_path is not None:
            reply["checkpoint"] = {"failures": self._checkpoint_failures,
                                   "last_age_s": self.checkpoint_age()}
        return reply

    async def _op_checkpoint(self, request: dict[str, Any],
                             ) -> dict[str, Any]:
        if self.config.checkpoint_path is None:
            return _error("no checkpoint_path configured")
        return {"ok": True, "path": str(await self.write_checkpoint())}

    async def _op_telemetry(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        """Full metrics snapshot as JSON (the wire twin of ``/metrics``)."""
        reply: dict[str, Any] = {"ok": True,
                                 "metrics": self._metrics(),
                                 "trace": {"next_seq": self.trace.next_seq,
                                           "dropped": self.trace.dropped,
                                           "retained": len(self.trace)}}
        if self.selfmon is not None:
            reply["selfmon"] = self.selfmon.stats()
        return reply

    async def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        since = int(request.get("since", 0))
        raw_limit = request.get("limit")
        limit = None if raw_limit is None else int(raw_limit)
        return {"ok": True,
                "events": self.trace.drain(since=since, limit=limit),
                "next_seq": self.trace.next_seq,
                "dropped": self.trace.dropped}

    _OPS = frozenset({
        "ping", "register_task", "remove_task", "add_trigger",
        "trigger_install", "trigger_arm", "trigger_disarm",
        "trigger_state", "trigger_plans", "offer_batch", "due",
        "task_info", "alerts", "stats", "checkpoint", "telemetry", "trace",
    })


# ----------------------------------------------------------------------
# The serving shell shared by the three executables (``python -m
# repro.runtime`` / ``repro.cluster`` / ``repro.cluster.worker``)


async def listen(handler: Callable[..., Awaitable[None]], host: str,
                 port: int | None, unix_socket: pathlib.Path | None = None,
                 ) -> tuple[list[asyncio.AbstractServer], int | None]:
    """Serve ``handler`` on a unix socket and/or a TCP port.

    Returns the listening servers and the bound TCP port (``port=0``
    resolved; None without a TCP listener). A stale socket file is
    replaced.
    """
    servers: list[asyncio.AbstractServer] = []
    tcp_port = None
    if unix_socket is not None:
        unix_socket.parent.mkdir(parents=True, exist_ok=True)
        if unix_socket.exists():
            unix_socket.unlink()
        servers.append(await asyncio.start_unix_server(
            handler, path=str(unix_socket)))
    if port is not None:
        server = await asyncio.start_server(handler, host=host, port=port)
        tcp_port = server.sockets[0].getsockname()[1]
        servers.append(server)
    return servers, tcp_port


async def stop_listening(servers: list[asyncio.AbstractServer]) -> None:
    """Stop accepting on every server :func:`listen` returned."""
    for server in servers:
        server.close()
    for server in servers:
        await server.wait_closed()


async def until_signalled(done: asyncio.Event,
                          on_signal: Callable[[], Any]) -> None:
    """Wait for ``done``; SIGTERM and SIGINT call ``on_signal`` meanwhile."""
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, on_signal)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix platforms / nested loops
    await done.wait()


def write_ready_file(path: pathlib.Path | None,
                     payload: dict[str, Any]) -> None:
    """Publish ``payload`` as JSON at ``path`` (None = no ready file).

    Written beside the target and renamed into place, so a supervisor
    polling for the file never reads a created-but-empty one.
    """
    if path is None:
        return
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def run_cli(prog: str, parser: argparse.ArgumentParser,
            amain: Callable[[argparse.Namespace], Awaitable[None]],
            argv: list[str] | None) -> int:
    """Parse ``argv``, run ``amain(args)`` to completion; a
    :class:`~repro.exceptions.ReproError` becomes a one-line
    ``[prog] error: ...`` on stderr and exit code 1."""
    args = parser.parse_args(argv)
    try:
        asyncio.run(amain(args))
    except ReproError as exc:
        print(f"[{prog}] error: {exc}", file=sys.stderr, flush=True)
        return 1
    return 0


def load_config_file(path: pathlib.Path | None, section: str,
                     ) -> tuple[dict[str, Any], AdaptationConfig | None,
                                dict[str, Any]]:
    """Split a ``--config`` file into ``(server section, adaptation,
    service config)``.

    ``section`` names the server's own block (``runtime`` / ``cluster``).
    One file may carry both blocks, so both servers start from it; what
    remains after them and ``adaptation`` are removed is the service
    config (``defaults`` / ``tasks`` / ``triggers`` / ``trigger_plans``).
    """
    if path is None:
        return {}, None, {}
    loaded = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(loaded, dict):
        raise ConfigurationError("config file must hold a JSON object")
    server_section = {name: loaded.pop(name, {})
                      for name in ("runtime", "cluster")}[section]
    adaptation_section = loaded.pop("adaptation", None)
    adaptation = (None if adaptation_section is None
                  else AdaptationConfig.from_dict(adaptation_section))
    return server_section, adaptation, loaded


def cli_overrides(args: Any, base: Any) -> dict[str, Any]:
    """Fields of config ``base`` the command line set, for
    ``dataclasses.replace``.

    Each flag's argparse ``dest`` is the config field it overrides, so
    every field is covered without a list to keep in step; a flag that
    was not given (``None``) leaves the config file's (or default) value
    alone.
    """
    given = {f.name: getattr(args, f.name, None)
             for f in dataclasses.fields(base)}
    return {name: value for name, value in given.items()
            if value is not None}
