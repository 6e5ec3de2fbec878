"""The cluster server: the client-facing routing tier and its coordinator.

:class:`ClusterServer` is the shared
:class:`~repro.runtime.frontend.WireServer` front end, so it speaks the
exact op surface of the single-process
:class:`~repro.runtime.server.RuntimeServer` by construction — every
existing client (:mod:`repro.runtime.client`, the load generator, the
scenario replayer) points at a cluster without changes. It is also its
own shard backend, as the runtime is over its
:class:`~repro.cluster.hosting.WorkerHost`: it owns the authoritative map
from global shard id to worker, reached through a
:class:`~repro.cluster.transport.ShardTransport` per worker, and
everything stateful about the cluster flows through it:

* **Forwarding** — :meth:`ClusterServer._submit_columns` takes a frame's
  per-shard column segments and fans them out, one ``SHARD_OFFER`` frame
  per touched worker. A worker that cannot be reached costs its updates
  a *shed* (never a silent loss) and feeds the failure detector.
* **Live migration** — :meth:`ClusterServer.migrate` moves one shard
  between workers under load: hold new ops to the shard, wait for
  in-flight forwards, drain the source, snapshot, restore on the target,
  verify the restored state's fingerprint matches the source's **before**
  cutover, then let the held ops through to the new worker. A
  fingerprint mismatch aborts the migration with the source still
  authoritative — the failure mode is a rejected migration, never a
  corrupted shard.
* **Failure re-placement** — a heartbeat loop declares a worker dead
  after ``heartbeat_misses`` consecutive missed pings and rebuilds its
  shards on survivors from the recovery copy (or fresh when no copy
  covered the shard), then re-registers the pending registrations no
  copy holds — the at-most-once contract: ACKed-and-applied survives via
  snapshots, queued-but-unapplied dies with the process.
* **Fleet telemetry** — per-worker registries are pulled raw and merged
  (:mod:`repro.cluster.fleet`); worker sampler traces are pulled and
  re-emitted into the server's ring so one ``trace`` stream covers the
  whole cluster.

Two cluster-only ops are added: ``migrate`` (move a shard between
workers live) and ``placement`` (the live placement table, with worker
pids for supervision).

Unlike the runtime's backend, this one suspends: every data/control op
awaits a worker round-trip. Per-connection ordering is preserved — one
frame is fully handled before the next is read — but connections
interleave at await points. One rule serves every op addressed to a
shard that is moving (migrating or being re-placed), offers included: it
waits until the move settles, then goes to whichever worker the route
names — so an ACK always means a shard queue took the offer. That
coordination is per shard, on its :class:`ShardRoute` in the placement
table.
"""

from __future__ import annotations

import asyncio
import logging
import os
import pathlib
import tempfile
import time
from collections import deque
from typing import Any, AsyncIterator, Callable, Iterable

from repro.config import ClusterConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ClusterError, ConfigurationError
from repro.runtime.frontend import ConnState, WireServer
from repro.service import snapshot_task_names
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import DecisionTrace
from repro.triggers.plan import count_edge

from repro.cluster.fleet import merge_fleet_snapshots
from repro.cluster.hosting import WorkerHost
from repro.cluster.transport import (InProcTransport, ShardTransport,
                                     SubprocessTransport, TCPTransport)

__all__ = ["ClusterServer", "ShardRoute"]

logger = logging.getLogger(__name__)


class ShardRoute:
    """Routing-table entry for one global shard."""

    __slots__ = ("shard_id", "worker_id", "moving", "inflight", "_idle",
                 "_settled")

    def __init__(self, shard_id: int, worker_id: str):
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.moving = False
        self.inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._settled = asyncio.Event()
        self._settled.set()

    def begin_move(self) -> None:
        self.moving = True
        self._settled.clear()

    def end_move(self) -> None:
        self.moving = False
        self._settled.set()

    async def wait_settled(self) -> None:
        """Block until the move in progress ends (another may begin
        before the waiter runs: see :meth:`ClusterServer._moving`)."""
        await self._settled.wait()

    async def wait_idle(self) -> None:
        """Block until no forwarded offer is in flight for this shard."""
        await self._idle.wait()


class ClusterServer(WireServer):
    """The routing tier: placement, migration, recovery, fleet telemetry.

    ``service_config`` is the declarative service config
    :class:`~repro.runtime.server.RuntimeServer` takes: tasks it declares
    are registered at startup unless a checkpoint already has them.
    """

    def __init__(self, config: ClusterConfig,
                 adaptation: AdaptationConfig | None = None,
                 service_config: dict[str, Any] | None = None):
        self.adaptation = adaptation or AdaptationConfig()
        self.transports: dict[str, ShardTransport] = {}
        self.routes: list[ShardRoute] = []
        # Cluster-global task ids for the binary columnar path: assigned
        # densely on first use (:meth:`_intern_id`), synced lazily to each
        # worker host as a per-worker watermark (gids below it are
        # interned there). These are runtime-scoped, not checkpointed.
        self.gids: dict[str, int] = {}
        self.gid_names: list[str] = []
        self._gid_synced: dict[str, int] = {}
        self.router_shed = 0
        self.migrations = 0
        self.replacements = 0
        self._dead: set[str] = set()
        self._misses: dict[str, int] = {}
        self._trace_cursor: dict[str, int] = {}
        self._trace_dropped: dict[str, int] = {}
        self._trace_lock = asyncio.Lock()
        self._recover_lock = asyncio.Lock()
        self._collect_lock = asyncio.Lock()
        self._fleet_cache: dict[str, Any] = {}
        # The recovery copy: each shard's last collected checkpoint
        # entry, what a re-placement restores from.
        self._recovery: dict[str, Any] = {}
        self._heartbeat_task: asyncio.Task | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        # The cluster's families are registered before the front end's
        # (in ``super().__init__``): that order is the ``/metrics`` order.
        registry = MetricsRegistry()
        self._worker_up = registry.gauge(
            "volley_worker_up", "1 while the worker answers heartbeats",
            labels=("worker",))
        registry.counter(
            "volley_migrations_total", "Completed live shard migrations",
            fn=lambda: float(self.migrations))
        registry.counter(
            "volley_replacements_total",
            "Shards re-placed after worker failure",
            fn=lambda: float(self.replacements))
        registry.gauge(
            "volley_coordinator_uptime_seconds",
            "Seconds since the coordinator started",
            fn=lambda: time.monotonic() - self._started_monotonic)
        # Shed at the routing tier (an unreachable worker).
        # Label shape matches the per-worker shed family after the fleet
        # merge prepends "worker", so family totals stay truthful.
        registry.counter(
            "volley_updates_shed_total",
            "Updates shed under backpressure", labels=("worker", "shard"),
        ).labels("router", "-", fn=lambda: float(self.router_shed))
        super().__init__(config, config.n_shards, registry,
                         DecisionTrace(config.trace_capacity),
                         service_config=service_config)

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Restore (workers, placement), apply the service config, then
        bind the listen sockets. A failure after the workers spawned shuts
        them down before it propagates."""
        try:
            await self._restore()
            await self.apply_config(self._service_config)
        except BaseException:
            await self._close_workers()  # do not orphan the workers
            raise
        await self._listen()

    async def drain(self) -> None:
        """Wait until every live worker has applied its queued batches,
        then route the trigger edges they raised."""
        async for _ in self._live_replies({"op": "w_drain"},
                                          on_miss=self._note_failure):
            pass
        # A caller that drains at a phase boundary observes guard state
        # deterministically (scenario replay relies on this).
        await self.pump_triggers()

    async def shutdown(self) -> None:
        """Stop accepting, close connections, stop the heartbeat (the
        final checkpoint must not race a re-placement), flush a final
        checkpoint, close the workers."""
        if await self._stop_serving():
            await self._stop_heartbeat()
            await self._flush_checkpoint()
            await self._close_workers()
            self._done.set()

    def _build_transports(self) -> None:
        cfg = self.config
        if cfg.backend == "subprocess":
            runtime_dir = cfg.runtime_dir
            if runtime_dir is None:
                self._tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-cluster-")
                runtime_dir = pathlib.Path(self._tmpdir.name)
            for i in range(cfg.workers):
                wid = f"w{i}"
                self.transports[wid] = SubprocessTransport(
                    wid, runtime_dir, queue_depth=cfg.queue_depth,
                    trace_capacity=cfg.trace_capacity)
        elif cfg.backend == "tcp":
            for i, endpoint in enumerate(cfg.worker_endpoints):
                wid = f"w{i}"
                host, _, port = endpoint.rpartition(":")
                if not host or not port.isdigit():
                    raise ConfigurationError(
                        f"worker endpoint {endpoint!r} is not host:port")
                self.transports[wid] = TCPTransport(wid, host, int(port))
        else:  # inproc
            for i in range(cfg.workers):
                wid = f"w{i}"
                self.transports[wid] = InProcTransport(wid, WorkerHost(
                    wid, queue_depth=cfg.queue_depth,
                    adaptation=self.adaptation,
                    trace_capacity=cfg.trace_capacity))

    async def _start_shards(self, shards: dict[str, Any],
                            placement: dict[str, str]) -> None:
        """Spawn/connect workers, place every shard, start the heartbeat.

        A shard with an entry in ``shards`` is restored from it, and the
        entries seed the recovery copy; ``placement`` names a shard's
        worker where that worker exists.
        """
        self._build_transports()
        await asyncio.gather(*(t.start() for t in self.transports.values()))
        worker_ids = sorted(self.transports)
        for sid in range(self.n_shards):
            wid = placement.get(str(sid))
            if wid not in self.transports:
                wid = worker_ids[sid % len(worker_ids)]
            self.routes.append(ShardRoute(sid, wid))
        self._recovery = dict(shards)
        for routed in self.routes:
            await self._place_shard(routed, shards.get(str(routed.shard_id)))
        for wid, transport in self.transports.items():
            self._worker_up.labels(
                wid, fn=lambda w=wid: 0.0 if w in self._dead else 1.0)
            self.trace.emit("worker_started", worker=wid,
                            pid=self.worker_pids().get(wid))
        self._heartbeat_task = asyncio.create_task(self._heartbeat_loop())

    async def _place_shard(self, routed: ShardRoute,
                           entry: dict[str, Any] | None) -> None:
        """Install one shard on its routed worker (fresh or from state)."""
        if entry is None:
            reply = await self._request(routed.worker_id, {
                "op": "w_add_shard", "shard": routed.shard_id,
                "adaptation": self.adaptation.to_dict()})
        else:
            reply = await self._request(routed.worker_id, {
                "op": "w_restore_shard", "shard": routed.shard_id,
                "snapshot": entry["snapshot"],
                "counters": entry.get("counters"),
                "adaptation": self.adaptation.to_dict()})
        if not reply.get("ok"):
            raise ClusterError(
                f"cannot place shard {routed.shard_id} on "
                f"{routed.worker_id}: {reply.get('error')}")
        await self._register_pending(routed, entry)
        await self._reinstall_triggers(routed)

    async def _reinstall_triggers(self, routed: ShardRoute) -> None:
        """Re-wire trigger plans touching a freshly placed shard.

        Install is idempotent at the service layer: a snapshot-restored
        shard keeps its armed/watch state, while a fresh (no-snapshot)
        re-placement comes back conservatively armed.
        """
        for plan in list(self.trigger_plans.values()):
            if routed.shard_id not in (self.task_shard.get(plan.trigger),
                                       self.task_shard.get(plan.target)):
                continue
            await self._best_effort(routed.worker_id, {
                "op": "w_trigger_install", "shard": routed.shard_id,
                "plan": plan.to_dict()})

    async def _register_pending(self, routed: ShardRoute,
                                entry: dict[str, Any] | None) -> None:
        """Re-register, as first registered, the pending registrations
        of a placed shard that its snapshot does not already hold."""
        present = set(snapshot_task_names((entry or {}).get("snapshot", {})))
        for name, task_entry in list(self.pending.items()):
            if (self.task_shard.get(name) != routed.shard_id
                    or name in present):
                continue
            reply = await self._request(routed.worker_id, {
                "op": "w_register_task", "shard": routed.shard_id,
                "task": task_entry})
            if not reply.get("ok"):  # pragma: no cover - config drift
                logger.warning("cannot re-register task %s on shard %d: %s",
                               name, routed.shard_id, reply.get("error"))

    async def _stop_heartbeat(self) -> None:
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def _close_workers(self) -> None:
        """Stop the heartbeat and close every transport."""
        await self._stop_heartbeat()
        await asyncio.gather(
            *(t.close() for t in self.transports.values()),
            return_exceptions=True)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------
    # Worker RPC

    async def _request(self, worker_id: str,
                       payload: dict[str, Any]) -> dict[str, Any]:
        transport = self.transports.get(worker_id)
        if transport is None or worker_id in self._dead:
            raise ClusterError(f"worker {worker_id} is not available")
        return await transport.request(payload)

    async def _best_effort(self, worker_id: str,
                           payload: dict[str, Any]) -> None:
        try:
            await self._request(worker_id, payload)
        except ClusterError:
            pass

    def _moving(self, sids: Iterable[int]) -> ShardRoute | None:
        """The first route of shards ``sids`` that is moving, if any: the
        gate every op to a shard loops on, since another move may begin
        between a wake and the waiter's turn. One attribute read per
        shard, and no ``await``, when nothing moves."""
        for sid in sids:
            if self.routes[sid].moving:
                return self.routes[sid]
        return None

    async def _shard_call(self, sid: int,
                          payload: dict[str, Any]) -> dict[str, Any]:
        """Send one ``w_*`` op to whichever worker hosts shard ``sid``,
        once no migration or re-placement of it is in progress."""
        while (moving := self._moving((sid,))) is not None:
            await moving.wait_settled()
        return await self._request(self.routes[sid].worker_id, payload)

    def _note_failure(self, worker_id: str) -> None:
        """A data-path request failed; let the heartbeat confirm sooner."""
        self._misses[worker_id] = self._misses.get(worker_id, 0) + 1

    def worker_pids(self) -> dict[str, int | None]:
        """Worker process ids (router pid for in-proc hosts)."""
        pids: dict[str, int | None] = {}
        for wid, transport in self.transports.items():
            pid = getattr(transport, "pid", None)
            pids[wid] = pid if pid is not None else (
                os.getpid() if isinstance(transport, InProcTransport)
                else None)
        return pids

    async def _live_replies(
            self, payload: Any, timeout: float | None = None,
            on_miss: Callable[[str], Any] | None = None,
    ) -> AsyncIterator[tuple[str, dict[str, Any]]]:
        """Ask every live worker; yield ``(worker_id, reply)`` per ``ok``
        reply.

        ``payload`` is the request, or a function of the worker id that
        builds it. A worker that is down, unreachable, too slow for
        ``timeout`` or answers an error is skipped — ``on_miss(worker_id)``
        hears of it — and left to the heartbeat to judge.
        """
        for wid, transport in list(self.transports.items()):
            if wid in self._dead:
                continue
            request = payload(wid) if callable(payload) else payload
            try:
                reply = await asyncio.wait_for(transport.request(request),
                                               timeout)
            except (ClusterError, asyncio.TimeoutError):
                reply = {}
            if reply.get("ok"):
                yield wid, reply
            elif on_miss is not None:
                on_miss(wid)

    # ------------------------------------------------------------------
    # Data path

    def _intern_id(self, name: str, sid: int) -> int:
        """The task's cluster-global id (assigned on first use)."""
        gid = self.gids.get(name)
        if gid is None:
            gid = self.gids[name] = len(self.gid_names)
            self.gid_names.append(name)
        return gid

    async def _sync_gids(self, worker_id: str) -> None:
        """Intern any gids ``worker_id`` has not seen yet (watermark)."""
        high = len(self.gid_names)
        low = self._gid_synced.get(worker_id, 0)
        if low >= high:
            return
        reply = await self._request(worker_id, {
            "op": "w_intern",
            "tasks": [[gid, self.gid_names[gid]]
                      for gid in range(low, high)]})
        if not reply.get("ok"):
            raise ClusterError(
                f"worker {worker_id} rejected gid intern: "
                f"{reply.get('error')}")
        self._gid_synced[worker_id] = high

    async def _submit_columns(self, conn: ConnState,
                              per_shard: dict[int, tuple[Any, Any, Any]],
                              ) -> tuple[int, int, int]:
        """Forward one frame's routed offers; returns (accepted, shed,
        rejected).

        ``per_shard`` maps shard id to ``(intern_idx, steps, values)``
        arrays over ``conn``'s table, whose ``ids`` are the gids. A frame
        that touches a moving shard waits until no shard it touches
        moves; only then does it mark any forward in flight, so a waiting
        frame holds up no other shard's move. The segments group into one
        binary ``SHARD_OFFER`` frame per worker, sent concurrently.
        """
        while (moving := self._moving(per_shard)) is not None:
            await moving.wait_settled()
        ids = conn.ids
        per_worker: dict[str, list[Any]] = {}
        for sid, (idx, steps, values) in per_shard.items():
            routed = self.routes[sid]
            per_worker.setdefault(routed.worker_id, []).append(
                (sid, ids[idx], steps, values))
            routed.inflight += 1
            routed._idle.clear()
        if not per_worker:
            return 0, 0, 0
        try:
            results = await asyncio.gather(
                *(self._forward_or_shed(wid, segments)
                  for wid, segments in per_worker.items()))
        finally:
            for sid in per_shard:
                routed = self.routes[sid]
                routed.inflight -= 1
                if routed.inflight == 0:
                    routed._idle.set()
        accepted, shed, rejected = map(sum, zip(*results))
        return accepted, shed, rejected

    async def _forward_or_shed(self, worker_id: str,
                               segments: list[Any]) -> tuple[int, int, int]:
        """:meth:`_forward`, with a failed forward's offers shed."""
        try:
            return await self._forward(worker_id, segments)
        except ClusterError:
            total = sum(len(seg[1]) for seg in segments)
            self.router_shed += total
            return 0, total, 0

    async def _forward(self, worker_id: str,
                       segments: list[Any]) -> tuple[int, int, int]:
        """One ``SHARD_OFFER`` to ``worker_id``, its gid table synced
        first; a failure is noted for the heartbeat and re-raised."""
        try:
            await self._sync_gids(worker_id)
            return await self.transports[worker_id].request_columns(segments)
        except ClusterError:
            self._note_failure(worker_id)
            raise

    async def register_task(self, entry: dict[str, Any]) -> dict[str, Any]:
        reply = await super().register_task(entry)
        if reply.get("ok"):
            # Logged as registered, defaults folded in, until a collected
            # snapshot holds the task: a re-placement or a restart that
            # finds no snapshot with it registers it again from here.
            self.pending[reply["task"]] = {**self.defaults, **entry}
        return reply

    async def remove_task(self, name: str) -> dict[str, Any]:
        reply = await super().remove_task(name)
        if reply.get("ok"):
            self.pending.pop(name, None)
        return reply

    # ------------------------------------------------------------------
    # Trigger channel (repro.triggers, DESIGN.md S32)

    async def pump_triggers(self) -> None:
        """Drain every worker's edge outbox and route the edges on.

        Each edge counts per plan (:func:`~repro.triggers.plan.count_edge`)
        and reaches a target only if it is newer, in its trigger's order
        (:meth:`_in_edge_order`), than the newest edge the target's shard
        flipped inline: one its raising worker hosted and still holds,
        not moving (DESIGN.md S32). The control ops may change the plans
        while this awaits: it walks a copy.
        """
        if not self.trigger_plans:
            return
        events: list[tuple[str, dict[str, Any]]] = []
        async for wid, reply in self._live_replies(
                {"op": "w_trigger_events"}):
            events.extend((wid, event) for event in reply.get("events", ())
                          if event.get("op") in ("arm", "disarm"))
        events = self._in_edge_order(events)
        flipped = {(event["trigger"], sid): i
                   for i, (wid, event) in enumerate(events)
                   for sid in event["hosted"]
                   if self.routes[sid].worker_id == wid
                   and not self.routes[sid].moving}
        for i, (_, event) in enumerate(events):
            count_edge(self.trigger_plans, self.task_shard,
                       self.trigger_edges, event)
            for plan in list(self.trigger_plans.values()):
                sid = self.task_shard.get(plan.target)
                if (plan.trigger != event["trigger"] or sid is None
                        or flipped.get((plan.trigger, sid), -1) >= i):
                    continue
                try:
                    await self._shard_call(sid, {
                        "op": "w_trigger_set", "shard": sid,
                        "task": plan.target, "armed": event["op"] == "arm"})
                except ClusterError:
                    pass

    def _in_edge_order(self, events: list[tuple[str, dict[str, Any]]],
                       ) -> list[tuple[str, dict[str, Any]]]:
        """Each trigger's ``(worker, edge)`` pairs in the order its
        watcher raised them — steps non-decreasing, a tie to the
        trigger's current worker — in the slots the trigger holds."""
        def key(item: tuple[str, dict[str, Any]]) -> tuple[int, bool]:
            wid, event = item
            sid = self.task_shard.get(event["trigger"])
            return (int(event["step"]),
                    sid is not None and self.routes[sid].worker_id == wid)

        queues: dict[str, deque[tuple[str, dict[str, Any]]]] = {}
        for item in sorted(events, key=key):
            queues.setdefault(item[1]["trigger"], deque()).append(item)
        return [queues[event["trigger"]].popleft() for _, event in events]

    # ------------------------------------------------------------------
    # Migration

    async def migrate(self, shard_id: int, target: str) -> dict[str, Any]:
        """Move one shard to ``target`` live.

        Protocol: hold new ops to the shard → wait in-flight →
        drain+snapshot source → restore on target → **fingerprint
        check** → cutover → release the held ops → drop source copy. Any
        failure before cutover aborts with the source untouched, and the
        held ops go on to it.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ClusterError(f"no such shard {shard_id}")
        if target not in self.transports or target in self._dead:
            raise ClusterError(f"no such worker {target!r}")
        routed = self.routes[shard_id]
        source = routed.worker_id
        if target == source:
            return {"ok": True, "shard": shard_id, "from": source,
                    "to": target, "noop": True}
        if routed.moving:
            raise ClusterError(
                f"shard {shard_id} is already migrating")
        routed.begin_move()
        try:
            await routed.wait_idle()
            snap = await self._request(source, {
                "op": "w_snapshot_shard", "shard": shard_id, "drain": True,
                "fingerprint": True})
            if not snap.get("ok"):
                raise ClusterError(
                    f"cannot snapshot shard {shard_id} on {source}: "
                    f"{snap.get('error')}")
            restored = await self._request(target, {
                "op": "w_restore_shard", "shard": shard_id,
                "snapshot": snap["snapshot"], "counters": snap["counters"],
                "adaptation": self.adaptation.to_dict(), "fingerprint": True})
            if not restored.get("ok"):
                raise ClusterError(
                    f"cannot restore shard {shard_id} on {target}: "
                    f"{restored.get('error')}")
            if restored.get("fingerprint") != snap.get("fingerprint"):
                await self._best_effort(target, {"op": "w_drop_shard",
                                                 "shard": shard_id})
                raise ClusterError(
                    f"fingerprint mismatch migrating shard {shard_id}: "
                    f"source {snap.get('fingerprint')} != target "
                    f"{restored.get('fingerprint')}; migration aborted")
            routed.worker_id = target
        except Exception:
            self.trace.emit("migration_aborted", shard=shard_id,
                            source=source, target=target)
            raise  # the source is still authoritative
        finally:
            routed.end_move()
        await self._best_effort(source, {"op": "w_drop_shard",
                                         "shard": shard_id})
        self.migrations += 1
        self.trace.emit("shard_migrated", shard=shard_id, source=source,
                        target=target, fingerprint=snap.get("fingerprint"))
        return {"ok": True, "shard": shard_id, "from": source, "to": target,
                "fingerprint": snap.get("fingerprint"),
                "fingerprint_match": True}

    # ------------------------------------------------------------------
    # Failure detection and re-placement

    async def _heartbeat_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            try:
                await self._heartbeat_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - keep the loop alive
                logger.exception("heartbeat pass failed")

    async def _heartbeat_once(self) -> None:
        missed: list[str] = []
        async for wid, _ in self._live_replies(
                {"op": "w_ping"}, timeout=self.config.heartbeat_timeout,
                on_miss=missed.append):
            self._misses[wid] = 0
        for wid in missed:
            self._note_failure(wid)
            if self._misses[wid] >= self.config.heartbeat_misses:
                await self._handle_worker_loss(wid)
        await self.pump_triggers()
        await self.pull_traces()
        await self.refresh_fleet()
        # The recovery copy, refreshed every beat so a re-placement loses
        # at most one beat of sampler adaptation, checkpoint file or not.
        await self._collect_state()

    async def _handle_worker_loss(self, worker_id: str) -> None:
        async with self._recover_lock:
            if worker_id in self._dead:
                return
            self._dead.add(worker_id)
        self.trace.emit("worker_lost", worker=worker_id,
                        misses=self._misses.get(worker_id, 0))
        logger.warning("worker %s declared dead after %d missed heartbeats",
                       worker_id, self._misses.get(worker_id, 0))
        survivors = [wid for wid in sorted(self.transports)
                     if wid not in self._dead]
        if not survivors:
            logger.error("no surviving workers; shards on %s are offline",
                         worker_id)
            return
        load = {wid: sum(1 for r in self.routes if r.worker_id == wid)
                for wid in survivors}
        for routed in self.routes:
            if routed.worker_id != worker_id:
                continue
            routed.begin_move()
            try:
                new_wid = min(survivors, key=lambda w: (load[w], w))
                entry = self._recovery.get(str(routed.shard_id))
                old = routed.worker_id
                routed.worker_id = new_wid
                await self._place_shard(routed, entry)
                load[new_wid] += 1
                self.replacements += 1
                self.trace.emit("shard_replaced", shard=routed.shard_id,
                                source=old, target=new_wid,
                                recovered=entry is not None)
            except ClusterError:
                logger.exception("re-placement of shard %d failed",
                                 routed.shard_id)
            finally:
                routed.end_move()
        transport = self.transports.get(worker_id)
        if transport is not None:
            try:
                await asyncio.wait_for(transport.close(), timeout=5.0)
            except (asyncio.TimeoutError, ClusterError,
                    OSError):  # pragma: no cover - already dead
                pass

    async def kill_worker(self, worker_id: str) -> None:
        """Hard-kill one worker (chaos tests / CI re-placement check)."""
        transport = self.transports.get(worker_id)
        if transport is None:
            raise ClusterError(f"no such worker {worker_id!r}")
        kill = getattr(transport, "kill", None)
        if kill is None:
            raise ClusterError(
                f"worker {worker_id} backend cannot be killed remotely")
        await kill()

    # ------------------------------------------------------------------
    # Checkpointing

    async def _collect_state(self) -> dict[str, Any]:
        """Collect every shard's checkpoint entry into the recovery copy
        and return it (``{"<sid>": {"snapshot", "counters"}}``).

        A shard that does not answer this pass keeps its last-known-good
        entry, so a later re-placement still has something to restore
        from: its worker is unreachable (possibly dying, not yet declared
        dead) or dead with no survivor to re-place it on. A registration
        logged before the pass leaves ``pending`` once a snapshot
        collected here holds its task.

        Passes (heartbeat, periodic checkpoint, ``checkpoint`` op) run one
        at a time: a pass that ended after a newer one would otherwise
        install older shards as the recovery copy after the newer pass
        had retired the pending entries only its snapshots hold.
        """
        async with self._collect_lock:
            logged = dict(self.pending)
            shards: dict[str, Any] = {}
            held: set[str] = set()
            for routed in self.routes:
                key = str(routed.shard_id)
                try:
                    reply = await self._request(routed.worker_id, {
                        "op": "w_snapshot_shard", "shard": routed.shard_id})
                except ClusterError:
                    reply = {}
                if reply.get("ok"):
                    shards[key] = {"snapshot": reply["snapshot"],
                                   "counters": reply["counters"]}
                    held.update(snapshot_task_names(reply["snapshot"]))
                elif key in self._recovery:
                    shards[key] = self._recovery[key]
            for name, entry in logged.items():
                if name in held and self.pending.get(name) is entry:
                    del self.pending[name]
            self._recovery = shards
            return shards

    async def _collect_shards(self) -> tuple[dict[str, Any], dict[str, Any]]:
        return await self._collect_state(), {"placement": {
            str(r.shard_id): r.worker_id for r in self.routes}}

    # ------------------------------------------------------------------
    # Fleet telemetry (the HTTP route handlers are synchronous, so they
    # serve the heartbeat-refreshed fleet cache and never await workers)

    async def pull_traces(self) -> None:
        """Drain worker sampler traces into the server's ring.

        Re-emitted events get the ring's own sequence numbers, so events
        a worker's ring evicted before the pull would leave no gap: the
        ring's ``dropped`` counts each worker's evictions since the last
        pull (a restarted worker's counter starts again at 0).
        """
        async with self._trace_lock:
            async for wid, reply in self._live_replies(lambda w: {
                    "op": "w_trace", "since": self._trace_cursor.get(w, 0)}):
                self._trace_cursor[wid] = int(reply.get("next_seq", 0))
                dropped = int(reply.get("dropped", 0))
                seen = self._trace_dropped.get(wid, 0)
                self.trace.dropped += (dropped - seen if dropped >= seen
                                       else dropped)
                self._trace_dropped[wid] = dropped
                for event in reply.get("events", ()):
                    data = {k: v for k, v in event.items()
                            if k not in ("seq", "ts_monotonic", "kind",
                                         "task", "shard")}
                    self.trace.emit(str(event.get("kind")),
                                    task=event.get("task"),
                                    shard=event.get("shard"),
                                    worker=wid, **data)

    async def refresh_fleet(self) -> None:
        """Pull raw worker registries, merge, cache for the HTTP server."""
        snaps = {wid: reply.get("metrics", {}) async for wid, reply
                 in self._live_replies({"op": "w_telemetry"})}
        self._fleet_cache = merge_fleet_snapshots(
            snaps, base=self.registry.snapshot())

    def _metrics(self) -> dict[str, Any]:
        return self._fleet_cache or self.registry.snapshot()

    def _health(self) -> dict[str, Any]:
        workers = self.placement()["workers"]
        up = sum(1 for w in workers.values() if w["alive"])
        body = super()._health()
        body.update(ok=body["ok"] and up > 0, workers=len(workers),
                    workers_up=up)
        return body

    def placement(self) -> dict[str, Any]:
        """The live placement table (the ``placement`` wire op's body)."""
        return {
            "n_shards": self.n_shards,
            "workers": {wid: {"alive": wid not in self._dead
                              and t.alive,
                              "pid": self.worker_pids()[wid],
                              "shards": sorted(
                                  r.shard_id for r in self.routes
                                  if r.worker_id == wid)}
                        for wid, t in self.transports.items()},
            "migrations": self.migrations,
            "replacements": self.replacements,
        }

    # ------------------------------------------------------------------
    # Ops whose cluster form first syncs state held on the workers

    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        reply = await super()._op_ping(request)
        reply["workers"] = len(self.transports)
        return reply

    async def _op_trigger_plans(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        await self.pump_triggers()
        return await super()._op_trigger_plans(request)

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        reply = await super()._op_stats(request)
        # Shed at the routing tier (an unreachable worker) never reached
        # a shard queue; fold it into the total so offered/applied/shed
        # accounting stays conservation-true.
        reply["totals"]["shed"] += self.router_shed
        reply["cluster"] = {
            "workers": len(self.transports),
            "workers_up": sum(1 for wid in self.transports
                              if wid not in self._dead),
            "router_shed": self.router_shed,
            "migrations": self.migrations,
            "replacements": self.replacements,
        }
        return reply

    async def _op_telemetry(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        await self.refresh_fleet()
        return await super()._op_telemetry(request)

    async def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        await self.pull_traces()
        return await super()._op_trace(request)

    # ------------------------------------------------------------------
    # Ops — cluster-only

    async def _op_migrate(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self.migrate(int(request.get("shard", -1)),
                                  str(request.get("worker", "")))

    async def _op_placement(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        return {"ok": True, **self.placement()}

    _OPS = WireServer._OPS | {"migrate", "placement"}
