"""The cluster coordinator: placement table, migration, failure recovery.

One :class:`Coordinator` owns the authoritative map from global shard id
to worker, reached through a :class:`~repro.cluster.transport.ShardTransport`
per worker. Everything stateful about the cluster flows through here:

* **Forwarding** — :meth:`submit_columns` takes pre-routed per-shard
  column segments and fans them out, one ``SHARD_OFFER`` frame per
  touched worker. A worker that cannot be reached costs its updates a
  *shed* (never a silent loss) and feeds the failure detector.
* **Live migration** — :meth:`migrate` moves one shard between workers
  under load: buffer incoming offers, wait for in-flight forwards, drain
  the source, snapshot, restore on the target, verify the restored
  state's fingerprint matches the source's **before** cutover, then
  replay the buffer. A fingerprint mismatch aborts the migration with
  the source still authoritative — the failure mode is a rejected
  migration, never a corrupted shard.
* **Failure re-placement** — a heartbeat loop declares a worker dead
  after ``heartbeat_misses`` consecutive missed pings and rebuilds its
  shards on survivors from the recovery copy (or fresh when no copy
  covered the shard), then re-registers the pending registrations no
  copy holds — the at-most-once contract: ACKed-and-applied survives via
  snapshots, queued-but-unapplied dies with the process.
* **Fleet telemetry** — per-worker registries are pulled raw and merged
  (:mod:`repro.cluster.fleet`); worker sampler traces are pulled and
  re-emitted into the coordinator's ring so one ``trace`` stream covers
  the whole cluster.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import pathlib
import tempfile
import time
from collections import deque
from typing import Any, AsyncIterator, Callable

from repro.config import ClusterConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ClusterError, ConfigurationError
from repro.runtime.protocol import SHED_RETRY_MS
from repro.service import snapshot_task_names
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import DecisionTrace
from repro.triggers.plan import TriggerPlan, count_edge

from repro.cluster.fleet import merge_fleet_snapshots
from repro.cluster.hosting import WorkerHost
from repro.cluster.transport import (InProcTransport, ShardTransport,
                                     SubprocessTransport, TCPTransport)

__all__ = ["Coordinator", "ShardRoute"]

logger = logging.getLogger(__name__)

_FLUSH_RETRY_LIMIT = 200
"""Shed-retry attempts per buffered segment during replay before giving up
(each waits ``SHED_RETRY_MS``, so ~10s of backpressure)."""

BUFFER_DEPTH = 65536
"""Updates buffered per shard while it migrates; overflow is shed with
the usual backpressure reply."""


class ShardRoute:
    """Routing-table entry for one global shard."""

    __slots__ = ("shard_id", "worker_id", "buffering", "buffer",
                 "buffered_updates", "inflight", "_idle", "_settled")

    def __init__(self, shard_id: int, worker_id: str):
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.buffering = False
        # (gids, steps, values) column segments ACKed while buffering.
        self.buffer: list[tuple[Any, Any, Any]] = []
        self.buffered_updates = 0
        self.inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._settled = asyncio.Event()
        self._settled.set()

    def begin_buffering(self) -> None:
        self.buffering = True
        self._settled.clear()

    def end_buffering(self) -> None:
        self.buffering = False
        self._settled.set()

    async def wait_settled(self) -> None:
        """Block until no migration/re-placement is in progress."""
        await self._settled.wait()

    async def wait_idle(self) -> None:
        """Block until no forwarded offer is in flight for this shard."""
        await self._idle.wait()


class Coordinator:
    """Owns placement, migration, recovery and fleet telemetry."""

    def __init__(self, config: ClusterConfig,
                 adaptation: AdaptationConfig | None = None):
        self.config = config
        self.adaptation = adaptation or AdaptationConfig()
        self.registry = MetricsRegistry()
        self.trace = DecisionTrace(config.trace_capacity)
        self.n_shards = config.n_shards
        self.transports: dict[str, ShardTransport] = {}
        self.routes: list[ShardRoute] = []
        # task_shard, pending, trigger_plans and trigger_edges are
        # shared with the ClusterServer front end, whose control ops
        # write them: mutate in place, never rebind. ``pending`` logs
        # each registration, as registered, until a collected snapshot
        # holds its task (:meth:`_collect_state`).
        self.task_shard: dict[str, int] = {}
        self.pending: dict[str, dict[str, Any]] = {}
        # Cluster-global task ids for the binary columnar path: assigned
        # densely on first use (:meth:`gid_for`), synced lazily to each
        # worker host as a per-worker watermark (gids below it are
        # interned there). These are runtime-scoped, not checkpointed.
        self.gids: dict[str, int] = {}
        self.gid_names: list[str] = []
        self._gid_synced: dict[str, int] = {}
        # Trigger channel (repro.triggers): installed plans by target,
        # plus routed-edge accounting. Plans are coordinator state — they
        # survive checkpoints and are re-installed with every shard
        # placement, so a guard keeps working across migration/failover.
        self.trigger_plans: dict[str, TriggerPlan] = {}
        self.trigger_edges = {"arm": 0, "disarm": 0}
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
        self._started_monotonic = time.monotonic()
        self._worker_up = self.registry.gauge(
            "volley_worker_up", "1 while the worker answers heartbeats",
            labels=("worker",))
        self.registry.counter(
            "volley_migrations_total", "Completed live shard migrations",
            fn=lambda: float(self.migrations))
        self.registry.counter(
            "volley_replacements_total",
            "Shards re-placed after worker failure",
            fn=lambda: float(self.replacements))
        self.registry.gauge(
            "volley_coordinator_uptime_seconds",
            "Seconds since the coordinator started",
            fn=lambda: time.monotonic() - self._started_monotonic)
        # Shed at the routing tier (unreachable worker / buffer overflow).
        # Label shape matches the per-worker shed family after the fleet
        # merge prepends "worker", so family totals stay truthful.
        self.registry.counter(
            "volley_updates_shed_total",
            "Updates shed under backpressure", labels=("worker", "shard"),
        ).labels("router", "-", fn=lambda: float(self.router_shed))

    # ------------------------------------------------------------------
    # Lifecycle

    def _adaptation_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self.adaptation)

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

    async def start(self, shards: dict[str, Any],
                    placement: dict[str, str]) -> None:
        """Spawn/connect workers, place every shard, start the heartbeat.

        A shard with an entry in ``shards`` (``{"<sid>": {"snapshot",
        "counters"}}``, a checkpoint's) is restored from it, and the
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
                "adaptation": self._adaptation_dict()})
        else:
            reply = await self._request(routed.worker_id, {
                "op": "w_restore_shard", "shard": routed.shard_id,
                "snapshot": entry["snapshot"],
                "counters": entry.get("counters"),
                "adaptation": self._adaptation_dict()})
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

    async def stop_heartbeat(self) -> None:
        """Stop the failure detector (the first step of a shutdown: the
        final checkpoint must not race a re-placement)."""
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    async def shutdown(self) -> None:
        """Stop the heartbeat and close every transport."""
        await self.stop_heartbeat()
        await asyncio.gather(
            *(t.close() for t in self.transports.values()),
            return_exceptions=True)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # ------------------------------------------------------------------
    # Worker RPC helpers

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

    async def shard_call(self, sid: int,
                         payload: dict[str, Any]) -> dict[str, Any]:
        """Send one ``w_*`` op to whichever worker hosts shard ``sid``,
        once no migration or re-placement of it is in progress."""
        routed = self.routes[sid]
        await routed.wait_settled()
        return await self._request(routed.worker_id, payload)

    def _note_failure(self, worker_id: str) -> None:
        """A data-path request failed; let the heartbeat confirm sooner."""
        self._misses[worker_id] = self._misses.get(worker_id, 0) + 1

    def worker_pids(self) -> dict[str, int | None]:
        """Worker process ids (router pid for in-proc hosts)."""
        import os
        pids: dict[str, int | None] = {}
        for wid, transport in self.transports.items():
            pid = getattr(transport, "pid", None)
            pids[wid] = pid if pid is not None else (
                os.getpid() if isinstance(transport, InProcTransport)
                else None)
        return pids

    # ------------------------------------------------------------------
    # Data path

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

    async def drain(self) -> None:
        """Wait until every live worker has applied its queued batches."""
        async for _ in self._live_replies({"op": "w_drain"},
                                          on_miss=self._note_failure):
            pass
        # Propagate any trigger edges the drained batches produced, so a
        # caller that drains at a phase boundary observes guard state
        # deterministically (scenario replay relies on this).
        await self.pump_triggers()

    def gid_for(self, name: str) -> int:
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

    async def submit_columns(
            self, per_shard: dict[int, tuple[Any, Any, Any]],
    ) -> tuple[int, int, int]:
        """Forward pre-routed gid columns; returns (accepted, shed,
        rejected).

        ``per_shard`` maps shard id to ``(gids, steps, values)`` arrays.
        Buffering (migrating) shards ACK the segment into their migration
        buffer, replayed after cutover — an ACK here carries the same
        durability as an ACK into a shard queue. Everything else groups
        into one binary ``SHARD_OFFER`` frame per worker, sent
        concurrently.
        """
        accepted = shed = rejected = 0
        per_worker: dict[str, list[Any]] = {}
        touched: list[ShardRoute] = []
        for sid, (gids, steps, values) in per_shard.items():
            routed = self.routes[sid]
            if routed.buffering:
                if (routed.buffered_updates + len(gids)
                        <= BUFFER_DEPTH):
                    routed.buffer.append((gids, steps, values))
                    routed.buffered_updates += len(gids)
                    accepted += len(gids)
                else:
                    self.router_shed += len(gids)
                    shed += len(gids)
                continue
            per_worker.setdefault(routed.worker_id, []).append(
                (sid, gids, steps, values))
            routed.inflight += 1
            routed._idle.clear()
            touched.append(routed)
        if per_worker:
            try:
                results = await asyncio.gather(
                    *(self._offer_columns(wid, segments)
                      for wid, segments in per_worker.items()))
            finally:
                for routed in touched:
                    routed.inflight -= 1
                    if routed.inflight == 0:
                        routed._idle.set()
            for a, s, r in results:
                accepted += a
                shed += s
                rejected += r
        return accepted, shed, rejected

    async def _offer_columns(self, worker_id: str,
                             segments: list[Any]) -> tuple[int, int, int]:
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

    # ------------------------------------------------------------------
    # Trigger channel (repro.triggers, DESIGN.md S32)

    async def pump_triggers(self) -> None:
        """Drain every worker's edge outbox and route the edges on.

        Each edge counts per plan (:func:`~repro.triggers.plan.count_edge`)
        and reaches a target only if it is newer, in its trigger's order
        (:meth:`_in_edge_order`), than the newest edge the target's shard
        flipped inline: one its raising worker hosted and still holds,
        not moving (DESIGN.md S32). The plans are the front end's to
        change while this awaits: it walks a copy.
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
                   and not self.routes[sid].buffering}
        for i, (_, event) in enumerate(events):
            count_edge(self.trigger_plans, self.task_shard,
                       self.trigger_edges, event)
            for plan in list(self.trigger_plans.values()):
                sid = self.task_shard.get(plan.target)
                if (plan.trigger != event["trigger"] or sid is None
                        or flipped.get((plan.trigger, sid), -1) >= i):
                    continue
                try:
                    await self.shard_call(sid, {
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
        """Move one shard to ``target`` live, with offers buffered.

        Protocol: buffer → wait in-flight → drain+snapshot source →
        restore on target → **fingerprint check** → cutover → replay
        buffer → drop source copy. Any failure before cutover aborts
        with the source untouched and the buffer replayed to it.
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
        if routed.buffering:
            raise ClusterError(
                f"shard {shard_id} is already migrating")
        routed.begin_buffering()
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
                "adaptation": self._adaptation_dict(), "fingerprint": True})
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
            # Source is still authoritative; replay what we buffered.
            await self._flush(routed)
            routed.end_buffering()
            raise
        replayed = await self._flush(routed)
        routed.end_buffering()
        await self._best_effort(source, {"op": "w_drop_shard",
                                         "shard": shard_id})
        self.migrations += 1
        self.trace.emit("shard_migrated", shard=shard_id, source=source,
                        target=target, replayed=replayed,
                        fingerprint=snap.get("fingerprint"))
        return {"ok": True, "shard": shard_id, "from": source, "to": target,
                "replayed": replayed,
                "fingerprint": snap.get("fingerprint"),
                "fingerprint_match": True}

    async def _flush(self, routed: ShardRoute) -> int:
        """Replay a route's buffer head-first to its current worker."""
        replayed = 0
        retries = 0
        while routed.buffer:
            segment = routed.buffer[0]
            count = len(segment[0])
            try:
                accepted, shed, _ = await self._forward(
                    routed.worker_id, [(routed.shard_id, *segment)])
            except ClusterError:
                accepted = shed = 0
            if accepted == count:
                replayed += count
                routed.buffered_updates -= count
                routed.buffer.pop(0)
                retries = 0
                continue
            if shed and retries < _FLUSH_RETRY_LIMIT:
                retries += 1
                await asyncio.sleep(SHED_RETRY_MS / 1000.0)
                continue
            # Worker unreachable, shard rejected, or out of retries: the
            # remaining buffer is honestly accounted as shed and recovery
            # (if the worker is dead) is the heartbeat's job.
            for gids, _steps, _values in routed.buffer:
                self.router_shed += len(gids)
                routed.buffered_updates -= len(gids)
            routed.buffer.clear()
            break
        return replayed

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
            routed.begin_buffering()
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
                await self._flush(routed)
                routed.end_buffering()
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

    # ------------------------------------------------------------------
    # Fleet telemetry

    async def pull_traces(self) -> None:
        """Drain worker sampler traces into the coordinator's ring.

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

    async def refresh_fleet(self) -> dict[str, Any]:
        """Pull raw worker registries, merge, cache for the HTTP server."""
        snaps = {wid: reply.get("metrics", {}) async for wid, reply
                 in self._live_replies({"op": "w_telemetry"})}
        self._fleet_cache = merge_fleet_snapshots(
            snaps, base=self.registry.snapshot())
        return self._fleet_cache

    @property
    def fleet_snapshot(self) -> dict[str, Any]:
        """Last merged fleet metrics snapshot (heartbeat-refreshed)."""
        return self._fleet_cache

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
