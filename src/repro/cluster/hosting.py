"""Shard hosting: the worker-side half of the cluster runtime.

A :class:`WorkerHost` owns a set of :class:`~repro.runtime.shard.ShardWorker`
instances keyed by *global* shard id and exposes one async ``handle(request)
-> reply`` dispatch for the worker-side op surface (``w_*`` ops). The same
object backs every transport backend: the in-proc transport calls
:meth:`WorkerHost.handle` directly (zero-copy), the subprocess/TCP worker
(:mod:`repro.cluster.worker`) wraps it in a frame loop.

The host deliberately reuses the single-process runtime's building blocks
unchanged — :class:`~repro.runtime.shard.ShardWorker` queues,
:meth:`~repro.service.MonitoringService.snapshot` /
:meth:`~repro.service.MonitoringService.restore` for migration — so a
shard behaves bit-identically whether it lives in the router process, a
subprocess, or a remote peer. Shard state moves between workers only as
snapshot dicts (the checkpoint format), never as live objects.

One engine, one drain loop: every hosted shard's service holds its rows
in the host's one :class:`~repro.core.soa.SoaSamplerEngine`, and one
loop drains every shard's queue, a pass at a time — the head batch of
each non-empty queue, in shard order, applied as one batch
(:func:`~repro.runtime.shard.apply_pass`), so a frame split over the
shards ticks once per step, not once per shard and step. A pass gives
what applying its batches one shard after another gives. A shard that
leaves the host retires its rows, which are not reused: the engine grows
by one shard's rows per move-in.

Telemetry: each host carries its own
:class:`~repro.telemetry.registry.MetricsRegistry` with the standard
per-shard counter families and the ``volley_sampler_*`` counts, each a
sum over its hosted engine rows; the cluster server pulls raw snapshots
(``w_telemetry``) and merges them into the fleet view. Sampler decision
events (``interval_adapted`` / ``violation``) are emitted into the host's
local :class:`~repro.telemetry.trace.DecisionTrace` and pulled by the
cluster server's trace aggregation, so a cluster's trace stream carries the
same event kinds as a single-process runtime's.

Trigger edges: the host flips its *other* shards' guards on an edge's
trigger inside the pass that raised it, then passes the edge to
the outbox the cluster server pumps (``w_trigger_events``) or, for a host
with no peers, to its owner's ``edge_sink``.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.config import register_task_from_config
from repro.core.adaptation import AdaptationConfig
from repro.core.soa import SoaSamplerEngine
from repro.core.substrates import TASK_TYPES
from repro.exceptions import ConfigurationError, ReproError
from repro.runtime.checkpoint import state_fingerprint
from repro.runtime.protocol import intern_entries
from repro.runtime.shard import (SHARD_COUNTERS, ColumnBatch,
                                 InternedNames, ShardWorker, apply_pass,
                                 restore_counters)
from repro.service import MonitoringService
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import DecisionTrace
from repro.testkit.faults import FaultHook, NOOP_HOOK
from repro.triggers.plan import TriggerPlan

__all__ = ["WorkerHost"]

_MAX_GID = 1 << 20
"""Cap on cluster-global task ids a cluster server may intern on a host."""

_EDGE_OUTBOX = 4096
"""Edges a host holds for the cluster server's next pump; a storm past it
loses the oldest to other workers' guards, like trace events."""


_SAMPLER_COUNTERS = (
    ("volley_sampler_observations_total",
     "Sampling operations taken by hosted engine rows", "observations"),
    ("volley_sampler_grow_events_total",
     "Interval additive-increase events", "grow_events"),
    ("volley_sampler_reset_events_total",
     "Interval resets to the default", "reset_events"),
    ("volley_sampler_violations_total",
     "Threshold violations observed (one alert each)", "alerts"),
)
"""The paper's monitor-level cost (SIII): each a sum of one engine
column over the hosted shards' rows, read when a snapshot is taken."""


def _error(message: str, code: str = "bad-request") -> dict[str, Any]:
    return {"ok": False, "error": message, "code": code}


class WorkerHost:
    """Hosts a mutable set of global shards inside one event loop.

    Args:
        worker_id: stable identifier within the cluster (``w0``, ``w1``,
            ...); labels every metric series and trace event this host
            produces.
        queue_depth: per-shard ingest queue depth, in batches; the drain
            loop takes at most one batch of a shard per pass.
        adaptation: default adaptation tunables for tasks registered on
            hosted shards (the cluster server forwards its own).
        registry: metrics registry; the default creates a live one so
            per-worker counters always exist for the fleet merge.
        trace: decision trace for sampler events; the default creates a
            local ring the cluster server drains via ``w_trace``.
        fault_hook: chaos-testing seam (``repro.testkit``) handed to
            every hosted :class:`~repro.runtime.shard.ShardWorker` and
            consulted by :meth:`enqueue` (``force_shed``).
        edge_sink: where an edge goes once this host flipped its own
            guards; default the outbox the cluster server pumps. A host
            with no peers (the runtime's) passes its owner's counter.
    """

    def __init__(self, worker_id: str, queue_depth: int = 1024,
                 adaptation: AdaptationConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 trace: DecisionTrace | None = None,
                 trace_capacity: int = 4096,
                 fault_hook: FaultHook = NOOP_HOOK,
                 edge_sink: Callable[[dict[str, Any]], None] | None = None):
        self.worker_id = worker_id
        self.queue_depth = queue_depth
        self.fault_hook = fault_hook
        # Cluster-global task-id table, interned lazily by the cluster server
        # (``w_intern``). Lives on the *host*, not a shard, so it survives
        # shard migrations in and out of this worker.
        self.gid_names: list[str | None] = []
        # Per-shard gid -> SoA engine row cache (-1 = no such task here:
        # resolve by name). Invalidated whenever the shard's service or
        # task set changes — a task keeps its row for life; stale rows
        # are safe because engine rows are never reused (a removed
        # task's row stays inactive -> re-resolved by name).
        self._gid_rows: dict[int, np.ndarray] = {}
        self.adaptation = adaptation or AdaptationConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else DecisionTrace(
            trace_capacity)
        self.shards: dict[int, ShardWorker] = {}
        # The one engine every hosted shard's service holds its rows in,
        # and what the one drain loop takes batches from, in shard order:
        # the hosted shards, and a leaving one until its queue drains.
        self.engine = SoaSamplerEngine()
        self._members: list[ShardWorker] = []
        self._wake = asyncio.Event()
        self._drainer: asyncio.Task[None] | None = None
        # Host-level, not per shard: an edge outlives a shard that
        # migrates away before the next pump.
        self._outbox: deque[dict[str, Any]] = deque(maxlen=_EDGE_OUTBOX)
        self._edge_sink = (edge_sink if edge_sink is not None
                           else self._outbox.append)
        self._started_monotonic = time.monotonic()
        self._interval_hist = self.registry.histogram(
            "volley_sampling_interval",
            "Sampling interval after each consumed update")
        self._queue_depth_family = self.registry.gauge(
            "volley_queue_depth", "Batches queued per shard",
            labels=("shard",))
        self.registry.gauge(
            "volley_worker_uptime_seconds",
            "Seconds since this worker host started",
            fn=lambda: time.monotonic() - self._started_monotonic)
        self._counter_families = [
            (self.registry.counter(counter.family, counter.help,
                                   labels=("shard",)), counter.attr)
            for counter in SHARD_COUNTERS]
        for name, help_text, column in _SAMPLER_COUNTERS:
            self.registry.counter(
                name, help_text, fn=lambda c=column: self._row_sum(c))
        # Trigger-channel accounting rides the fleet telemetry merge like
        # every other per-worker family.
        self.registry.counter(
            "volley_trigger_suspensions_total",
            "Consumed offers deferred by disarmed trigger guards",
            fn=lambda: float(sum(w.service.trigger_accounting()[0]
                                 for w in self.shards.values())))
        self.registry.gauge(
            "volley_trigger_probe_cost_saved",
            "Estimated probe collections avoided by trigger guards",
            fn=lambda: float(sum(w.service.trigger_accounting()[1]
                                 for w in self.shards.values())))
        by_type = self.registry.gauge(
            "volley_tasks_by_type",
            "Monitoring tasks registered, per task type", labels=("type",))
        for kind in TASK_TYPES:
            by_type.labels(kind, fn=lambda k=kind: float(sum(
                w.service.task_type_counts().get(k, 0)
                for w in self.shards.values())))

    def _row_sum(self, column: str) -> float:
        """Engine ``column`` summed over every row the hosted shards'
        services hold — a removed task's row too, until its shard is
        restored or moved — and over no row of a shard that left."""
        engine = self.engine
        rows = len(engine)
        hosted = np.zeros(engine.holders + 1, dtype=bool)
        hosted[[worker.service.holder
                for worker in self.shards.values()]] = True
        return float(getattr(engine, column)[:rows][
            hosted[engine.holder[:rows]]].sum())

    # ------------------------------------------------------------------
    # Shard lifecycle

    def start(self) -> None:
        """Start the drain loop on the running event loop (idempotent)."""
        if self._drainer is None:
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain(), name=f"host-{self.worker_id}")

    async def _drain(self) -> None:
        """The one consumer of every hosted shard's queue: passes
        (:func:`~repro.runtime.shard.apply_pass`) until every queue is
        empty, then sleep until a batch is queued. A pass awaits nothing,
        so no batch is queued while one runs: a batch waits behind at
        most the passes its own shard's backlog needs."""
        while True:
            self._wake.clear()
            while apply_pass(self._members, self._interval_hist):
                pass
            await self._wake.wait()

    async def close(self, drain: bool = True) -> None:
        """Stop the drain loop; with ``drain`` apply every queued batch
        first, else drop them."""
        if drain and self._drainer is not None:
            for worker in list(self._members):
                await worker.drain()
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
            self._drainer = None
        if not drain:
            for worker in self._members:
                worker.abort()

    def install_shard(self, shard_id: int,
                      snapshot: dict[str, Any] | None = None,
                      counters: dict[str, Any] | None = None,
                      ) -> ShardWorker:
        """Host shard ``shard_id``: fresh, or restored from a snapshot.

        The one place a shard comes to life — wired to the host's trace,
        interval histogram and per-shard metric series, its service's
        alert-count sink feeding ``alerts_fired`` a batch at a time, with
        checkpointed ``counters`` carried over. Every hosted shard's
        service holds its rows in the host's engine: offers reach it as
        columns whatever encoding the client used. A snapshot that does
        not load raises before anything hosted is touched; one that does
        takes the table entry of a hosted shard of the same id, whose
        queued batches are dropped and rows retired. The service's
        trigger sink is the host's (:meth:`_route_edge`).
        """
        if snapshot is None:
            service = MonitoringService(self.adaptation, soa=self.engine)
        else:
            service = MonitoringService.restore(dict(snapshot),
                                                soa=self.engine)
        previous = self._forget(shard_id)
        if previous is not None:
            self._retire(previous)
        worker = ShardWorker(shard_id, service, self.queue_depth,
                             fault_hook=self.fault_hook,
                             wake=self._wake.set)

        def count_alerts(fired: int) -> None:
            worker.alerts_fired += fired
        service.set_alert_count_sink(count_alerts)
        service.set_trigger_sink(
            lambda event: self._route_edge(shard_id, event))
        if counters:
            restore_counters(worker, counters)
        worker.interval_hist = self._interval_hist
        service.attach_telemetry(self.trace, shard_id)
        self.shards[shard_id] = worker
        for family, attr in self._counter_families:
            family.labels(shard_id,
                          fn=lambda w=worker, a=attr: float(getattr(w, a)))
        self._queue_depth_family.labels(
            shard_id, fn=lambda w=worker: float(w.depth))
        # A stable sort: a leaving shard's batches still go first.
        self._members.append(worker)
        self._members.sort(key=attrgetter("shard_id"))
        return worker

    def _forget(self, shard_id: int) -> ShardWorker | None:
        """Drop a shard's table entry, row cache and metric series."""
        self._gid_rows.pop(shard_id, None)
        for family, _attr in self._counter_families:
            family.remove(shard_id)
        self._queue_depth_family.remove(shard_id)
        return self.shards.pop(shard_id, None)

    def _retire(self, worker: ShardWorker) -> None:
        """Let a shard go: drop what its queue holds, take it out of the
        drain loop and retire its service's rows."""
        worker.abort()
        self._members.remove(worker)
        worker.service.retire()

    async def _uninstall(self, shard_id: int, drain: bool) -> None:
        """Drop a shard: out of the op table at once, so nothing more is
        queued for it; with ``drain`` (and a running drain loop) its
        queued batches are applied first."""
        worker = self._forget(shard_id)
        if drain and self._drainer is not None:
            await worker.drain()
        self._retire(worker)

    def _shard(self, shard_id: int) -> ShardWorker:
        worker = self.shards.get(shard_id)
        if worker is None:
            raise KeyError(f"worker {self.worker_id} does not host shard "
                           f"{shard_id}")
        return worker

    def _route_edge(self, shard_id: int, event: dict[str, Any]) -> None:
        """Every hosted service's trigger sink: shard ``shard_id`` raised
        ``event`` and flipped its own guards; flip those the other hosted
        shards hold on its trigger, inline, then pass it on stamped with
        every shard that has now seen it (``hosted``), so a pump
        delivers it only to the rest."""
        armed = event["op"] == "arm"
        for sid, worker in self.shards.items():
            if sid != shard_id:
                worker.service.flip_guards(event["trigger"], armed)
        event["hosted"] = sorted(self.shards)
        self._edge_sink(event)

    # ------------------------------------------------------------------
    # Dispatch

    async def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Dispatch one worker-side request; always returns a reply dict."""
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            return _error(f"unknown worker op {op!r}", code="unknown-op")
        try:
            reply = handler(self, request)
            if hasattr(reply, "__await__"):
                reply = await reply
            return reply
        except KeyError as exc:
            return _error(str(exc.args[0]) if exc.args else str(exc),
                          code="unknown-shard")
        except ReproError as exc:
            return _error(str(exc))
        except (ValueError, TypeError) as exc:
            return _error(f"invalid request: {exc}")

    # ------------------------------------------------------------------
    # Ops — lifecycle / placement

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "worker_id": self.worker_id, "pid": os.getpid(),
                "shards": sorted(self.shards),
                "uptime_s": time.monotonic() - self._started_monotonic}

    def _op_add_shard(self, request: dict[str, Any]) -> dict[str, Any]:
        shard_id = int(request["shard"])
        if shard_id in self.shards:
            return _error(f"worker {self.worker_id} already hosts shard "
                          f"{shard_id}", code="shard-exists")
        adaptation = request.get("adaptation")
        if adaptation is not None:
            self.adaptation = AdaptationConfig.from_dict(adaptation)
        self.install_shard(shard_id)
        return {"ok": True, "shard": shard_id}

    def _op_restore_shard(self, request: dict[str, Any]) -> dict[str, Any]:
        """Install a shard from a snapshot (migration target / recovery).

        With ``"fingerprint": true`` the reply carries the fingerprint of
        the *re-serialised* restored state, so a migration can verify
        the transfer was bit-identical before cutting traffic over;
        recovery and start-up restores compare nothing and do not ask.
        """
        shard_id = int(request["shard"])
        adaptation = request.get("adaptation")
        if adaptation is not None:
            self.adaptation = AdaptationConfig.from_dict(adaptation)
        # Restore first, swap after: a snapshot that does not load is
        # an error reply, and costs the worker nothing it hosts.
        worker = self.install_shard(shard_id, request.get("snapshot"),
                                    request.get("counters"))
        reply = {"ok": True, "shard": shard_id,
                 "tasks": len(worker.service.task_names)}
        if request.get("fingerprint"):
            reply["fingerprint"] = state_fingerprint(
                worker.service.snapshot())
        return reply

    async def _op_snapshot_shard(self, request: dict[str, Any],
                                 ) -> dict[str, Any]:
        """Serialise one shard's full state (optionally after draining;
        with its fingerprint when a migration asks for one)."""
        shard_id = int(request["shard"])
        worker = self._shard(shard_id)
        if bool(request.get("drain", False)):
            await worker.drain()
        snapshot = worker.service.snapshot()
        reply = {"ok": True, "shard": shard_id, "snapshot": snapshot,
                 "counters": worker.stats()}
        if request.get("fingerprint"):
            reply["fingerprint"] = state_fingerprint(snapshot)
        return reply

    async def _op_drop_shard(self, request: dict[str, Any]) -> dict[str, Any]:
        shard_id = int(request["shard"])
        self._shard(shard_id)  # raise unknown-shard before popping
        await self._uninstall(shard_id, drain=bool(request.get("drain",
                                                               False)))
        return {"ok": True, "shard": shard_id}

    async def _op_drain(self, request: dict[str, Any]) -> dict[str, Any]:
        shard = request.get("shard")
        workers = ([self._shard(int(shard))] if shard is not None
                   else list(self.shards.values()))
        for worker in workers:
            await worker.drain()
        return {"ok": True, "drained": [w.shard_id for w in workers]}

    # ------------------------------------------------------------------
    # Ops — data path

    def _op_intern(self, request: dict[str, Any]) -> dict[str, Any]:
        """Extend the host's gid table: ``{"tasks": [[gid, name], ...]}``.

        The cluster server assigns gids densely and syncs lazily before the
        first columnar forward that references them, so this is called
        rarely (new tasks only) and may re-intern existing entries.
        """
        entries = request.get("tasks")
        problem = intern_entries(self.gid_names, entries, _MAX_GID, "gid")
        if problem is not None:
            return _error(problem)
        # New names may resolve to rows the caches marked unknown.
        self._gid_rows.clear()
        return {"ok": True, "interned": len(entries),
                "table_size": len(self.gid_names)}

    def _rows_for(self, shard_id: int, gids: np.ndarray) -> np.ndarray:
        """Resolve gids to SoA engine rows through the per-shard cache
        (all ``-1`` for a shard this host does not hold)."""
        worker = self.shards.get(shard_id)
        if worker is None:
            return np.full(len(gids), -1, dtype=np.int64)
        cache = self._gid_rows.get(shard_id)
        table = len(self.gid_names)
        if cache is None or len(cache) < table:
            fresh = np.full(table, -2, dtype=np.int64)
            if cache is not None:
                fresh[:len(cache)] = cache
            cache = self._gid_rows[shard_id] = fresh
        in_range = gids[(gids >= 0) & (gids < table)]
        # A set, not np.unique: NumPy imports numpy.ma on its first call.
        for gid in set(in_range[cache[in_range] == -2].tolist()):
            name = self.gid_names[gid]
            row = -1
            if name is not None:
                try:
                    row = worker.service.soa_row_for(name)
                except ConfigurationError:
                    row = -1
            cache[gid] = row
        rows = np.full(len(gids), -1, dtype=np.int64)
        mask = (gids >= 0) & (gids < table)
        rows[mask] = cache[gids[mask]]
        return rows

    def handle_shard_offer(
            self, segments: Sequence[tuple[int, Any]]) -> tuple[int, int, int]:
        """Enqueue pre-routed ``(shard, columns)`` segments of gid
        columns; returns (accepted, shed, rejected).

        Fed by a decoded ``ShardOffer`` frame or directly by the in-proc
        transport. The router already validated and routed; this side
        resolves gids to engine rows, with a lazy name view to re-resolve
        stale ones by, and enqueues.
        """
        batches = []
        for shard_id, cols in segments:
            sid = int(shard_id)
            gids = cols.task_idx.astype(np.int64)
            batches.append((sid, ColumnBatch(
                rows=self._rows_for(sid, gids), steps=cols.steps,
                values=cols.values,
                names=InternedNames(self.gid_names, gids))))
        return self.enqueue(batches)

    def enqueue(self, batches: Iterable[tuple[int, ColumnBatch]],
                ) -> tuple[int, int, int]:
        """The host's one enqueue body, on both servers: queue each
        ``(shard, batch)`` on its shard; returns (accepted, shed,
        rejected).

        A batch for a shard this host no longer holds (a migration raced
        the forward) is *rejected*, not shed — the client sees it in
        ``rejected``. A full queue sheds, and so does the chaos seam
        (``force_shed``), so the backpressure reply path can be
        exercised deterministically.
        """
        hook = self.fault_hook
        accepted = shed = rejected = 0
        for shard_id, batch in batches:
            worker = self.shards.get(shard_id)
            count = len(batch)
            if worker is None:
                rejected += count
            elif hook.enabled and hook.force_shed(shard_id):
                worker.shed += count
                shed += count
            elif worker.try_enqueue_columns(batch):
                accepted += count
            else:
                shed += count
        return accepted, shed, rejected

    # ------------------------------------------------------------------
    # Ops — task control / reads

    def _op_register_task(self, request: dict[str, Any]) -> dict[str, Any]:
        entry, defaults = request.get("task"), request.get("defaults")
        if not isinstance(entry, dict):
            return _error("w_register_task needs a 'task' dict")
        if not isinstance(defaults, (dict, type(None))):
            return _error("w_register_task 'defaults' must be a dict")
        worker = self._shard(int(request.get("shard", -1)))
        # Parsing reads the entry and the defaults and writes neither.
        spec = register_task_from_config(worker.service, entry, defaults,
                                         config=self.adaptation)
        # The new task's name may already be cached as row -1.
        self._gid_rows.pop(worker.shard_id, None)
        return {"ok": True, "task": spec.name, "shard": worker.shard_id,
                "threshold": spec.threshold,
                "type": worker.service.task_type(spec.name)}

    def _op_remove_task(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = self._shard(int(request.get("shard", -1)))
        name = str(request.get("task", ""))
        worker.service.remove_task(name)
        self._gid_rows.pop(worker.shard_id, None)
        return {"ok": True, "task": name}

    def _op_trigger_install(self, request: dict[str, Any]) -> dict[str, Any]:
        """Install whichever halves of a trigger plan live on one shard."""
        worker = self._shard(int(request.get("shard", -1)))
        entry = request.get("plan")
        if not isinstance(entry, dict):
            return _error("w_trigger_install needs a 'plan' dict")
        worker.service.install_trigger_plan(TriggerPlan.from_dict(entry))
        return {"ok": True, "shard": worker.shard_id}

    def _op_trigger_set(self, request: dict[str, Any]) -> dict[str, Any]:
        """Flip a guarded task's armed flag (a routed channel edge)."""
        worker = self._shard(int(request.get("shard", -1)))
        name = str(request.get("task", ""))
        armed = bool(request.get("armed", True))
        was = worker.service.set_trigger_armed(name, armed)
        return {"ok": True, "task": name, "armed": armed, "was_armed": was}

    def _op_trigger_state(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = self._shard(int(request.get("shard", -1)))
        name = str(request.get("task", ""))
        return {"ok": True, "task": name,
                "state": worker.service.trigger_status(name)}

    def _op_trigger_events(self, request: dict[str, Any]) -> dict[str, Any]:
        """Pop the outbox: every watch edge raised here since the last
        pump, oldest first, each with its ``hosted``.

        Destructive by design: the cluster server is the only consumer, so
        a cursor would buy nothing — and edges held by a worker that
        dies before the next pump are lost along with its queues (the
        guarded targets simply stay at their last armed state, which the
        re-placement snapshot preserves).
        """
        events = list(self._outbox)
        self._outbox.clear()
        return {"ok": True, "worker_id": self.worker_id, "events": events}

    def _op_due(self, request: dict[str, Any]) -> dict[str, Any]:
        # Service accessors, not raw TaskState fields: engine-managed
        # tasks keep their live schedule in the SoA columns.
        worker = self._shard(int(request.get("shard", -1)))
        name = str(request.get("task", ""))
        step = int(request.get("step", 0))
        next_due = worker.service.next_due(name)
        return {"ok": True, "due": step >= next_due,
                "next_due": next_due, "shard": worker.shard_id}

    def _op_task_info(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = self._shard(int(request.get("shard", -1)))
        service = worker.service
        name = str(request.get("task", ""))
        return {
            "ok": True,
            "task": name,
            "shard": worker.shard_id,
            "samples_taken": service.samples_taken(name),
            "alerts": service.alert_count(name),
            "interval": service.interval(name),
            "next_due": service.next_due(name),
            "observations": service.observations(name),
            "type": service.task_type(name),
            "estimate": service.task_estimate(name),
        }

    def _op_alerts(self, request: dict[str, Any]) -> dict[str, Any]:
        worker = self._shard(int(request.get("shard", -1)))
        name = str(request.get("task", ""))
        return {"ok": True, "task": name,
                "alerts": [[a.time_index, a.value, a.threshold]
                           for a in worker.service.alerts(name)]}

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        """Counter snapshots of one hosted shard, or of all of them."""
        shard = request.get("shard")
        workers = ([self._shard(int(shard))] if shard is not None
                   else [self.shards[sid] for sid in sorted(self.shards)])
        return {"ok": True, "worker_id": self.worker_id,
                "shards": [worker.stats() for worker in workers]}

    def _op_telemetry(self, request: dict[str, Any]) -> dict[str, Any]:
        """Raw-sketch metrics snapshot for the cluster server's merge."""
        return {"ok": True, "worker_id": self.worker_id,
                "metrics": self.registry.snapshot(raw=True)}

    def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        since = int(request.get("since", 0))
        return {"ok": True,
                "events": self.trace.drain(since=since),
                "next_seq": self.trace.next_seq,
                "dropped": self.trace.dropped}

    _OPS = {
        "w_ping": _op_ping,
        "w_add_shard": _op_add_shard,
        "w_restore_shard": _op_restore_shard,
        "w_snapshot_shard": _op_snapshot_shard,
        "w_drop_shard": _op_drop_shard,
        "w_drain": _op_drain,
        "w_intern": _op_intern,
        "w_register_task": _op_register_task,
        "w_remove_task": _op_remove_task,
        "w_trigger_install": _op_trigger_install,
        "w_trigger_set": _op_trigger_set,
        "w_trigger_state": _op_trigger_state,
        "w_trigger_events": _op_trigger_events,
        "w_due": _op_due,
        "w_task_info": _op_task_info,
        "w_alerts": _op_alerts,
        "w_stats": _op_stats,
        "w_telemetry": _op_telemetry,
        "w_trace": _op_trace,
    }
