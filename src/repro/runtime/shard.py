"""Shard workers: one bounded queue + one MonitoringService per shard.

Tasks are partitioned across shards by
:func:`repro.cluster.routing.route`, a stable
(``PYTHONHASHSEED``-independent) hash of the task name, so the same task
always lands on the same shard — across restarts and across independent
client processes. All updates for a task are therefore applied in arrival
order by a single consumer, which is what keeps the per-task samplers'
strictly-increasing ``time_index`` contract safe without locks.

Backpressure contract: :meth:`ShardWorker.try_enqueue_columns` never
blocks. When the shard's queue is full the batch is *shed* — counted,
reported to the caller, and dropped. The server turns that into an explicit
reply with a retry hint; a lagging shard can never stall the event loop or
starve the other shards.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.testkit.faults import FaultHook, NOOP_HOOK

__all__ = ["SHARD_COUNTERS", "ColumnBatch", "InternedNames",
           "LedgerCounter", "ShardWorker", "restore_counters"]

logger = logging.getLogger(__name__)

class LedgerCounter(NamedTuple):
    """One shard ledger counter under each of its names."""

    short: str   # the ``stats`` reply's ``totals`` key (and the tooling's)
    attr: str    # the ShardWorker attribute
    key: str     # per-shard ``stats`` and checkpoint ``counters`` key
    family: str  # metric family
    help: str


SHARD_COUNTERS = (
    LedgerCounter("offered", "offered", "updates_offered",
                  "volley_updates_offered_total",
                  "Updates accepted into shard queues"),
    LedgerCounter("applied", "applied", "updates_applied",
                  "volley_updates_applied_total",
                  "Updates applied to shard services"),
    LedgerCounter("consumed", "consumed", "updates_consumed",
                  "volley_updates_consumed_total",
                  "Updates consumed as scheduled samples"),
    LedgerCounter("shed", "shed", "updates_shed",
                  "volley_updates_shed_total",
                  "Updates shed under backpressure"),
    LedgerCounter("rejected", "rejected", "updates_rejected",
                  "volley_updates_rejected_total",
                  "Updates rejected (unknown task / malformed)"),
    LedgerCounter("alerts", "alerts_fired", "alerts_fired",
                  "volley_alerts_fired_total",
                  "State-violation alerts fired"),
)
"""The shard ledger, named once: every other place reads its names here."""


class InternedNames:
    """Lazy position → task-name view of a batch addressed through an
    intern table.

    ``offer_columns`` touches names only to re-resolve the (rare)
    negative or stale rows, so the hot path never materialises a
    per-offer name list.
    """

    __slots__ = ("table", "idx")

    def __init__(self, table: list[str | None], idx: np.ndarray):
        self.table = table
        self.idx = idx

    def __getitem__(self, pos: int) -> str | None:
        i = int(self.idx[pos])
        return self.table[i] if 0 <= i < len(self.table) else None


@dataclass
class ColumnBatch:
    """One shard's share of a decoded offer frame, pre-resolved to engine
    rows — the only thing a shard queue carries.

    ``rows`` holds SoA engine row ids (``-1`` = resolve by name instead);
    ``names`` is parallel to the columns and only consulted to re-resolve
    a negative or stale row to its task's current one, so the hot path
    never materialises per-offer tuples.
    """

    rows: np.ndarray
    steps: np.ndarray
    values: np.ndarray
    names: Sequence[str | None] | None = None

    def __len__(self) -> int:
        return len(self.rows)


def restore_counters(worker: "ShardWorker",
                     counters: Mapping[str, Any]) -> None:
    """Load a checkpointed counter dict (:meth:`ShardWorker.stats` keys)
    onto ``worker``."""
    for counter in SHARD_COUNTERS:
        setattr(worker, counter.attr, int(counters.get(counter.key, 0)))


class ShardWorker:
    """One shard's bounded ingest queue and its drain loop.

    The worker owns its :class:`~repro.service.MonitoringService`
    exclusively: control operations (register/remove/trigger) and reads go
    through the owning server on the event loop thread, data-path batches
    go through the queue and are applied by :meth:`_run`. Since everything
    runs on one event loop, service state is never touched concurrently.
    """

    def __init__(self, shard_id: int, service: MonitoringService,
                 queue_depth: int, fault_hook: FaultHook = NOOP_HOOK):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.shard_id = shard_id
        self.service = service
        self.fault_hook = fault_hook
        self._queue: asyncio.Queue[ColumnBatch] = asyncio.Queue(
            maxsize=queue_depth)
        self._runner: asyncio.Task[None] | None = None
        # Counters exposed via the server's `stats` op.
        self.offered = 0      # updates accepted into the queue
        self.applied = 0      # updates applied to the service
        self.consumed = 0     # updates consumed as scheduled samples
        self.shed = 0         # updates dropped due to backpressure
        self.rejected = 0     # updates for unknown/invalid tasks
        self.alerts_fired = 0
        # Optional telemetry seam: a histogram instrument recording the
        # sampling interval after each consumed update (attached by the
        # owning server when instrumented; None costs one check).
        self.interval_hist: Any = None

    @property
    def depth(self) -> int:
        """Batches currently queued (for stats/backpressure telemetry)."""
        return self._queue.qsize()

    @property
    def capacity(self) -> int:
        """Queue capacity in batches."""
        return self._queue.maxsize

    def try_enqueue_columns(self, batch: ColumnBatch) -> bool:
        """Queue a batch without blocking; False (and shed) when full."""
        try:
            self._queue.put_nowait(batch)
        except asyncio.QueueFull:
            self.shed += len(batch)
            return False
        self.offered += len(batch)
        return True

    def apply_columns(self, batch: ColumnBatch) -> None:
        """Apply a batch synchronously (the drain loop's work unit).

        Drives the service through
        :meth:`~repro.service.MonitoringService.offer_columns` — one
        vectorised engine pass, stale rows re-resolved by name in it — and
        hands the interval histogram the batch's interval counts (one
        ``np.bincount``), which it absorbs when it is read, instead of
        one ``observe`` per consumed offer.
        """
        if self.fault_hook.enabled:
            # Chaos seam: may raise to simulate an unexpected internal
            # error taking out the whole batch (the drain loop's
            # reject-and-continue path). Guarded so production pays one
            # attribute load + falsy check per batch.
            self.fault_hook.before_apply(self.shard_id, len(batch))
        applied, consumed, rejected, intervals = self.service.offer_columns(
            batch.rows, batch.steps, batch.values, batch.names)
        self.applied += applied
        self.consumed += consumed
        self.rejected += rejected
        interval_hist = self.interval_hist
        if interval_hist is not None and len(intervals):
            # Intervals are small positive ints (<= max_interval).
            interval_hist.observe_counts(np.bincount(intervals))

    def start(self) -> None:
        """Start the drain loop on the running event loop."""
        if self._runner is None:
            self._runner = asyncio.get_running_loop().create_task(
                self._run(), name=f"shard-{self.shard_id}")

    async def _run(self) -> None:
        while True:
            batch = await self._queue.get()
            try:
                self.apply_columns(batch)
            except Exception:
                # The drain loop is the shard's only consumer: if it dies,
                # acknowledged batches pile up unapplied and shutdown's
                # drain() deadlocks. Reject the batch and keep consuming.
                self.rejected += len(batch)
                logger.exception(
                    "shard %d: dropping batch of %d updates after "
                    "unexpected error", self.shard_id, len(batch))
            finally:
                self._queue.task_done()

    async def drain(self) -> None:
        """Wait until every queued batch has been applied."""
        await self._queue.join()

    async def stop(self) -> None:
        """Drain outstanding batches, then cancel the drain loop.

        A worker whose drain loop is not running (never started, or already
        stopped) is left as-is — draining would deadlock with no consumer.
        """
        if self._runner is None:
            return
        await self.drain()
        self._runner.cancel()
        try:
            await self._runner
        except asyncio.CancelledError:
            pass
        self._runner = None

    async def abort(self) -> None:
        """Hard-stop the drain loop *without* draining (crash simulation).

        Queued batches are abandoned exactly as a process crash would
        abandon them; the chaos harness uses this to exercise the
        at-most-once recovery contract.
        """
        if self._runner is None:
            return
        self._runner.cancel()
        try:
            await self._runner
        except asyncio.CancelledError:
            pass
        self._runner = None

    def stats(self) -> dict[str, Any]:
        """Counter snapshot for the ``stats`` wire op.

        The ledger's keys are :data:`SHARD_COUNTERS`' long ones;
        :func:`restore_counters` reads them back.
        """
        stats: dict[str, Any] = {
            "shard": self.shard_id,
            "tasks": len(self.service.task_names),
            "queue_depth": self.depth,
            "queue_capacity": self.capacity,
        }
        for counter in SHARD_COUNTERS:
            stats[counter.key] = getattr(self, counter.attr)
        return stats
