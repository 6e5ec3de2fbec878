"""Shard workers: one bounded queue + one MonitoringService per shard.

Tasks are partitioned across shards by
:func:`repro.cluster.routing.route`, a stable
(``PYTHONHASHSEED``-independent) hash of the task name, so the same task
always lands on the same shard — across restarts and across independent
client processes. All updates for a task are therefore applied in arrival
order by a single consumer — the shards' host's one drain loop, which
takes the head batch of every shard's queue at a time
(:func:`apply_pass`) — which is what keeps the per-task samplers'
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
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.service import MonitoringService, offer_pass
from repro.testkit.faults import FaultHook, NOOP_HOOK

__all__ = ["SHARD_COUNTERS", "ColumnBatch", "InternedNames",
           "LedgerCounter", "ShardWorker", "apply_pass", "restore_counters"]

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
    """One shard's bounded ingest queue and its ledger.

    The worker owns its :class:`~repro.service.MonitoringService`
    exclusively: control operations (register/remove/trigger) and reads go
    through the owning server on the event loop thread, data-path batches
    go through the queue. A worker has no drain task of its own: its
    host's drain loop takes the head batch of every hosted shard's queue
    at a time (:func:`apply_pass`), and :meth:`apply_columns` applies a
    batch on the spot. Since everything runs on one event loop, service
    state is never touched concurrently.
    """

    def __init__(self, shard_id: int, service: MonitoringService,
                 queue_depth: int, fault_hook: FaultHook = NOOP_HOOK,
                 wake: Callable[[], None] | None = None):
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.shard_id = shard_id
        self.service = service
        self.fault_hook = fault_hook
        self._queue: asyncio.Queue[ColumnBatch] = asyncio.Queue(
            maxsize=queue_depth)
        # What a queued batch calls: its host's drain loop's wake-up.
        self._wake = wake
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
        if self._wake is not None:
            self._wake()
        return True

    def apply_columns(self, batch: ColumnBatch) -> None:
        """Apply a batch synchronously, past the queue: a pass of one
        part (:func:`apply_pass`), with the histogram handed this
        worker's ``interval_hist``."""
        _apply([(self, batch)], self.interval_hist)

    async def drain(self) -> None:
        """Wait until the queue is empty and no pass holds a batch of
        it (forever, if nothing drains the queue)."""
        await self._queue.join()

    def abort(self) -> None:
        """Drop every queued batch unapplied, as a crash would abandon
        it; the chaos harness uses this to exercise the at-most-once
        recovery contract."""
        queue = self._queue
        while queue.qsize():
            queue.get_nowait()
            queue.task_done()

    def stats(self) -> dict[str, Any]:
        """Counter snapshot for the ``stats`` wire op.

        The ledger's keys are :data:`SHARD_COUNTERS`' long ones;
        :func:`restore_counters` reads them back.
        """
        stats: dict[str, Any] = {
            "shard": self.shard_id,
            "tasks": self.service.task_count,
            "queue_depth": self.depth,
            "queue_capacity": self.capacity,
        }
        for counter in SHARD_COUNTERS:
            stats[counter.key] = getattr(self, counter.attr)
        return stats


def apply_pass(workers: Iterable[ShardWorker],
               interval_hist: Any = None) -> int:
    """One pass of a host's drain loop: take the head batch of every
    non-empty queue among ``workers``, in the order given (shard order),
    and apply them as one batch; returns how many batches it took (0:
    every queue was empty). A worker's :meth:`~ShardWorker.drain` returns
    once no pass holds its batch."""
    taken = [(worker, worker._queue.get_nowait()) for worker in workers
             if worker._queue.qsize()]
    if taken:
        try:
            _apply(taken, interval_hist)
        finally:
            for worker, _batch in taken:
                worker._queue.task_done()
    return len(taken)


def _apply(taken: list[tuple[ShardWorker, ColumnBatch]],
           interval_hist: Any) -> None:
    """The one apply body: ``(worker, batch)`` pairs, whose services
    share one engine, as one :func:`~repro.service.offer_pass`, each
    worker's ledger fed its own part's counts, and the histogram the
    pass's interval counts (one ``np.bincount``), which it absorbs when
    it is read, instead of one ``observe`` per consumed offer.

    Reject-and-continue: a batch the chaos seam raises for
    (``fault_hook.before_apply``) is rejected alone, and an unexpected
    error in the pass rejects every batch in it — the drain loop is the
    shards' only consumer, and if it died acknowledged batches would pile
    up unapplied and shutdown's drain would deadlock.
    """
    parts = []
    for worker, batch in taken:
        hook = worker.fault_hook
        try:
            if hook.enabled:
                # Guarded so production pays one attribute load + falsy
                # check per batch.
                hook.before_apply(worker.shard_id, len(batch))
        except Exception:
            _reject(worker, batch)
        else:
            parts.append((worker, batch))
    if not parts:
        return
    try:
        counts, intervals = offer_pass([
            (worker.service, batch.rows, batch.steps, batch.values,
             batch.names) for worker, batch in parts])
    except Exception:
        for worker, batch in parts:
            _reject(worker, batch)
        return
    for (worker, _batch), (applied, consumed, rejected) in zip(parts,
                                                               counts):
        worker.applied += applied
        worker.consumed += consumed
        worker.rejected += rejected
    if interval_hist is not None and len(intervals):
        # Intervals are small positive ints (<= max_interval).
        interval_hist.observe_counts(np.bincount(intervals))


def _reject(worker: ShardWorker, batch: ColumnBatch) -> None:
    worker.rejected += len(batch)
    logger.exception("shard %d: dropping batch of %d updates after "
                     "unexpected error", worker.shard_id, len(batch))
