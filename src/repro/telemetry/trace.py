"""Bounded structured trace of sampler/coordinator decisions.

Counters say *how much*; the decision trace says *what happened, in
order*. Every notable decision the runtime takes — an interval adapted,
an allowance reallocated, a violation detected, a batch shed, a
checkpoint written — is appended to a fixed-capacity ring buffer as a
structured event carrying a sequence number and a monotonic timestamp.
Each server owns one ring. The buffer is drainable over the wire
(``trace`` op, with a ``since`` cursor so pollers never re-read events)
and readable as JSONL (the ``/trace`` endpoint).

The ring is deliberately lossy at the head: under event storms old
events are evicted, never blocking the hot path — ``dropped`` counts the
evictions so readers know the history is incomplete. Emission is O(1)
(a deque append).

The ring holds two kinds of entry (DESIGN.md S29): an event dict per
:meth:`DecisionTrace.emit`, and a :data:`DECISION_BLOCK` record array per
:meth:`DecisionTrace.emit_block` — an engine batch's flagged offers,
whose events are built as dicts only when somebody reads.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "DECISION_BLOCK",
    "DecisionTrace",
    "TRACE_EVENT_KINDS",
]

TRACE_EVENT_KINDS = (
    "interval_adapted",      # a sampler grew or reset its interval
    "violation",             # a sampled value violated its threshold
    "allowance_reallocated", # a coordinator moved error allowance
    "shed",                  # offer_batch updates shed under backpressure
    "checkpoint_written",    # a checkpoint flushed successfully
    "checkpoint_failed",     # a periodic checkpoint write failed
    "task_registered",
    "task_removed",
    "restore",               # server restored state from a checkpoint
    "selfmon_alert",         # the self-monitor alerted on runtime health
    "worker_started",        # cluster: a worker process joined the fleet
    "worker_lost",           # cluster: heartbeat declared a worker dead
    "shard_migrated",        # cluster: live migration cut a shard over
    "migration_aborted",     # cluster: a migration rolled back safely
    "shard_replaced",        # cluster: failure-driven re-placement
    "trigger_plan_installed",  # a correlation trigger plan was wired up
    "trigger_armed",         # a guarded task resumed full-rate sampling
    "trigger_disarmed",      # a guarded task dropped to its idle interval
)
"""Kinds emitted by the instrumented runtime (extensible by callers)."""

DECISION_BLOCK = np.dtype([
    ("row", np.int64), ("step", np.int64), ("interval", np.int64),
    ("flags", np.uint8), ("beta", np.float64), ("value", np.float64),
    ("threshold", np.float64)])
"""One flagged offer of an engine batch, as
:meth:`DecisionTrace.emit_block` keeps it: the engine row, step,
post-adaptation interval, flags (1 grew, 2 reset, 4 violation) and beta
bound of the offer, and the value and threshold its violation reports
(read only where ``flags & 4``). An offer is ``interval_adapted`` where
``flags & 3``, then ``violation`` where ``flags & 4``: one or two events,
in that order."""


def _event(seq: int, stamp: float, kind: str, task: str | None,
           shard: int | str | None) -> dict[str, Any]:
    """An event's leading keys, in the order every event has them; the
    data keys follow."""
    event: dict[str, Any] = {"seq": seq, "ts_monotonic": stamp,
                             "kind": kind}
    if task is not None:
        event["task"] = task
    if shard is not None:
        event["shard"] = shard
    return event


class _Block:
    """A :data:`DECISION_BLOCK` array in the ring: ``size`` events from
    sequence number ``first`` on, stamped with one clock read, the first
    ``skip`` of them evicted. ``names`` maps a row to its task's name; it
    is the owning service's append-only table, shared, not copied."""

    __slots__ = ("first", "size", "skip", "stamp", "records", "names",
                 "shard")

    def __init__(self, first: int, size: int, stamp: float,
                 records: np.ndarray, names: Sequence[str],
                 shard: int | str | None):
        self.first = first
        self.size = size
        self.skip = 0
        self.stamp = stamp
        self.records = records
        self.names = names
        self.shard = shard

    def events(self, since: int) -> list[dict[str, Any]]:
        """The retained events with ``seq >= since``, as the dicts N x
        :meth:`DecisionTrace.emit` would have stored."""
        names, stamp, shard = self.names, self.stamp, self.shard
        seq = self.first
        out: list[dict[str, Any]] = []
        for (row, step, interval, flags, beta, value,
             threshold) in self.records.tolist():
            if flags & 3:
                event = _event(seq, stamp, "interval_adapted", names[row],
                               shard)
                event.update(step=step, interval=interval,
                             grew=bool(flags & 1), reset=bool(flags & 2),
                             beta=beta)
                out.append(event)
                seq += 1
            if flags & 4:
                event = _event(seq, stamp, "violation", names[row], shard)
                event.update(step=step, value=value, threshold=threshold)
                out.append(event)
                seq += 1
        return out[max(self.skip, since - self.first):]


class DecisionTrace:
    """Fixed-capacity ring buffer of structured decision events.

    Args:
        capacity: maximum events retained; older events are evicted
            (and counted in :attr:`dropped`) once the ring is full.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Event dicts and blocks, oldest first; ``_retained`` counts the
        # events they hold.
        self._ring: deque[dict[str, Any] | _Block] = deque()
        self._retained = 0
        self._next_seq = 0
        self.dropped = 0

    def emit(self, kind: str, task: str | None = None,
             shard: int | str | None = None, **data: Any) -> int:
        """Append one event; returns its sequence number.

        ``data`` values must be JSON-able (they travel over the wire and
        into JSONL dumps verbatim).
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        event = _event(seq, time.monotonic(), kind, task, shard)
        if data:
            event.update(data)
        self._append(event, 1)
        return seq

    def emit_block(self, records: np.ndarray, names: Sequence[str],
                   shard: int | str | None = None) -> int:
        """Append an engine batch's flagged offers (a :data:`DECISION_BLOCK`
        array, in tick order) as their events; returns the first sequence
        number. ``names[row]`` is the task of a row.

        The events are the dicts N x :meth:`emit` would build, in one
        entry: one clock read, consecutive sequence numbers, and
        :attr:`dropped`, :attr:`next_seq` and ``len`` counting events. A
        dict is built per event only by a read, so ``records`` must not
        be written after the call, nor ``names``' entries for its rows
        (an engine service's row -> name table only grows).
        """
        # Flags are 1..7: an offer is two events exactly when it adapted
        # (1 | 2) and violated (4).
        size = len(records) + int(np.count_nonzero(records["flags"] > 4))
        first = self._next_seq
        self._next_seq = first + size
        self._append(_Block(first, size, time.monotonic(), records, names,
                            shard), size)
        return first

    def _append(self, entry: dict[str, Any] | _Block, size: int) -> None:
        """Put ``entry`` (``size`` events) at the tail; once the ring holds
        more than its capacity, evict the excess from the head — whole
        entries, and the head block's leading events where the excess
        ends inside it."""
        ring = self._ring
        ring.append(entry)
        self._retained += size
        excess = self._retained - self.capacity
        if excess <= 0:
            return
        self._retained = self.capacity
        self.dropped += excess
        while excess:
            head = ring[0]
            left = 1 if type(head) is dict else head.size - head.skip
            if left > excess:
                head.skip += excess
                return
            ring.popleft()
            excess -= left

    def __len__(self) -> int:
        return self._retained

    @property
    def next_seq(self) -> int:
        """Sequence number the next emitted event will carry."""
        return self._next_seq

    def drain(self, since: int = 0,
              limit: int | None = None) -> list[dict[str, Any]]:
        """Events with ``seq >= since``, oldest first (non-destructive),
        at most ``limit`` of them.

        Pollers remember the last reply's ``next_seq`` and pass it back as
        ``since``; events evicted before being read are simply absent (the
        gap in sequence numbers, plus :attr:`dropped`, reveals the loss).
        A negative ``since`` or ``limit`` raises :class:`ValueError`.
        """
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        out: list[dict[str, Any]] = []
        for entry in self._ring:
            if limit is not None and len(out) >= limit:
                break
            if type(entry) is dict:
                if entry["seq"] >= since:
                    out.append(entry)
            elif entry.first + entry.size > since:
                out += entry.events(since)
        return out if limit is None else out[:limit]

    def to_jsonl(self, since: int = 0) -> str:
        """The retained events as JSONL text (the ``/trace`` endpoint)."""
        return "".join(json.dumps(event, separators=(",", ":")) + "\n"
                       for event in self.drain(since=since))
