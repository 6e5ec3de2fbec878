"""Bounded structured trace of sampler/coordinator decisions.

Counters say *how much*; the decision trace says *what happened, in
order*. Every notable decision the runtime takes — an interval adapted,
an allowance reallocated, a violation detected, a batch shed, a
checkpoint written — is appended to a fixed-capacity ring buffer as a
structured event carrying a process-wide sequence number and a monotonic
timestamp. The buffer is drainable over the wire (``trace`` op, with a
``since`` cursor so pollers never re-read events) and dumpable to JSONL
for offline analysis or CI artifacts.

The ring is deliberately lossy at the head: under event storms old
events are evicted, never blocking the hot path — ``dropped`` counts the
evictions so readers know the history is incomplete. Emission is O(1)
(a deque append); un-traced deployments hold :data:`NULL_TRACE` and pay
one ``enabled`` check.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "DecisionTrace",
    "NULL_TRACE",
    "NullTrace",
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


class DecisionTrace:
    """Fixed-capacity ring buffer of structured decision events.

    Args:
        capacity: maximum events retained; older events are evicted
            (and counted in :attr:`dropped`) once the ring is full.
    """

    enabled = True

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(
                f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
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
        event: dict[str, Any] = {"seq": seq,
                                 "ts_monotonic": time.monotonic(),
                                 "kind": kind}
        if task is not None:
            event["task"] = task
        if shard is not None:
            event["shard"] = shard
        if data:
            event.update(data)
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return seq

    def emit_batch(self, events: list[dict[str, Any]]) -> int:
        """Append a batch of events in order — one :meth:`emit` each, for
        the price of a dict each: one clock read, consecutive sequence
        numbers, :attr:`dropped` advanced by what the ring evicts.
        Returns the first sequence number.

        The caller builds the dicts as :meth:`emit` would, key for key:
        ``seq`` and ``ts_monotonic`` first (any value — they are set
        here), then ``kind``, ``task`` and ``shard`` where not ``None``,
        then the data.
        """
        first = seq = self._next_seq
        stamp = time.monotonic()
        for event in events:
            event["seq"] = seq
            event["ts_monotonic"] = stamp
            seq += 1
        self._next_seq = seq
        # Once full the ring stays full: every append past its free room
        # evicts one event, whether of this batch or an earlier one.
        free = self.capacity - len(self._events)
        if len(events) > free:
            self.dropped += len(events) - free
        self._events.extend(events)
        return first

    def __len__(self) -> int:
        return len(self._events)

    @property
    def next_seq(self) -> int:
        """Sequence number the next emitted event will carry."""
        return self._next_seq

    def drain(self, since: int = 0,
              limit: int | None = None) -> list[dict[str, Any]]:
        """Events with ``seq >= since``, oldest first (non-destructive).

        Pollers remember the last reply's ``next_seq`` and pass it back as
        ``since``; events evicted before being read are simply absent (the
        gap in sequence numbers, plus :attr:`dropped`, reveals the loss).
        """
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        out = [event for event in self._events if event["seq"] >= since]
        if limit is not None and len(out) > limit:
            out = out[:limit]
        return out

    def dump_jsonl(self, path: pathlib.Path | str,
                   since: int = 0) -> pathlib.Path:
        """Write the retained events to a JSONL file; returns the path."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = "".join(json.dumps(event, separators=(",", ":")) + "\n"
                        for event in self.drain(since=since))
        path.write_text(lines, encoding="utf-8")
        return path

    def to_jsonl(self, since: int = 0) -> str:
        """The retained events as JSONL text (the ``/trace`` endpoint)."""
        return "".join(json.dumps(event, separators=(",", ":")) + "\n"
                       for event in self.drain(since=since))


class NullTrace:
    """No-op trace: ``emit`` discards, ``drain`` is empty.

    Hot paths that emit more than a couple of fields guard with
    ``trace.enabled`` to skip even the argument packing.
    """

    enabled = False
    capacity = 0
    dropped = 0
    next_seq = 0

    def emit(self, kind: str, task: str | None = None,
             shard: int | str | None = None, **data: Any) -> int:
        return 0

    def emit_batch(self, events: list[dict[str, Any]]) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def drain(self, since: int = 0,
              limit: int | None = None) -> list[dict[str, Any]]:
        return []

    def to_jsonl(self, since: int = 0) -> str:
        return ""


NULL_TRACE = NullTrace()
"""The shared disabled trace (``enabled = False``)."""
