"""The five benchmark workloads: task sets, streams, frame shapes.

Every workload is *fixed work*: ``SEGMENTS`` equal segments of a fixed
number of grid steps from a seeded stream (see ``streams.py``). A
workload exists because it puts the weight on a different layer — the
``why`` strings below are the record of that choice and are copied into
``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from streams import THRESHOLD, StreamSpec

__all__ = ["ERR", "MAX_INTERVAL", "SEGMENTS", "SHARDS", "WORKLOADS",
           "Workload", "by_name"]

ERR = 0.01
MAX_INTERVAL = 10
SHARDS = 4
SEGMENTS = 80

_BULK_TASKS = 4096
_MIX_TASKS = 1024
# typed-mix layout (contiguous blocks of the 1024 tasks)
_MIX_PLAIN = (0, 256)         # the first 128 also guard a follower
_MIX_WINDOWED = (256, 512)
_MIX_QUANTILE = (512, 768)
_MIX_ENTROPY = (768, 896)
_MIX_GUARDED = (896, 1024)    # guarded task i follows plain task i - 896
_GUARD_LAG = 6
_GUARD_LEVEL = 85.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name / why: identity and the reason the workload exists.
        server: ``"runtime"`` (RuntimeServer) or ``"cluster"``
            (ClusterServer, 2 in-proc workers x 2 shards).
        stream: the value stream's shape.
        frame_offers: offers per wire frame.
        segment_steps: grid steps per segment at scale 1.0.
        edge_every: send explicit trigger arm/disarm ops every this many
            segments (0 = the workload has no guarded tasks).
        mixed: the tasks follow the typed-mix block layout (plain /
            windowed / quantile / entropy / guarded) instead of being all
            plain.
        warmup_steps: grid steps driven (checked, not timed) before the
            first segment, so segments see the sampler population in its
            steady state rather than the cold-start transient where
            every task still samples every step.
    """

    name: str
    why: str
    server: str
    stream: StreamSpec
    frame_offers: int
    segment_steps: int
    edge_every: int = 0
    warmup_steps: int = 0
    mixed: bool = False

    @property
    def tasks(self) -> int:
        return self.stream.tasks

    def task_name(self, idx: int) -> str:
        return f"task-{idx:05d}"

    def task_entries(self) -> list[dict[str, Any]]:
        """``register_task`` config entries, in intern-index order."""
        common = {"threshold": THRESHOLD, "error_allowance": ERR,
                  "max_interval": MAX_INTERVAL}
        entries = []
        for idx in range(self.tasks):
            entry: dict[str, Any] = {"name": self.task_name(idx), **common}
            if self.mixed:
                if _MIX_WINDOWED[0] <= idx < _MIX_WINDOWED[1]:
                    entry["window"] = 8
                elif _MIX_QUANTILE[0] <= idx < _MIX_QUANTILE[1]:
                    entry.update(type="quantile", quantile=0.99,
                                 sketch_window=256)
                elif _MIX_ENTROPY[0] <= idx < _MIX_ENTROPY[1]:
                    # Drop-below predicate on the binned-value entropy;
                    # the quiet stream sits near 2 bits.
                    entry.update(type="entropy", entropy_window=64,
                                 threshold=0.8)
            entries.append(entry)
        return entries

    def trigger_plans(self) -> list[dict[str, Any]]:
        """``trigger_install`` plans (typed-mix only)."""
        if not self.edge_every:
            return []
        first, last = _MIX_GUARDED
        return [{"target": self.task_name(idx),
                 "trigger": self.task_name(idx - first),
                 "elevation_level": _GUARD_LEVEL,
                 "suspend_interval": MAX_INTERVAL,
                 "hysteresis": 0.1, "min_hold": 5}
                for idx in range(first, last)]

    def edge_targets(self, segment: int) -> list[tuple[str, str]]:
        """``(target, trigger)`` pairs that get an explicit arm at the
        start of ``segment`` and, half-way through it, an explicit disarm
        unless the trigger's own watch is elevated by then (an operator
        forcing full rate for a while, then standing down unless the
        trigger has fired meanwhile) — 16 at a time, rotating through
        the 128."""
        first, last = _MIX_GUARDED
        count = last - first
        start = (segment // self.edge_every * 16) % count
        picks = [(start + k) % count for k in range(16)]
        return [(self.task_name(first + k), self.task_name(k))
                for k in picks]

    def scored_tasks(self) -> list[int]:
        """Tasks whose ground truth is exactly ``value > threshold``:
        instantaneous value tasks (guarded ones included — the guard
        must not cost accuracy)."""
        if not self.mixed:
            return list(range(self.tasks))
        return (list(range(*_MIX_PLAIN)) + list(range(*_MIX_GUARDED)))

    def shadow_tasks(self) -> list[int]:
        """64 tasks replayed through a plain ``MonitoringService`` and
        compared with the server's ``task_info``. Guarded and guarding
        tasks are left out: their decisions depend on the order in which
        shards apply a frame, which a single shadow service cannot
        reproduce."""
        if not self.mixed:
            stride = self.tasks // 64
            return [i * stride for i in range(64)]
        picks: list[int] = []
        for lo, hi in ((128, _MIX_PLAIN[1]), _MIX_WINDOWED, _MIX_QUANTILE,
                       _MIX_ENTROPY):
            stride = (hi - lo) // 16
            picks.extend(lo + i * stride for i in range(16))
        return picks


_STAGGER = 60
_QUIET = StreamSpec(_BULK_TASKS, "quiet", stagger=_STAGGER)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="bulk-quiet",
        why="4096 plain tasks far from threshold in 16384-offer frames, a "
            "third of offers due: the columnar path at its best; the SoA "
            "kernel is ~70% of CPU, codec, routing, queue and asyncio the "
            "rest",
        server="runtime", stream=_QUIET, frame_offers=16384,
        segment_steps=16, warmup_steps=640),
    Workload(
        name="bulk-hot",
        why="same shape with values N(94,4): every task pinned at interval "
            "1 and ~7% of offers alert, so the beta-bound/AIMD kernel and "
            "the alert path carry it; ingest changes should not move it",
        server="runtime", stream=StreamSpec(_BULK_TASKS, "hot"),
        frame_offers=16384, segment_steps=4),
    Workload(
        name="small-frames",
        why="bulk-quiet's tasks and stream in 64-offer frames: ~30x the "
            "per-offer cost, all of it per-frame fixed cost (numpy call "
            "overhead per shard batch, asyncio, syscalls, reply encode)",
        server="runtime", stream=_QUIET, frame_offers=64,
        segment_steps=1, warmup_steps=640),
    Workload(
        name="typed-mix",
        why="1024 tasks, 1/4 plain, 1/4 windowed, 1/4 quantile, 1/8 "
            "entropy, 1/8 trigger-guarded with arm/disarm edges: 7/8 of "
            "offers leave the SoA path for scalar offer_fast, where "
            "one-kernel must show",
        server="runtime",
        stream=StreamSpec(_MIX_TASKS, "quiet",
                          followers=(_MIX_GUARDED[0], 0,
                                     _MIX_GUARDED[1] - _MIX_GUARDED[0],
                                     _GUARD_LAG),
                          stagger=_STAGGER, blocks=8),
        frame_offers=4096, segment_steps=8, edge_every=8, warmup_steps=256,
        mixed=True),
    Workload(
        name="cluster-inproc",
        why="bulk-quiet's exact frames through ClusterServer, 2 in-proc "
            "workers x 2 shards: the router -> coordinator -> WorkerHost "
            "hop, the yardstick for collapsing the two servers into one",
        server="cluster", stream=_QUIET, frame_offers=16384,
        segment_steps=16, warmup_steps=640),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{[w.name for w in WORKLOADS]}")
