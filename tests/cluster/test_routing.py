"""Golden tests pinning the task-to-shard routing function.

``route(task_id, n_shards)`` is a compatibility contract, not an
implementation detail: checkpoints persist ``task_shard`` maps, whether
a trigger edge is flipped inline depends on which tasks co-locate, and a
cluster restores single-authored state by recomputing the same assignments. If
these pins ever fail, the change silently orphans every existing
checkpoint — bump a checkpoint version instead of editing the values.
"""

from __future__ import annotations

import zlib

from repro.cluster.routing import route
from repro.config import RuntimeConfig
from repro.runtime.server import RuntimeServer

# Pinned CRC32 assignments. Computed once from the reference
# implementation and frozen; regenerating them from route() itself would
# make the test a tautology.
GOLDEN_4 = {
    "cpu_util@rack1": 1, "cpu_util@rack2": 3, "mem@web-03": 0,
    "disk_io@db-primary": 2, "net_rx@edge-9": 1, "latency_p99@api": 1,
    "qps@frontend": 2, "temp@chassis-17": 0,
    "task-0": 1, "task-1": 3, "task-2": 1, "task-3": 3,
    "task-4": 0, "task-5": 2, "task-6": 0, "task-7": 2,
}
GOLDEN_8 = {
    "cpu_util@rack1": 1, "cpu_util@rack2": 3, "mem@web-03": 4,
    "disk_io@db-primary": 2, "net_rx@edge-9": 5, "latency_p99@api": 5,
    "qps@frontend": 6, "temp@chassis-17": 4,
    "task-0": 1, "task-1": 7, "task-2": 5, "task-3": 3,
    "task-4": 0, "task-5": 6, "task-6": 4, "task-7": 2,
}


class TestGoldenAssignments:
    def test_pinned_assignments_4_shards(self):
        for name, shard in GOLDEN_4.items():
            assert route(name, 4) == shard, name

    def test_pinned_assignments_8_shards(self):
        for name, shard in GOLDEN_8.items():
            assert route(name, 8) == shard, name

    def test_matches_crc32_definition(self):
        for name in GOLDEN_4:
            for n in (1, 2, 3, 4, 7, 8, 16):
                assert route(name, n) == zlib.crc32(name.encode()) % n


class TestSharedWithRuntime:
    def test_runtime_shard_map_delegates_to_route(self):
        # The single-process server and the cluster router must agree on
        # every assignment, or a cluster restoring a single-process
        # checkpoint would send tasks to the wrong shard.
        for n in (2, 4, 8):
            server = RuntimeServer(RuntimeConfig(shards=n))
            for name in GOLDEN_8:
                assert server.worker_for(name).shard_id == route(name, n)

    def test_unicode_task_ids_route_stably(self):
        assert route("温度@机架-1", 8) == zlib.crc32(
            "温度@机架-1".encode("utf-8")) % 8

    def test_all_shards_reachable(self):
        # Sanity: the hash spreads — with enough tasks every shard of a
        # small cluster gets at least one.
        hit = {route(f"metric-{i}@host-{i % 11}", 8) for i in range(200)}
        assert hit == set(range(8))
