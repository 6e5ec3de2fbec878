"""Pure task→shard routing shared by the runtime server and the cluster.

One function, no state: :func:`route` maps a task id to a shard index
with CRC32 (not ``hash()``, which is salted per process by
``PYTHONHASHSEED``). Every layer that needs to know where a task lives —
the single-process :class:`~repro.runtime.server.RuntimeServer`, the
cluster routing tier, clients doing client-side partitioning — calls
this one function, so a task's shard is the same everywhere, across
restarts, and across independent processes.

The assignment is pinned by a golden test
(``tests/cluster/test_routing.py``): shard placement is persistent state
(a checkpoint keeps each task in the snapshot of the shard it routed to,
and restore routes by those snapshots; the cluster placement table keys
on shard ids), so an accidental change to this function would strand
every existing checkpoint. Treat the golden file as a compatibility
contract, not a regression snapshot.
"""

from __future__ import annotations

import zlib

__all__ = ["route"]


def route(task_id: str, n_shards: int) -> int:
    """Stable shard index in ``[0, n_shards)`` for a task id.

    Args:
        task_id: the task's name (any unicode string).
        n_shards: total number of shards (>= 1).
    """
    return zlib.crc32(task_id.encode("utf-8")) % n_shards
