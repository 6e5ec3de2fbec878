"""Multi-process cluster runtime: shard placement, routing, migration.

The package splits along the coordinator/worker line of the paper's
architecture:

* :mod:`repro.cluster.routing` — the pure task-to-shard map shared with
  the single-process runtime (``route(task_id, n_shards)``);
* :mod:`repro.cluster.hosting` — :class:`WorkerHost`, the worker-side
  shard container behind the ``w_*`` op surface;
* :mod:`repro.cluster.transport` — the shard-transport interface and its
  three backends (in-proc, subprocess over a unix socket, TCP);
* :mod:`repro.cluster.worker` — the worker process entry point;
* :mod:`repro.cluster.server` — :class:`ClusterServer`, the client-facing
  routing tier (wire-compatible with
  :class:`repro.runtime.server.RuntimeServer`) and the coordinator behind
  it: placement table, live migration, heartbeat failure recovery,
  cluster checkpoints, fleet telemetry;
* :mod:`repro.cluster.fleet` — merging per-worker metric registries.

Only :func:`route` is imported eagerly: :mod:`repro.runtime.frontend` and
:mod:`repro.runtime.server` import it for their shard maps, so pulling in
the heavier cluster modules here (which themselves import
:mod:`repro.runtime`) would create an import cycle. Everything else
resolves lazily on first attribute access.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.routing import route

__all__ = ["ClusterServer", "ClusterWorker", "InProcTransport",
           "ShardRoute", "ShardTransport", "SubprocessTransport",
           "TCPTransport", "WorkerHost", "merge_fleet_snapshots", "route"]

_LAZY = {
    "ClusterServer": "repro.cluster.server",
    "ClusterWorker": "repro.cluster.worker",
    "ShardRoute": "repro.cluster.server",
    "InProcTransport": "repro.cluster.transport",
    "ShardTransport": "repro.cluster.transport",
    "SubprocessTransport": "repro.cluster.transport",
    "TCPTransport": "repro.cluster.transport",
    "WorkerHost": "repro.cluster.hosting",
    "merge_fleet_snapshots": "repro.cluster.fleet",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
