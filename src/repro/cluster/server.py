"""The cluster routing tier: the client-facing front end.

:class:`ClusterServer` is the shared
:class:`~repro.runtime.frontend.WireServer` front end over a
:class:`~repro.cluster.coordinator.Coordinator` backend, so it speaks the
exact op surface of the single-process
:class:`~repro.runtime.server.RuntimeServer` by construction — every
existing client (:mod:`repro.runtime.client`, the load generator, the
scenario replayer) points at a cluster without changes. Two cluster-only
ops are added: ``migrate`` (move a shard between workers live) and
``placement`` (the live placement table, with worker pids for
supervision).

Unlike the runtime's backend, this one suspends: every data/control op
awaits a worker round-trip through the coordinator. Per-connection
ordering is preserved — one frame is fully handled before the next is
read — but connections interleave at await points; all cross-connection
coordination (buffering, cutover, settled waits) lives in the
coordinator.
"""

from __future__ import annotations

from typing import Any

from repro.config import ClusterConfig
from repro.core.adaptation import AdaptationConfig
from repro.runtime.frontend import ConnState, WireServer

from repro.cluster.coordinator import Coordinator

__all__ = ["ClusterServer"]


class ClusterServer(WireServer):
    """Routing tier bound to one :class:`Coordinator`.

    ``service_config`` is the declarative service config
    :class:`~repro.runtime.server.RuntimeServer` takes: tasks it declares
    are registered at startup unless a checkpoint already has them.
    """

    def __init__(self, config: ClusterConfig,
                 adaptation: AdaptationConfig | None = None,
                 service_config: dict[str, Any] | None = None):
        coord = self.coordinator = Coordinator(config, adaptation=adaptation)
        super().__init__(config, coord.n_shards, coord.registry, coord.trace,
                         service_config=service_config)
        # The routing tables are the coordinator's own objects: it reads
        # them for placement, edge pumping and checkpoints, the front end
        # writes them from the control ops. Both sides only ever mutate
        # them in place.
        self.task_shard = coord.task_shard
        self.pending = coord.pending
        self.trigger_plans = coord.trigger_plans
        self.trigger_edges = coord.trigger_edges

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Restore (workers, placement), apply the service config, then
        bind the listen sockets. A failure after the workers spawned shuts
        them down before it propagates."""
        try:
            await self._restore()
            await self.apply_config(self._service_config)
        except BaseException:
            await self.coordinator.shutdown()  # do not orphan the workers
            raise
        await self._listen()

    async def drain(self) -> None:
        """Wait until every live worker has applied its queued batches."""
        await self.coordinator.drain()

    async def shutdown(self) -> None:
        """Stop accepting, close connections, flush a final checkpoint,
        shut the cluster down."""
        if await self._stop_serving():
            await self.coordinator.stop_heartbeat()
            await self._flush_checkpoint()
            await self.coordinator.shutdown()
            self._done.set()

    # ------------------------------------------------------------------
    # The shard backend: everything goes through the coordinator

    async def _start_shards(self, shards: dict[str, Any],
                            placement: dict[str, str]) -> None:
        await self.coordinator.start(shards, placement)

    async def _collect_shards(self) -> tuple[dict[str, Any], dict[str, Any]]:
        return await self.coordinator._collect_state(), {"placement": {
            str(r.shard_id): r.worker_id for r in self.coordinator.routes}}

    async def _shard_call(self, sid: int,
                          payload: dict[str, Any]) -> dict[str, Any]:
        return await self.coordinator.shard_call(sid, payload)

    def _intern_id(self, name: str, sid: int) -> int:
        return self.coordinator.gid_for(name)

    def _submit_columns(self, conn: ConnState,
                        per_shard: dict[int, tuple[Any, Any, Any]]) -> Any:
        gids = conn.ids
        return self.coordinator.submit_columns(
            {sid: (gids[idx], steps, values)
             for sid, (idx, steps, values) in per_shard.items()})

    async def register_task(self, entry: dict[str, Any]) -> dict[str, Any]:
        reply = await super().register_task(entry)
        if reply.get("ok"):
            # Logged as registered, defaults folded in, until a collected
            # snapshot holds the task: a re-placement or a restart that
            # finds no snapshot with it registers it again from here.
            self.pending[reply["task"]] = {**self.defaults, **entry}
        return reply

    async def remove_task(self, name: str) -> dict[str, Any]:
        reply = await super().remove_task(name)
        if reply.get("ok"):
            self.pending.pop(name, None)
        return reply

    # ------------------------------------------------------------------
    # Telemetry (serves the heartbeat-refreshed fleet cache: the HTTP
    # route handlers are synchronous, so they must not await workers)

    def _metrics(self) -> dict[str, Any]:
        return self.coordinator.fleet_snapshot or self.registry.snapshot()

    def _health(self) -> dict[str, Any]:
        workers = self.coordinator.placement()["workers"]
        up = sum(1 for w in workers.values() if w["alive"])
        body = super()._health()
        body.update(ok=body["ok"] and up > 0, workers=len(workers),
                    workers_up=up)
        return body

    # ------------------------------------------------------------------
    # Ops whose cluster form first syncs state held on the workers

    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        reply = await super()._op_ping(request)
        reply["workers"] = len(self.coordinator.transports)
        return reply

    async def _op_trigger_plans(self, request: dict[str, Any],
                                ) -> dict[str, Any]:
        await self.coordinator.pump_triggers()
        return await super()._op_trigger_plans(request)

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        coord = self.coordinator
        reply = await super()._op_stats(request)
        # Shed at the routing tier (unreachable worker, migration-buffer
        # overflow) never reached a shard queue; fold it into the total
        # so offered/applied/shed accounting stays conservation-true.
        reply["totals"]["shed"] += coord.router_shed
        reply["cluster"] = {
            "workers": len(coord.transports),
            "workers_up": sum(1 for wid in coord.transports
                              if wid not in coord._dead),
            "router_shed": coord.router_shed,
            "migrations": coord.migrations,
            "replacements": coord.replacements,
        }
        return reply

    async def _op_telemetry(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        await self.coordinator.refresh_fleet()
        return await super()._op_telemetry(request)

    async def _op_trace(self, request: dict[str, Any]) -> dict[str, Any]:
        await self.coordinator.pull_traces()
        return await super()._op_trace(request)

    # ------------------------------------------------------------------
    # Ops — cluster-only

    async def _op_migrate(self, request: dict[str, Any]) -> dict[str, Any]:
        return await self.coordinator.migrate(
            int(request.get("shard", -1)),
            str(request.get("worker", "")))

    async def _op_placement(self, request: dict[str, Any],
                            ) -> dict[str, Any]:
        return {"ok": True, **self.coordinator.placement()}

    _OPS = WireServer._OPS | {"migrate", "placement"}
