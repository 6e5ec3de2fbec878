"""The routing tier must be wire-identical to the single-process server.

Every test here drives a ``ClusterServer`` (in-proc backend) and, where
the *backends* could diverge, the same schedule through a
``RuntimeServer`` with the same shard count — sampler decisions and
counter accounting must match, because existing clients and tooling are
pointed at clusters unchanged. Reply shapes and validation errors come
from the shared front end and are held equal by the request table in
``tests/runtime/test_wire_conformance.py``.
"""

from __future__ import annotations

import asyncio

from cluster_utils import run_cluster

from repro.cluster.server import ClusterServer
from repro.config import RuntimeConfig
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer

SHARDS = 4

TASKS = [
    {"name": f"task-{i}", "threshold": 40.0, "error_allowance": 0.01,
     "max_interval": 8}
    for i in range(6)
]


def _schedule(steps: int = 80) -> list[list]:
    updates = []
    for step in range(steps):
        for i, task in enumerate(TASKS):
            value = 20.0 + ((step * 7 + i * 13) % 30)
            updates.append([task["name"], step, value])
    return updates


async def _drive(client, server) -> dict:
    """Register TASKS, push the schedule, drain, collect observables."""
    for task in TASKS:
        reply = await client.register_task(**task)
        assert reply["ok"], reply
    schedule = _schedule()
    for i in range(0, len(schedule), 48):
        reply = await client.offer_batch(schedule[i:i + 48])
        assert reply["accepted"] + reply["shed"] + reply["rejected"] \
            == len(schedule[i:i + 48])
    await server.drain()
    observed = {"stats": await client.stats()}
    observed["info"] = {t["name"]: await client.task_info(t["name"])
                       for t in TASKS}
    observed["alerts"] = {t["name"]: await client.alerts(t["name"])
                         for t in TASKS}
    return observed


async def _drive_runtime() -> dict:
    server = RuntimeServer(RuntimeConfig(port=0, shards=SHARDS))
    await server.start()
    client = AsyncRuntimeClient(port=server.tcp_port)
    try:
        return await _drive(client, server)
    finally:
        await client.close()
        await server.shutdown()


class TestEquivalence:
    def test_cluster_matches_single_process_bit_for_bit(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return await _drive(client, cluster)
            finally:
                await client.close()

        clustered = run_cluster(scenario, workers=2, shards=SHARDS)
        single = asyncio.run(_drive_runtime())
        # Identical sampler decisions: samples, intervals, schedules.
        for name in clustered["info"]:
            c, s = clustered["info"][name], single["info"][name]
            for key in ("shard", "samples_taken", "alerts", "interval",
                        "next_due", "observations"):
                assert c[key] == s[key], (name, key)
        assert clustered["alerts"] == single["alerts"]
        # Identical counter totals (short-key namespace preserved).
        for key in ("offered", "applied", "consumed", "shed", "rejected",
                    "alerts", "tasks"):
            assert clustered["stats"]["totals"][key] \
                == single["stats"]["totals"][key], key
        # Identical per-shard canonical counters.
        for c, s in zip(clustered["stats"]["shards"],
                        single["stats"]["shards"]):
            assert c == s

    def test_unknown_task_updates_are_rejected_in_reply(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                await client.register_task("known", 50.0)
                return await client.offer_batch(
                    [["known", 0, 1.0], ["ghost", 0, 1.0]])
            finally:
                await client.close()

        reply = run_cluster(scenario)
        assert reply["accepted"] == 1 and reply["rejected"] == 1

    def test_cross_worker_trigger_installs_a_plan(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                # task-0 routes to shard 1 (on w1), task-4 to shard 0 (on
                # w0) — golden assignments: a pair across workers is a
                # plan like any other.
                for task in TASKS:
                    await client.register_task(**task)
                reply = await client.request(
                    {"op": "add_trigger", "target": "task-0",
                     "trigger": "task-4", "elevation_level": 0.5})
                return reply, await client.trigger_state("task-0")
            finally:
                await client.close()

        reply, state = run_cluster(scenario, shards=SHARDS)
        assert reply == {"ok": True, "target": "task-0",
                         "trigger": "task-4", "plans": 1}
        assert state["state"]["trigger"] == "task-4"

    def test_same_shard_trigger_accepted(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                # task-0 and task-2 both route to shard 1 of 4.
                return await client.request(
                    {"op": "add_trigger", "target": "task-0",
                     "trigger": "task-2", "elevation_level": 0.5})
            finally:
                await client.close()

        assert run_cluster(scenario, shards=SHARDS)["ok"]


class TestClusterOnlyOps:
    def test_placement_reports_workers_and_shards(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return await client.placement()
            finally:
                await client.close()

        placement = run_cluster(scenario, workers=2, shards=SHARDS)
        assert placement["n_shards"] == SHARDS
        assert set(placement["workers"]) == {"w0", "w1"}
        hosted = sorted(sid for w in placement["workers"].values()
                        for sid in w["shards"])
        assert hosted == list(range(SHARDS))
        assert all(w["alive"] for w in placement["workers"].values())

    def test_migrate_moves_shard_with_fingerprint_match(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await client.offer_batch(_schedule(40))
                await cluster.drain()
                before = await client.placement()
                # task-0 lives on shard 1; move that shard to the other
                # worker and keep using it.
                source = next(wid for wid, w in before["workers"].items()
                              if 1 in w["shards"])
                target = "w1" if source == "w0" else "w0"
                migrated = await client.migrate(1, target)
                after = await client.placement()
                info = await client.task_info("task-0")
                more = await client.offer_batch(
                    [["task-0", 100, 25.0], ["task-0", 101, 26.0]])
                return migrated, after, info, more, target

            finally:
                await client.close()

        migrated, after, info, more, target = run_cluster(
            scenario, workers=2, shards=SHARDS)
        assert migrated["ok"] and migrated["fingerprint_match"]
        assert migrated["to"] == target
        assert 1 in after["workers"][target]["shards"]
        assert info["ok"] and info["shard"] == 1
        assert more["accepted"] == 2
        assert after["migrations"] == 1

    def test_migrate_to_unknown_worker_fails_cleanly(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return await client.request(
                    {"op": "migrate", "shard": 0, "worker": "w9"})
            finally:
                await client.close()

        reply = run_cluster(scenario)
        assert not reply["ok"] and "w9" in reply["error"]

    def test_trace_aggregates_worker_sampler_events(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                # A quiet stream, far below threshold, so the samplers
                # grow their intervals and emit interval_adapted events.
                quiet = [[t["name"], step, 10.0 + (step % 3) * 0.1]
                         for step in range(120) for t in TASKS]
                await client.offer_batch(quiet)
                await cluster.drain()
                return await client.trace()
            finally:
                await client.close()

        reply = run_cluster(scenario, shards=SHARDS)
        kinds = {e["kind"] for e in reply["events"]}
        assert "task_registered" in kinds
        assert "interval_adapted" in kinds  # pulled from the workers
        workers = {e.get("worker") for e in reply["events"]
                   if e["kind"] == "interval_adapted"}
        assert workers <= {"w0", "w1"} and workers

    def test_trace_counts_events_workers_evicted(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            hosts = [t.host for t in cluster.transports.values()]
            try:
                for task in TASKS:
                    await client.register_task(**task)
                first = await client.trace()
                # w0's ring evicts between two pulls.
                for i in range(100):
                    hosts[0].trace.emit("shed", count=i)
                second = await client.trace()
                return first, second, [h.trace.dropped for h in hosts]
            finally:
                await client.close()

        first, second, evicted = run_cluster(scenario, shards=SHARDS,
                                             trace_capacity=16)
        assert evicted[0] >= 100 - 16
        # The fleet ring's own evictions leave a sequence gap; on top of
        # them its ``dropped`` counts every event a worker evicted.
        own = second["next_seq"] - len(second["events"])
        assert second["dropped"] == own + sum(evicted)
        assert second["dropped"] - first["dropped"] >= 100 - 16

    def test_telemetry_merges_fleet_metrics(self):
        async def scenario(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for task in TASKS:
                    await client.register_task(**task)
                await client.offer_batch(_schedule(40))
                await cluster.drain()
                return await client.telemetry()
            finally:
                await client.close()

        reply = run_cluster(scenario, workers=2, shards=SHARDS)
        metrics = reply["metrics"]
        applied = metrics["volley_updates_applied_total"]
        assert applied["label_names"] == ["worker", "shard"]
        workers = {s["labels"][0] for s in applied["series"]}
        assert workers == {"w0", "w1"}
        total = sum(s["value"] for s in applied["series"])
        assert total == len(_schedule(40))
        # Coordinator families pass through the merge.
        assert "volley_worker_up" in metrics
        assert "volley_migrations_total" in metrics
        # Histograms merge into one summary series.
        hist = metrics["volley_sampling_interval"]
        assert len(hist["series"]) == 1
        assert hist["series"][0]["value"]["count"] > 0


class TestRestartFromOwnCheckpoint:
    def test_tasks_a_snapshot_carried_are_restored_not_re_registered(
            self, tmp_path, monkeypatch):
        """A 2-worker cluster restarted from its own checkpoint counts
        every task as restored and sends no ``w_register_task``: what
        the shard snapshots carry is read through
        ``repro.service.snapshot_task_names``, whatever their version."""
        names = [f"task-{i}" for i in range(12)]
        ops: list[str] = []
        request = ClusterServer._request

        async def recorded(self, worker_id, payload):
            ops.append(payload["op"])
            return await request(self, worker_id, payload)
        monkeypatch.setattr(ClusterServer, "_request", recorded)

        async def first(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                for name in names:
                    await client.register_task(
                        name=name, threshold=60.0, error_allowance=0.01)
                await client.offer_batch([[name, s, 20.0 + s % 5]
                                          for s in range(12)
                                          for name in names])
                await cluster.drain()
                return [await client.task_info(name) for name in names]
            finally:
                await client.close()

        async def restarted(cluster):
            client = AsyncRuntimeClient(port=cluster.tcp_port)
            try:
                return cluster.restored_tasks, [
                    await client.task_info(name) for name in names]
            finally:
                await client.close()

        config = dict(workers=2, shards=4, heartbeat_interval=3600.0,
                      checkpoint_path=tmp_path / "cluster.ckpt",
                      checkpoint_interval=3600.0)
        before = run_cluster(first, **config)    # + the final flush
        assert ops.count("w_register_task") == len(names)
        del ops[:]
        restored, after = run_cluster(restarted, **config)
        assert restored == len(names) and after == before
        assert "w_restore_shard" in ops and "w_register_task" not in ops
