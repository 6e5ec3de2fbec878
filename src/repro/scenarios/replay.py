"""Replaying compiled scenarios against the live runtime.

Both replays start from one statement of the fleet, the scenario's
service-config root
(:meth:`~repro.scenarios.compiler.CompiledScenario.service_config`),
read by the reader the servers use.

:func:`replay_scenario` is the fleet-scale path: it spins up a real
:class:`~repro.runtime.server.RuntimeServer` on an ephemeral loopback
port inside one event loop with the root as its ``service_config`` (so
the server registers the fleet and installs its plans at start-up),
feeds one ``offer_batch`` frame per grid step over that connection,
polls the decision-trace ring incrementally, and collects every task's
alerts, sample count and final interval back over the wire. A testkit
:class:`~repro.testkit.faults.FaultSpec` can be layered on top: the
fault hook arms only for the feed (registration and final collection
stay clean), connection-killing faults are survived by reconnecting
without resending (at-most-once, like a real collector), and everything
stays a deterministic function of ``(timeline, seed, spec)``.

:func:`simulate_replay` is the offline twin used by the scorer's
mutation checks: it drives the same per-task update sequence directly
through the :class:`~repro.service.MonitoringService` that
:func:`~repro.config.service_from_config` builds from the root
(``volley`` mode), or through two deliberately broken samplers —
``always`` (samples every grid point) and ``never`` (samples nothing) —
that a correct scorer must score as maximal-cost/zero-delay and as a
mis-detection breach.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.config import (ClusterConfig, RuntimeConfig,
                          config_trigger_plans, service_from_config)
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ConfigurationError, ProtocolError
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.runtime.shard import SHARD_COUNTERS
from repro.scenarios.compiler import CompiledScenario
from repro.testkit.faults import (FaultPlan, FaultSpec, NOOP_HOOK,
                                  PlanFaultHook)
from repro.triggers.plan import count_edge

__all__ = ["ReplayResult", "replay_scenario", "simulate_replay"]

SIM_MODES = ("volley", "always", "never")

TRACE_CAPACITY = 65536
"""Decision-trace ring size of a live replay's server, in events."""


@dataclass
class ReplayResult:
    """Everything a replay observed, per task and in aggregate.

    Deliberately free of wall-clock, ports and latencies so a scored
    report built from it is byte-reproducible. ``undelivered`` holds the
    ``(task, step)`` grid points of every chunk the feed dropped after a
    connection died, in the order sent; the scorer leaves them out.
    ``skewed`` holds ``(task, step, stamp)`` for every update sent
    stamped off its grid step (a clock-skew fault), in the order sent;
    the scorer maps alerts at those stamps back to grid steps.
    """

    mode: str
    samples: list[int]
    intervals: list[int]
    alert_steps: list[list[int]]
    counters: dict[str, int]
    trace_events: dict[str, int] = field(default_factory=dict)
    trace_dropped: int = 0
    reconnects: int = 0
    undelivered: list[tuple[int, int]] = field(default_factory=list)
    skewed: list[tuple[int, int, int]] = field(default_factory=list)
    injected: dict[str, int] | None = None
    phase_samples: list[list[int]] | None = None
    triggers: dict[str, Any] | None = None

    @property
    def lost_updates(self) -> int:
        """How many updates the at-most-once feed dropped at the wire."""
        return len(self.undelivered)


def replay_scenario(compiled: CompiledScenario, shards: int = 4,
                    fault_spec: FaultSpec | None = None,
                    fault_seed: int | None = None,
                    cluster_workers: int = 0,
                    cluster_backend: str = "subprocess") -> ReplayResult:
    """Replay a compiled scenario through a live runtime server.

    With ``cluster_workers > 0`` the scenario replays through the
    multi-process cluster runtime (:mod:`repro.cluster`) instead of a
    single-process server — the sampler decisions, alerts and scoring
    must come out identical, which is exactly what the CI cluster-smoke
    job asserts. Fault injection hooks live inside the single-process
    server's shard loop, so faults and clusters are mutually exclusive.
    """
    if fault_spec is not None and fault_spec.crash_fractions:
        raise ConfigurationError(
            "crash_fractions are not supported by scenario replay; use "
            "the testkit conformance driver for crash/restart scenarios")
    if cluster_workers and fault_spec is not None:
        raise ConfigurationError(
            "fault injection is not supported by cluster replay; fault "
            "hooks are a single-process server feature (chaos against "
            "the cluster is the testkit SIGKILL matrix)")
    return asyncio.run(_replay(compiled, shards, fault_spec, fault_seed,
                               int(cluster_workers), cluster_backend))


async def _replay(compiled: CompiledScenario, shards: int,
                  fault_spec: FaultSpec | None, fault_seed: int | None,
                  cluster_workers: int,
                  cluster_backend: str) -> ReplayResult:
    n_steps, n_tasks = compiled.values.shape
    root = compiled.service_config()
    adaptation = AdaptationConfig.from_dict(compiled.timeline.adaptation)

    hook = NOOP_HOOK
    plan: FaultPlan | None = None
    if fault_spec is not None:
        plan = FaultPlan(compiled.seed if fault_seed is None
                         else int(fault_seed), fault_spec)
        hook = PlanFaultHook(plan)
        hook.armed = False
        hook.checkpoint_armed = False

    # The server registers the fleet and installs its plans from the
    # root as it starts, through the bodies the wire ops call; the fault
    # hook is still disarmed then.
    if cluster_workers:
        from repro.cluster.server import ClusterServer

        cluster_config = ClusterConfig(
            workers=cluster_workers,
            shards=max(shards, cluster_workers),
            backend=cluster_backend, port=0,
            queue_depth=max(1024, n_steps + 16),
            max_batch=max(8192, n_tasks),
            trace_capacity=TRACE_CAPACITY)
        server = ClusterServer(cluster_config, adaptation=adaptation,
                               service_config=root)
    else:
        config = RuntimeConfig(
            shards=shards, port=0,
            queue_depth=max(1024, n_steps + 16),
            max_batch=max(8192, n_tasks),
            trace_capacity=TRACE_CAPACITY,
            checkpoint_interval=3600.0)
        server = RuntimeServer(config, service_config=root,
                               adaptation=adaptation, fault_hook=hook)
    await server.start()
    assert server.tcp_port is not None
    client = AsyncRuntimeClient(port=server.tcp_port)

    trace_events: dict[str, int] = {}
    trace_state = {"cursor": 0, "dropped": 0}
    stats = {"reconnects": 0}
    undelivered: list[tuple[int, int]] = []
    skews: list[tuple[int, int, int]] = []

    async def reconnect() -> None:
        await client.close()
        stats["reconnects"] += 1

    async def poll_trace() -> None:
        # The ring keeps events until overwritten, so a failed poll loses
        # nothing — the cursor stays put and the next poll catches up.
        try:
            reply = await client.trace(since=trace_state["cursor"])
        except (ProtocolError, ConnectionError, OSError):
            await reconnect()
            return
        trace_state["cursor"] = int(reply["next_seq"])
        trace_state["dropped"] = int(reply["dropped"])
        for event in reply["events"]:
            kind = str(event.get("kind", "?"))
            trace_events[kind] = trace_events.get(kind, 0) + 1

    plans = root["trigger_plans"]
    boundaries = ({span.end for span in compiled.spans} if plans
                  else set())
    phase_samples: list[list[int]] = []

    try:
        skewed = (plan is not None and fault_spec is not None
                  and fault_spec.clock_skew_rate > 0.0
                  and fault_spec.clock_skew_max > 0)
        # Poll often enough that the ring can never wrap between polls
        # even if every update produced an event.
        poll_every = max(1, TRACE_CAPACITY // (4 * n_tasks))
        if hook is not NOOP_HOOK:
            hook.armed = True
        values = compiled.values
        names = compiled.task_names
        max_batch = max(8192, n_tasks)
        for step in range(n_steps):
            row = values[step]
            if skewed:
                assert plan is not None
                stamps = [step + plan.skew(t, step) for t in range(n_tasks)]
                skews.extend((t, step, stamp)
                             for t, stamp in enumerate(stamps)
                             if stamp != step)
                batch = [[names[t], stamps[t], float(row[t])]
                         for t in range(n_tasks)]
            else:
                batch = [[names[t], step, float(row[t])]
                         for t in range(n_tasks)]
            for lo in range(0, n_tasks, max_batch):
                chunk = batch[lo:lo + max_batch]
                try:
                    await client.offer_batch(chunk)
                except (ProtocolError, ConnectionError, OSError):
                    # At-most-once: a collector whose connection died
                    # mid-frame does not know what landed — drop, not
                    # resend, exactly like the chaos conformance driver.
                    await reconnect()
                    undelivered.extend(
                        (t, step) for t in range(lo, lo + len(chunk)))
            if plans and cluster_workers:
                # Cross-worker edges are pump-propagated (a worker routes
                # those among its own shards inline, as the single-process
                # server does); pumping every step keeps such a guard's
                # edge latency at one grid step and the run a
                # deterministic function of the inputs, heartbeat or not.
                await client.request({"op": "trigger_plans"})
            if (step + 1) in boundaries:
                # Phase-boundary sample snapshots feed the scorer's
                # per-phase probe-saving accounting for guarded fleets.
                # They are readings, like the final collection: taken
                # with the fault hook disarmed, so faults land on the
                # offers alone and their schedule is the same with or
                # without a boundary.
                await server.drain()
                if hook is not NOOP_HOOK:
                    hook.armed = False
                snap = []
                for name in names:
                    info = await client.task_info(name)
                    snap.append(int(info["samples_taken"]))
                phase_samples.append(snap)
                if hook is not NOOP_HOOK:
                    hook.armed = True
            if (step + 1) % poll_every == 0:
                await poll_trace()

        # Shard drain runs while the hook is still armed (apply faults
        # land deterministically), then the collection phase is clean.
        await server.drain()
        if hook is not NOOP_HOOK:
            hook.armed = False
        await poll_trace()

        server_stats = await client.stats()
        counters = {counter.short: int(server_stats["totals"][counter.short])
                    for counter in SHARD_COUNTERS}

        trigger_stats: dict[str, Any] | None = None
        if plans:
            reply = await client.request({"op": "trigger_plans"})
            if reply.get("ok"):
                trigger_stats = {
                    "plans": len(reply.get("plans", ())),
                    "edges": dict(reply.get("edges", {})),
                    "suspensions": int(reply.get("suspensions", 0)),
                    "probe_cost_saved": float(
                        reply.get("probe_cost_saved", 0.0)),
                }

        samples = [0] * n_tasks
        intervals = [0] * n_tasks
        alert_steps: list[list[int]] = [[] for _ in range(n_tasks)]
        for t, name in enumerate(names):
            info = await client.task_info(name)
            samples[t] = int(info["samples_taken"])
            intervals[t] = int(info["interval"])
            raised = await client.alerts(name)
            alert_steps[t] = sorted({int(a[0]) for a in raised})
    finally:
        await client.close()
        await server.shutdown()

    return ReplayResult(
        mode="live",
        samples=samples,
        intervals=intervals,
        alert_steps=alert_steps,
        counters=counters,
        trace_events=dict(sorted(trace_events.items())),
        trace_dropped=trace_state["dropped"],
        reconnects=stats["reconnects"],
        undelivered=undelivered,
        skewed=skews,
        injected=(dict(hook.injected)
                  if isinstance(hook, PlanFaultHook) else None),
        phase_samples=phase_samples if plans else None,
        triggers=trigger_stats,
    )


def simulate_replay(compiled: CompiledScenario,
                    mode: str = "volley") -> ReplayResult:
    """Offline replay: the in-process sampler, or a planted-broken one.

    ``volley`` drives the real :class:`~repro.service.MonitoringService`
    with the exact update sequence the live replay sends, so its alerts
    and sample counts must match a fault-free :func:`replay_scenario`
    bit for bit. ``always`` and ``never`` are the scorer mutation
    probes: a sampler that samples every grid point (zero detection
    delay, maximal cost) and one that never samples (total
    mis-detection).
    """
    if mode not in SIM_MODES:
        raise ConfigurationError(
            f"unknown simulate mode {mode!r} (expected one of {SIM_MODES})")
    timeline = compiled.timeline
    n_steps, n_tasks = compiled.values.shape

    has_triggers = bool(timeline.triggers)
    if mode == "always":
        alert_steps = [compiled.truth_indices(t).tolist()
                       for t in range(n_tasks)]
        return ReplayResult(
            mode="sim-always",
            samples=[n_steps] * n_tasks,
            intervals=[1] * n_tasks,
            alert_steps=alert_steps,
            counters=_sim_counters(n_steps, n_tasks, n_steps * n_tasks,
                                   sum(len(a) for a in alert_steps)),
            phase_samples=([[span.end] * n_tasks
                            for span in compiled.spans]
                           if has_triggers else None))
    if mode == "never":
        return ReplayResult(
            mode="sim-never",
            samples=[0] * n_tasks,
            intervals=[timeline.max_interval] * n_tasks,
            alert_steps=[[] for _ in range(n_tasks)],
            counters=_sim_counters(n_steps, n_tasks, 0, 0),
            phase_samples=([[0] * n_tasks for _ in compiled.spans]
                           if has_triggers else None))

    root = compiled.service_config()
    service = service_from_config(
        root, AdaptationConfig.from_dict(timeline.adaptation))
    values = compiled.values
    names = compiled.task_names

    # The one service routes its own edges; the sink counts them per
    # plan by the servers' rule.
    plans = config_trigger_plans(root)
    edges = {"arm": 0, "disarm": 0}
    if plans:
        by_target = {plan.target: plan for plan in plans}
        tasks = set(names)
        service.set_trigger_sink(
            lambda event: count_edge(by_target, tasks, edges, event))
    boundaries = ({span.end for span in compiled.spans} if plans
                  else set())
    phase_samples: list[list[int]] = []

    for step in range(n_steps):
        row = values[step]
        for t in range(n_tasks):
            service.offer(names[t], float(row[t]), step)
        if (step + 1) in boundaries:
            phase_samples.append([service.samples_taken(name)
                                  for name in names])
    samples = [service.samples_taken(name) for name in names]
    alert_steps = [sorted({a.time_index for a in service.alerts(name)})
                   for name in names]
    trigger_stats: dict[str, Any] | None = None
    if plans:
        suspensions, saved = service.trigger_accounting()
        trigger_stats = {"plans": len(plans), "edges": dict(edges),
                         "suspensions": suspensions,
                         "probe_cost_saved": saved}
    return ReplayResult(
        mode="sim-volley",
        samples=samples,
        intervals=[service.interval(name) for name in names],
        alert_steps=alert_steps,
        counters=_sim_counters(n_steps, n_tasks, sum(samples),
                               sum(len(a) for a in alert_steps)),
        phase_samples=phase_samples if plans else None,
        triggers=trigger_stats)


def _sim_counters(n_steps: int, n_tasks: int, consumed: int,
                  alerts: int) -> dict[str, int]:
    offered = n_steps * n_tasks
    return {"offered": offered, "applied": offered, "consumed": consumed,
            "shed": 0, "rejected": 0, "alerts": alerts}
