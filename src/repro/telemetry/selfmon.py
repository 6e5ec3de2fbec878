"""Self-monitoring: Volley watching Volley (the observability loop).

The runtime exports gauges — queue depth, shed rate, checkpoint age —
but a gauge nobody samples is a dashboard, not a monitor. The
:class:`SelfMonitor` closes the loop with the paper's own machinery: it
registers each runtime-health gauge as a violation-likelihood monitoring
task in a *dedicated* in-process :class:`~repro.service.MonitoringService`
(shard label ``"self"``, never one of the wire shards, so ingest
backpressure can never starve the thing that detects ingest
backpressure) and polls them on the server's event loop.

Because the health tasks are ordinary Volley tasks, the paper's savings
apply to the monitor itself: while the runtime is healthy the samplers
stretch their intervals and most polls collect nothing; when a health
metric drifts toward its threshold the intervals collapse back to the
default and an alert fires within one poll period. The
``volley_selfmon_*`` counters quantify exactly how many probe
collections the likelihood scheduling saved.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Any, Callable

from repro.core.task import TaskSpec
from repro.types import Alert

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.runtime.server import RuntimeServer
    from repro.service import MonitoringService

__all__ = ["SELF_SHARD", "SelfMonitor"]

SELF_SHARD = "self"
"""Shard label of the self-monitoring service (never a wire shard)."""


class SelfMonitor:
    """Monitors the runtime's own health gauges as Volley tasks.

    Args:
        server: the :class:`~repro.runtime.server.RuntimeServer` to watch;
            its registry takes the ``volley_selfmon_*`` counters and its
            trace the ``selfmon_alert`` events.
        saturation_fraction: queue-depth alert threshold as a fraction of
            each shard queue's capacity.
        shed_rate_threshold: alert threshold on updates shed per poll
            period.
        checkpoint_age_factor: alert when the last successful checkpoint
            is older than ``factor * checkpoint_interval`` seconds
            (only registered when checkpointing is configured).
        error_allowance: per-health-task mis-detection allowance.
        max_interval: largest poll-skipping interval the samplers may
            reach, in poll periods.
    """

    def __init__(self, server: "RuntimeServer",
                 saturation_fraction: float = 0.8,
                 shed_rate_threshold: float = 1.0,
                 checkpoint_age_factor: float = 3.0,
                 error_allowance: float = 0.05,
                 max_interval: int = 30):
        # Imported here, not at module scope: repro.service pulls in the
        # sketch substrates, which live on top of repro.telemetry — a
        # top-level import would close that cycle.
        from repro.service import MonitoringService

        self._server = server
        self._trace = server.trace
        registry = server.registry
        self.service = MonitoringService()
        self._step = 0
        self._probes: list[tuple[str, Callable[[], float]]] = []
        self.alerts: list[tuple[str, Alert]] = []
        # Every series reads what the service already holds: each poll
        # considers every probe, and each collection is one sample.
        registry.counter(
            "volley_selfmon_polls_total",
            "Self-monitor probe evaluations considered",
            fn=lambda: float(self._step * len(self._probes)))
        registry.counter(
            "volley_selfmon_samples_total",
            "Self-monitor probe collections actually performed "
            "(polls minus likelihood-scheduling savings)",
            fn=lambda: float(sum(self.service.samples_taken(name)
                                 for name in self.task_names)))
        self._alerts_total = registry.counter(
            "volley_selfmon_alerts_total",
            "Self-monitor alerts", labels=("task",))
        self._interval_gauge = registry.gauge(
            "volley_selfmon_interval", "Current self-monitor sampling "
            "interval per health task, in poll periods", labels=("task",))

        spec = dict(error_allowance=error_allowance,
                    default_interval=1.0, max_interval=max_interval)
        for worker in server._workers:
            threshold = saturation_fraction * worker.capacity
            self._add_probe(
                f"volley.shard{worker.shard_id}.queue_depth", threshold,
                lambda w=worker: float(w.depth), spec)
        self._add_probe("volley.shed_rate", shed_rate_threshold,
                        self._shed_rate, spec)
        self._last_shed = (0, 0.0)  # (step, total sheds) at last sample
        if server.config.checkpoint_path is not None:
            age_threshold = (checkpoint_age_factor
                             * server.config.checkpoint_interval)
            self._add_probe("volley.checkpoint_age", age_threshold,
                            self._checkpoint_age, spec)
        self._runner: asyncio.Task[None] | None = None

    def _add_probe(self, name: str, threshold: float,
                   fn: Callable[[], float], spec: dict[str, Any]) -> None:
        task = TaskSpec(threshold=float(threshold), name=name, **spec)

        def on_alert(alert: Alert, _name: str = name) -> None:
            self.alerts.append((_name, alert))
            self._trace.emit("selfmon_alert", task=_name, shard=SELF_SHARD,
                             step=alert.time_index, value=alert.value,
                             threshold=alert.threshold)

        self.service.add_task(name, task, on_alert=on_alert)
        self._probes.append((name, fn))
        service = self.service
        self._alerts_total.labels(
            name, fn=lambda: float(service.alert_count(name)))
        self._interval_gauge.labels(
            name, fn=lambda: float(service.interval(name)))

    # -- probe value functions -----------------------------------------

    def _shed_rate(self) -> float:
        """Updates shed per poll period since the previous collection."""
        total = float(sum(w.shed for w in self._server._workers))
        last_step, last_total = self._last_shed
        steps = max(1, self._step - last_step)
        self._last_shed = (self._step, total)
        return (total - last_total) / steps

    def _checkpoint_age(self) -> float:
        return self._server.checkpoint_age() or 0.0

    # -- driving --------------------------------------------------------

    @property
    def task_names(self) -> list[str]:
        """The registered health-task names."""
        return [name for name, _ in self._probes]

    def poll(self) -> int:
        """One poll period: collect every *due* probe; returns collections.

        Skipped probes are the savings — the gauge read (and any work it
        implies) is simply not performed, exactly as the paper's samplers
        skip collection for values the schedule does not need.
        """
        step = self._step
        service = self.service
        collected = 0
        for name, fn in self._probes:
            if not service.due(name, step):
                continue
            service.offer(name, fn(), step)
            collected += 1
        self._step = step + 1
        return collected

    async def run(self, interval_s: float) -> None:
        """Poll forever every ``interval_s`` seconds (cancel to stop)."""
        while True:
            await asyncio.sleep(interval_s)
            self.poll()

    def start(self, interval_s: float) -> None:
        """Start the periodic poll loop on the running event loop."""
        if self._runner is None:
            self._runner = asyncio.get_running_loop().create_task(
                self.run(interval_s), name="selfmon-loop")

    async def stop(self) -> None:
        """Cancel the poll loop (idempotent)."""
        if self._runner is None:
            return
        self._runner.cancel()
        try:
            await self._runner
        except asyncio.CancelledError:
            pass
        self._runner = None

    def stats(self) -> dict[str, Any]:
        """Summary for the ``telemetry`` consumers and tests."""
        return {
            "steps": self._step,
            "tasks": {name: {"interval": self.service.interval(name),
                             "samples_taken":
                                 self.service.samples_taken(name),
                             "alerts": self.service.alert_count(name)}
                      for name, _ in self._probes},
            "alerts": len(self.alerts),
        }
