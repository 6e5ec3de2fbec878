"""Datacenter-level multi-task monitoring with state correlation (SII-A).

The paper's multi-task level "automatically detects state correlation
between tasks and schedules sampling for different tasks at the
datacenter level considering both cost factors and degree of state
correlation". This experiment realises that pipeline over a fleet of VMs,
each running three monitoring tasks of very different sampling cost:

* ``ddos`` — traffic-difference deep packet inspection (expensive),
* ``response`` — request response time (cheap),
* ``cpu`` — a system counter (cheap).

Phase 1 profiles a historical window and feeds the per-VM task profiles to
the :class:`~repro.core.correlation.CorrelationPlanner`; phase 2 runs the
remaining horizon with the planned trigger rules applied, and reports the
fleet's weighted sampling cost and accuracy against plain adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.correlation import CorrelationPlanner, TaskProfile, TriggerRule
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_lockstep, run_triggered
from repro.simulation.randomness import RandomStreams
from repro.workloads.sysmetrics import SystemMetricsDataset
from repro.workloads.traffic import TrafficDifferenceGenerator

__all__ = ["MultiTaskResult", "multitask_experiment", "DPI_COST"]

DPI_COST = 40.0
"""Relative cost of one DPI sampling operation vs. a counter read."""


@dataclass(frozen=True, slots=True)
class MultiTaskResult:
    """Fleet-level outcome of correlation-planned monitoring.

    Costs are sampling operations weighted by per-task cost, summed over
    the fleet and normalised by the periodic-sampling cost (so 1.0 means
    "as expensive as sampling everything at the default interval").

    Attributes:
        num_vms: fleet size.
        rules_planned: trigger rules the planner discovered.
        plain_cost / planned_cost: weighted cost ratios without/with the
            correlation plan (both already use violation-likelihood
            adaptation).
        plain_misdetection / planned_misdetection: fleet-mean mis-detection
            of the expensive (guarded) task.
    """

    num_vms: int
    rules_planned: int
    plain_cost: float
    planned_cost: float
    plain_misdetection: float
    planned_misdetection: float

    def report(self) -> str:
        """Text rendering of the fleet comparison."""
        rows = [
            ["volley", self.plain_cost, self.plain_misdetection],
            ["volley + correlation plan", self.planned_cost,
             self.planned_misdetection],
        ]
        return format_table(
            ["scheme", "weighted-cost", "ddos mis-detection"], rows,
            title=(f"Multi-task datacenter monitoring "
                   f"({self.num_vms} VMs x 3 tasks, "
                   f"{self.rules_planned} trigger rules planned)"))


def _vm_streams(vm: int, horizon: int, streams: RandomStreams,
                dataset: SystemMetricsDataset,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlated (rho, response, cpu) streams for one VM.

    Attack episodes raise response time first and the traffic difference
    a few windows later (response is a necessary condition, as in the
    paper's DDoS example); CPU load is independent background.
    """
    rng = streams.stream("multitask-vm", vm)
    rho = TrafficDifferenceGenerator(burst_prob=0.0).generate(horizon, rng)
    response = 20.0 + rng.normal(0.0, 1.5, horizon)
    n_events = max(3, horizon // 2500)
    starts = np.linspace(horizon // 10, horizon - 200,
                         n_events).astype(int)
    for s in starts:
        span = int(rng.integers(70, 130))
        response[s:s + span] += rng.uniform(120.0, 280.0)
        rho[s + 10:s + span - 10] += rng.uniform(2500.0, 6000.0)
    cpu = dataset.generate(vm, "cpu_user_pct", horizon)
    return rho, response, cpu


def multitask_experiment(num_vms: int = 4, horizon: int = 24_000,
                         profile_fraction: float = 0.3,
                         error_allowance: float = 0.01,
                         seed: int = 0) -> MultiTaskResult:
    """Run the fleet with and without the correlation-planned schedule.

    Args:
        num_vms: VMs, each with a ddos/response/cpu task triple.
        horizon: total grid steps; the first ``profile_fraction`` of them
            form the profiling window the planner learns from, the rest
            are the evaluation window.
        profile_fraction: share of the horizon used for correlation
            profiling.
        error_allowance: per-task error allowance.
        seed: master seed.
    """
    if num_vms < 1:
        raise ConfigurationError(f"num_vms must be >= 1, got {num_vms}")
    if not 0.05 <= profile_fraction <= 0.9:
        raise ConfigurationError(
            f"profile_fraction must be in [0.05, 0.9], got "
            f"{profile_fraction}")
    streams = RandomStreams(seed)
    dataset = SystemMetricsDataset(num_nodes=num_vms, seed=seed)
    split = int(horizon * profile_fraction)
    planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1,
                                 suspend_interval=10)
    config = AdaptationConfig()

    rho_threshold = 1000.0
    response_threshold = 120.0

    ddos_task = TaskSpec(threshold=rho_threshold,
                         error_allowance=error_allowance, max_interval=10)
    rules: list[TriggerRule | None] = []
    traces: list[np.ndarray] = []
    tasks: list[TaskSpec] = []
    for vm in range(num_vms):
        rho, response, cpu = _vm_streams(vm, horizon, streams, dataset)
        cpu_threshold = float(np.percentile(cpu[:split], 99.5))

        profiles = [
            TaskProfile(task_id="response", values=response[:split],
                        threshold=response_threshold, cost_per_sample=1.0),
            TaskProfile(task_id="cpu", values=cpu[:split],
                        threshold=cpu_threshold, cost_per_sample=1.0),
            TaskProfile(task_id="ddos", values=rho[:split],
                        threshold=rho_threshold, cost_per_sample=DPI_COST),
        ]
        rules.append(next((r for r in planner.plan(profiles)
                           if r.target_id == "ddos"), None))

        # Evaluation window: the fleet's cheap tasks and unguarded ddos
        # tasks run as one lockstep below.
        traces += [response[split:], cpu[split:], rho[split:]]
        tasks += [TaskSpec(threshold=response_threshold,
                           error_allowance=error_allowance, max_interval=10),
                  TaskSpec(threshold=cpu_threshold,
                           error_allowance=error_allowance, max_interval=10),
                  ddos_task]
    runs = run_lockstep(traces, tasks, config, record_intervals=False)

    plain_cost = planned_cost = periodic_cost = 0.0
    plain_miss, planned_miss = [], []
    for vm, ddos_rule in enumerate(rules):
        eval_response, eval_cpu, eval_rho = traces[3 * vm:3 * vm + 3]
        response_run, cpu_run, plain = runs[3 * vm:3 * vm + 3]
        cheap_cost = response_run.sampling_ratio + cpu_run.sampling_ratio
        plain_cost += cheap_cost + plain.sampling_ratio * DPI_COST
        plain_miss.append(plain.misdetection_rate)

        guarded = plain if ddos_rule is None else run_triggered(
            eval_rho,
            eval_response if ddos_rule.trigger_id == "response" else eval_cpu,
            ddos_task, ddos_rule.elevation_level, planner.suspend_interval,
            config)
        planned_cost += cheap_cost + guarded.sampling_ratio * DPI_COST
        planned_miss.append(guarded.misdetection_rate)
        periodic_cost += 2.0 * 1.0 + DPI_COST

    return MultiTaskResult(
        num_vms=num_vms,
        rules_planned=sum(rule is not None for rule in rules),
        plain_cost=plain_cost / periodic_cost,
        planned_cost=planned_cost / periodic_cost,
        plain_misdetection=float(np.mean(plain_miss)),
        planned_misdetection=float(np.mean(planned_miss)),
    )
