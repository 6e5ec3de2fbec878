"""Monetary cost analysis of adaptive sampling (paper SI).

The paper motivates Volley partly in money: hosted monitoring services
charge per sample (pay-as-you-go) and "monitoring costs can account for up
to 18% of total operation cost". This module converts sampling schedules
into a CloudWatch-style bill and reports what the adaptive scheme saves on
a fleet of monitoring tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.datacenter.cost import MonetaryCostModel
from repro.exceptions import ConfigurationError
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_lockstep
from repro.simulation.randomness import RandomStreams
from repro.workloads.thresholds import threshold_for_selectivity
from repro.workloads.traffic import TrafficDifferenceGenerator

__all__ = ["MonetaryReport", "monetary_analysis"]


@dataclass(frozen=True, slots=True)
class MonetaryReport:
    """Fleet-level monthly monitoring bill, periodic vs. Volley.

    Attributes:
        tasks: number of monitoring tasks in the fleet.
        error_allowance: allowance used by the adaptive scheme.
        periodic_cost: monthly bill under periodic default sampling.
        adaptive_cost: monthly bill under violation-likelihood sampling.
        other_operation_cost: the rest of the monthly operation bill the
            monitoring fraction is computed against.
        mean_sampling_ratio: fleet-mean Volley/periodic sampling ratio.
    """

    tasks: int
    error_allowance: float
    periodic_cost: float
    adaptive_cost: float
    other_operation_cost: float
    mean_sampling_ratio: float

    @property
    def saving(self) -> float:
        """Absolute monthly saving."""
        return self.periodic_cost - self.adaptive_cost

    def monitoring_fraction(self, monitoring_cost: float) -> float:
        """Monitoring share of the total operation bill."""
        return monitoring_cost / (monitoring_cost
                                  + self.other_operation_cost)

    def report(self) -> str:
        """Text rendering of the bill comparison."""
        rows = [
            ["periodic", self.periodic_cost,
             100.0 * self.monitoring_fraction(self.periodic_cost)],
            ["volley", self.adaptive_cost,
             100.0 * self.monitoring_fraction(self.adaptive_cost)],
        ]
        return format_table(
            ["scheme", "monthly cost", "% of operation bill"], rows,
            title=(f"Monetary cost: {self.tasks} network tasks, "
                   f"err={self.error_allowance}, mean sampling ratio "
                   f"{self.mean_sampling_ratio:.3f}"))


def monetary_analysis(num_tasks: int = 8, horizon: int = 10_000,
                      error_allowance: float = 0.01,
                      selectivity: float = 0.4,
                      price_per_sample: float = 1.0e-4,
                      other_operation_cost_monthly: float = 500.0,
                      seed: int = 0) -> MonetaryReport:
    """Price a fleet of network monitoring tasks, periodic vs. Volley.

    Each task samples one traffic-difference stream with a 15-second
    default interval; the bill extrapolates the measured sampling ratio to
    a 30-day month at the given per-sample price. The
    ``other_operation_cost_monthly`` default makes periodic monitoring
    land near the paper's "up to 18% of total operation cost" figure.
    """
    if num_tasks < 1:
        raise ConfigurationError(f"num_tasks must be >= 1, got {num_tasks}")
    streams = RandomStreams(seed)
    traces, tasks = [], []
    for i in range(num_tasks):
        rng = streams.stream("monetary", i)
        trace = TrafficDifferenceGenerator(
            phase=float(rng.uniform(0.0, 1.0))).generate(horizon, rng)
        traces.append(trace)
        tasks.append(TaskSpec(
            threshold=threshold_for_selectivity(trace, selectivity),
            error_allowance=error_allowance,
            default_interval=15.0, max_interval=10))
    mean_ratio = float(np.mean([
        run.sampling_ratio
        for run in run_lockstep(traces, tasks, AdaptationConfig())]))

    samples_per_month = 30 * 24 * 3600 / 15.0  # one task, periodic
    periodic_bill = MonetaryCostModel(price_per_sample=price_per_sample)
    periodic_bill.charge_sample(int(num_tasks * samples_per_month))
    adaptive_bill = MonetaryCostModel(price_per_sample=price_per_sample)
    adaptive_bill.charge_sample(
        int(num_tasks * samples_per_month * mean_ratio))

    return MonetaryReport(
        tasks=num_tasks,
        error_allowance=error_allowance,
        periodic_cost=periodic_bill.total_cost,
        adaptive_cost=adaptive_bill.total_cost,
        other_operation_cost=other_operation_cost_monthly,
        mean_sampling_ratio=mean_ratio,
    )
