"""Reproduction of *Volley: Violation Likelihood Based State Monitoring for
Datacenters* (Meng, Iyengar, Rouvellou, Liu — ICDCS 2013).

Volley replaces fixed-interval ("periodic") sampling in datacenter state
monitoring with dynamic intervals driven by the likelihood of missing a
threshold violation, at three levels:

* **monitor level** — Chebyshev-bounded mis-detection rate drives an
  AIMD-like interval adaptation (:mod:`repro.core.adaptation`);
* **task level** — a coordinator reallocates the global error allowance
  across a distributed task's monitors by cost-reduction yield
  (:mod:`repro.core.coordination`);
* **multi-task level** — correlated cheap metrics gate expensive tasks
  (:mod:`repro.core.correlation`).

Quickstart::

    import numpy as np
    from repro import TaskSpec, run_adaptive, run_periodic

    rng = np.random.default_rng(7)
    trace = np.cumsum(rng.normal(0, 1, 50_000)) + rng.normal(0, 3, 50_000)
    threshold = float(np.quantile(trace, 0.99))

    task = TaskSpec(threshold=threshold, error_allowance=0.01)
    volley = run_adaptive(trace, task)
    periodic = run_periodic(trace, threshold)

    print(f"cost ratio      {volley.sampling_ratio:.2f}")
    print(f"mis-detection   {volley.misdetection_rate:.4f}")

Subpackages: :mod:`repro.core` (algorithms), :mod:`repro.workloads`
(synthetic datacenter workloads), :mod:`repro.simulation` (seeded RNG
streams), :mod:`repro.datacenter` (grid-stepped virtualized
testbed + cost models),
:mod:`repro.baselines`, :mod:`repro.experiments` (figure reproductions).
"""

from repro.core import (AdaptationConfig, AdaptiveAllocation, AggregateKind,
                        CorrelationDetector, CorrelationPlanner,
                        DistributedTaskSpec, EvenAllocation,
                        OnlineStatistics, SamplingDecision, TaskProfile,
                        TaskSpec, ViolationLikelihoodSampler,
                        WindowedTaskSpec, aggregate_trace, evaluate_sampling,
                        misdetection_bound, run_windowed_adaptive)
from repro.baselines import (OracleSampler, PeriodicSampler,
                             RandomIntervalSampler)
from repro.experiments import (DistributedRunResult, RunResult, run_adaptive,
                               run_distributed_task, run_periodic,
                               run_sampler_on_trace, run_triggered)
from repro.config import service_from_config, task_from_config
from repro.service import MonitoringService
from repro.types import Alert, Sample, ThresholdDirection

__version__ = "1.0.0"

__all__ = [
    "AdaptationConfig",
    "AdaptiveAllocation",
    "AggregateKind",
    "Alert",
    "CorrelationDetector",
    "CorrelationPlanner",
    "DistributedRunResult",
    "DistributedTaskSpec",
    "EvenAllocation",
    "MonitoringService",
    "OnlineStatistics",
    "OracleSampler",
    "PeriodicSampler",
    "RandomIntervalSampler",
    "RunResult",
    "Sample",
    "SamplingDecision",
    "TaskProfile",
    "TaskSpec",
    "ThresholdDirection",
    "ViolationLikelihoodSampler",
    "WindowedTaskSpec",
    "__version__",
    "aggregate_trace",
    "evaluate_sampling",
    "misdetection_bound",
    "run_adaptive",
    "run_distributed_task",
    "run_periodic",
    "run_sampler_on_trace",
    "run_triggered",
    "run_windowed_adaptive",
    "service_from_config",
    "task_from_config",
]
