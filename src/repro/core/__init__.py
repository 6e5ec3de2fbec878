"""Volley's core algorithms (paper SIII-SIV + multi-task correlation).

Everything in this package is pure computation over sampled values — no
simulation, workload, or I/O dependencies — so the same code drives both
the lightweight experiment runners and the grid-stepped datacenter
testbed.
"""

from repro.core.accuracy import (RunAccuracy, alert_episodes,
                                 evaluate_sampling, truth_alert_indices)
from repro.core.adaptation import (AdaptationConfig, CoordinationStats,
                                   SamplingDecision,
                                   ViolationLikelihoodSampler)
from repro.core.coordination import (AdaptiveAllocation, AllocationPolicy,
                                     AllocationUpdate, EvenAllocation)
from repro.core.correlation import (CorrelationDetector, CorrelationEvidence,
                                    CorrelationPlanner, TaskProfile,
                                    TriggerRule)
from repro.core.likelihood import (cantelli_upper_bound,
                                   gaussian_misdetection_estimate,
                                   gaussian_step_violation_estimate,
                                   max_admissible_interval,
                                   misdetection_bound,
                                   misdetection_bound_fused,
                                   step_violation_bound)
from repro.core.online_stats import OnlineStatistics, WindowedStatistics
from repro.core.sampler import SamplingScheme
from repro.core.soa import ColumnBatchResult, SoaSamplerEngine
from repro.core.substrates import (TASK_PARAMS, TASK_TYPES,
                                   EntropyEstimator, QuantileEstimator)
from repro.core.task import DistributedTaskSpec, TaskSpec
from repro.core.windowed import (AggregateKind, WindowedTaskSpec,
                                 aggregate_trace, run_windowed_adaptive)

__all__ = [
    "AdaptationConfig",
    "AggregateKind",
    "AdaptiveAllocation",
    "AllocationPolicy",
    "AllocationUpdate",
    "CoordinationStats",
    "CorrelationDetector",
    "CorrelationEvidence",
    "CorrelationPlanner",
    "DistributedTaskSpec",
    "EntropyEstimator",
    "EvenAllocation",
    "OnlineStatistics",
    "QuantileEstimator",
    "TASK_PARAMS",
    "TASK_TYPES",
    "RunAccuracy",
    "SamplingDecision",
    "SamplingScheme",
    "ColumnBatchResult",
    "SoaSamplerEngine",
    "TaskProfile",
    "TaskSpec",
    "TriggerRule",
    "ViolationLikelihoodSampler",
    "WindowedStatistics",
    "WindowedTaskSpec",
    "aggregate_trace",
    "alert_episodes",
    "cantelli_upper_bound",
    "evaluate_sampling",
    "gaussian_misdetection_estimate",
    "gaussian_step_violation_estimate",
    "max_admissible_interval",
    "misdetection_bound",
    "misdetection_bound_fused",
    "run_windowed_adaptive",
    "step_violation_bound",
    "truth_alert_indices",
]
