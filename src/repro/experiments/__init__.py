"""Experiment harness: runners, figure drivers and text reporting.

* :mod:`repro.experiments.runner` — single-monitor runs (Figs. 5, 7).
* :mod:`repro.experiments.distributed` — distributed-task runs (Fig. 8).
* :mod:`repro.experiments.figures` — one driver per evaluation figure,
  each a pure function of its arguments and seed, run in the caller's
  process.
* :mod:`repro.experiments.reporting` — paper-style text tables.
"""

from repro.experiments.distributed import (DistributedRunResult,
                                           run_distributed_task)
from repro.experiments.delay import DelayResult, detection_delay_experiment
from repro.experiments.monetary import MonetaryReport, monetary_analysis
from repro.experiments.multitask import MultiTaskResult, multitask_experiment
from repro.experiments.reliability import (ReliabilityResult,
                                           reliability_experiment)
from repro.experiments.runner import (RunResult, run_adaptive, run_lockstep,
                                      run_periodic, run_sampler_on_trace,
                                      run_triggered)

__all__ = [
    "DelayResult",
    "DistributedRunResult",
    "MultiTaskResult",
    "MonetaryReport",
    "ReliabilityResult",
    "detection_delay_experiment",
    "monetary_analysis",
    "multitask_experiment",
    "reliability_experiment",
    "RunResult",
    "run_adaptive",
    "run_distributed_task",
    "run_lockstep",
    "run_periodic",
    "run_sampler_on_trace",
    "run_triggered",
]
