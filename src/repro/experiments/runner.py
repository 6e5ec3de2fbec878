"""Single-monitor experiment runner.

Drives any :class:`~repro.core.sampler.SamplingScheme` over a
full-resolution metric trace on the default-interval grid and scores the
resulting schedule against periodic ground truth. This is the workhorse
behind Figures 5 and 7: one call per (trace, task, scheme) combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.accuracy import RunAccuracy, evaluate_sampling
from repro.core.adaptation import (AdaptationConfig,
                                   ViolationLikelihoodSampler)
from repro.core.sampler import SamplingScheme
from repro.core.task import TaskSpec
from repro.baselines.periodic import PeriodicSampler
from repro.exceptions import TraceError
from repro.service import MonitoringService
from repro.types import ThresholdDirection

__all__ = ["RunResult", "run_sampler_on_trace", "run_adaptive",
           "run_periodic", "run_triggered"]


@dataclass(frozen=True, slots=True)
class RunResult:
    """Outcome of driving one sampling scheme over one trace.

    Attributes:
        sampled_indices: grid points at which a sample was taken.
        accuracy: cost/accuracy summary vs. periodic ground truth.
        intervals: interval in force after each sample (same length as
            ``sampled_indices``); empty when recording was disabled.
    """

    sampled_indices: np.ndarray
    accuracy: RunAccuracy
    intervals: np.ndarray

    @property
    def sampling_ratio(self) -> float:
        """Convenience proxy for ``accuracy.sampling_ratio``."""
        return self.accuracy.sampling_ratio

    @property
    def misdetection_rate(self) -> float:
        """Convenience proxy for ``accuracy.misdetection_rate``."""
        return self.accuracy.misdetection_rate


def _as_trace(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise TraceError(f"expected a non-empty 1-d trace, got {arr.shape}")
    return arr


def _scored(arr: np.ndarray, sampled: list[int], intervals: list[int],
            threshold: float, direction: ThresholdDirection) -> RunResult:
    return RunResult(
        sampled_indices=np.asarray(sampled, dtype=int),
        accuracy=evaluate_sampling(arr, threshold, sampled, direction),
        intervals=np.asarray(intervals, dtype=int),
    )


def run_sampler_on_trace(values: np.ndarray, scheme: SamplingScheme,
                         threshold: float,
                         direction: ThresholdDirection = ThresholdDirection.UPPER,
                         record_intervals: bool = True) -> RunResult:
    """Run ``scheme`` over ``values`` on the default-interval grid.

    The scheme is asked for its next interval after every sample; sampling
    starts at grid index 0, advances by the decided interval (floored at
    1), and stops past the end of the trace.

    Args:
        values: one value per default-interval grid point.
        scheme: any sampling scheme (adaptive, periodic, oracle, ...).
        threshold: threshold used for accuracy scoring.
        direction: violation side for accuracy scoring.
        record_intervals: also record the interval trajectory.
    """
    arr = _as_trace(values)
    sampled: list[int] = []
    intervals: list[int] = []
    t = 0
    while t < arr.size:
        sampled.append(t)
        step = max(1, int(scheme.observe(float(arr[t]), t).next_interval))
        if record_intervals:
            intervals.append(step)
        t += step
    return _scored(arr, sampled, intervals, threshold, direction)


def run_adaptive(values: np.ndarray, task: TaskSpec,
                 config: AdaptationConfig | None = None,
                 record_intervals: bool = True) -> RunResult:
    """Run Volley's violation-likelihood sampler over a trace.

    Drives the sampler through its fused whole-trace fast path
    (:meth:`~repro.core.adaptation.ViolationLikelihoodSampler.run_trace`);
    the schedule, intervals and accuracy are identical to driving
    :meth:`observe` through :func:`run_sampler_on_trace` — the latter is
    the reference the equivalence suite checks this path against.
    """
    arr = _as_trace(values)
    sampler = ViolationLikelihoodSampler(task, config)
    sampled, intervals = sampler.run_trace(
        arr.tolist(), record_intervals=record_intervals)
    return _scored(arr, sampled, intervals, task.threshold, task.direction)


def run_periodic(values: np.ndarray, threshold: float, interval: int = 1,
                 direction: ThresholdDirection = ThresholdDirection.UPPER,
                 ) -> RunResult:
    """Run fixed-interval sampling over a trace."""
    return run_sampler_on_trace(values, PeriodicSampler(interval), threshold,
                                direction)


def run_triggered(values: np.ndarray, trigger_values: np.ndarray,
                  task: TaskSpec, elevation_level: float,
                  suspend_interval: int = 10,
                  config: AdaptationConfig | None = None) -> RunResult:
    """Run a correlation-guarded adaptive sampler over a trace.

    The gate is the live one: a scalar
    :class:`~repro.service.MonitoringService` carries the pair through
    :meth:`~repro.service.MonitoringService.add_trigger` (the plan at
    hysteresis 0 / hold 0). The trigger is a plain task at a threshold its
    trace never exceeds; at each grid step it is offered first, then the
    target, and every offer the target consumes is a sample whose interval
    is the advance to its next due step.

    Args:
        values: the guarded task's metric trace.
        trigger_values: the trigger metric, aligned with ``values``.
        task: the guarded task's spec.
        elevation_level: trigger level at which full sampling resumes.
        suspend_interval: idle interval while the trigger is cold.
        config: adaptation tunables for the guarded task.

    Raises:
        TraceError: the traces are empty, misaligned or hold a non-finite
            value.
    """
    arr = _as_trace(values)
    trig = _as_trace(trigger_values)
    if trig.shape != arr.shape:
        raise TraceError(
            f"trigger trace misaligned: {trig.shape} vs {arr.shape}")
    if not (np.isfinite(arr).all() and np.isfinite(trig).all()):
        raise TraceError("traces must be finite")
    service = MonitoringService(config)
    service.add_task("trigger", TaskSpec(threshold=float(trig.max()),
                                         error_allowance=1.0))
    service.add_task("target", task)
    service.add_trigger("target", "trigger", elevation_level,
                        suspend_interval)
    sampled: list[int] = []
    intervals: list[int] = []
    for t, (value, trig_value) in enumerate(zip(arr.tolist(),
                                                trig.tolist())):
        service.offer("trigger", trig_value, t)
        if service.offer("target", value, t) is not None:
            sampled.append(t)
            intervals.append(service.next_due("target") - t)
    return _scored(arr, sampled, intervals, task.threshold, task.direction)
