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
from repro.core.correlation import TriggeredSampler
from repro.core.sampler import SamplingScheme
from repro.core.task import TaskSpec
from repro.baselines.periodic import PeriodicSampler
from repro.exceptions import TraceError
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


def _drive_and_score(arr: np.ndarray, observe, threshold: float,
                     direction: ThresholdDirection,
                     record_intervals: bool = True) -> RunResult:
    """The reference sample loop (one decision object per step).

    ``observe(value, t)`` must return the scheme's
    :class:`~repro.core.adaptation.SamplingDecision`; sampling starts at
    grid index 0, advances by the decided interval (floored at 1), and
    stops past the end of the trace. This is the driver every *generic*
    scheme goes through (:func:`run_sampler_on_trace`), and the oracle the
    fused driver below is equivalence-tested against.
    """
    n = arr.size
    sampled: list[int] = []
    intervals: list[int] = []
    t = 0
    while t < n:
        sampled.append(t)
        decision = observe(float(arr[t]), t)
        step = max(1, int(decision.next_interval))
        if record_intervals:
            intervals.append(step)
        t += step
    accuracy = evaluate_sampling(arr, threshold, sampled, direction)
    return RunResult(
        sampled_indices=np.asarray(sampled, dtype=int),
        accuracy=accuracy,
        intervals=np.asarray(intervals, dtype=int),
    )


def _drive_fast(arr: np.ndarray, observe_fast, threshold: float,
                direction: ThresholdDirection, trigger: np.ndarray,
                record_intervals: bool = True) -> RunResult:
    """The fused sample loop of a triggered sampler (DESIGN.md S27).

    ``observe_fast(value, t, trig)`` returns the next interval as a plain
    int, so driving a whole trace allocates no per-step decision objects.
    The trace and the ``trigger`` trace are converted to Python floats
    once up front with ``tolist()`` instead of a ``float(arr[t])``
    coercion per visited grid point. Produces schedules identical to
    :func:`_drive_and_score` over an equivalent ``observe`` (enforced by
    the equivalence suite).
    """
    n = arr.size
    values = arr.tolist()
    trig_values = trigger.tolist()
    sampled: list[int] = []
    intervals: list[int] = []
    sampled_append = sampled.append
    intervals_append = intervals.append
    t = 0
    while t < n:
        sampled_append(t)
        step = observe_fast(values[t], t, trig_values[t])
        if step < 1:
            step = 1
        if record_intervals:
            intervals_append(step)
        t += step
    accuracy = evaluate_sampling(arr, threshold, sampled, direction)
    return RunResult(
        sampled_indices=np.asarray(sampled, dtype=int),
        accuracy=accuracy,
        intervals=np.asarray(intervals, dtype=int),
    )


def run_sampler_on_trace(values: np.ndarray, scheme: SamplingScheme,
                         threshold: float,
                         direction: ThresholdDirection = ThresholdDirection.UPPER,
                         record_intervals: bool = True) -> RunResult:
    """Run ``scheme`` over ``values`` on the default-interval grid.

    The scheme is asked for its next interval after every sample; sampling
    starts at grid index 0 and stops past the end of the trace.

    Args:
        values: one value per default-interval grid point.
        scheme: any sampling scheme (adaptive, periodic, oracle, ...).
        threshold: threshold used for accuracy scoring.
        direction: violation side for accuracy scoring.
        record_intervals: also record the interval trajectory.
    """
    arr = _as_trace(values)
    return _drive_and_score(arr, scheme.observe, threshold, direction,
                            record_intervals)


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
    accuracy = evaluate_sampling(arr, task.threshold, sampled,
                                 task.direction)
    return RunResult(
        sampled_indices=np.asarray(sampled, dtype=int),
        accuracy=accuracy,
        intervals=np.asarray(intervals, dtype=int),
    )


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

    Args:
        values: the guarded task's metric trace.
        trigger_values: the trigger metric, aligned with ``values``.
        task: the guarded task's spec.
        elevation_level: trigger level above which full sampling resumes.
        suspend_interval: idle interval while the trigger is cold.
        config: adaptation tunables for the inner sampler.
    """
    arr = _as_trace(values)
    trig = _as_trace(trigger_values)
    if trig.shape != arr.shape:
        raise TraceError(
            f"trigger trace misaligned: {trig.shape} vs {arr.shape}")
    inner = ViolationLikelihoodSampler(task, config)
    sampler = TriggeredSampler(inner, elevation_level, suspend_interval)
    # Fused path: the trigger trace is converted to floats once inside the
    # driver (no per-step float(trig[t]) coercion or closure dispatch).
    return _drive_fast(arr, sampler.observe_fast, task.threshold,
                       task.direction, trigger=trig)
