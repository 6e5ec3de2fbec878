"""Single-monitor experiment runner.

Drives any :class:`~repro.core.sampler.SamplingScheme` over a
full-resolution metric trace on the default-interval grid and scores the
resulting schedule against periodic ground truth. Volley's own sampler
runs as engine rows: :func:`run_lockstep` steps many independent
(trace, task) runs on one grid — a whole Fig. 5 / Fig. 7 panel in one
call — and :func:`run_adaptive` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.accuracy import RunAccuracy, evaluate_sampling
from repro.core.adaptation import AdaptationConfig
from repro.core.sampler import SamplingScheme
from repro.core.soa import _NARROW_TICK_ROWS, SoaSamplerEngine
from repro.core.task import TaskSpec
from repro.baselines.periodic import PeriodicSampler
from repro.exceptions import TraceError
from repro.service import MonitoringService
from repro.types import ThresholdDirection

__all__ = ["RunResult", "run_sampler_on_trace", "run_adaptive",
           "run_lockstep", "run_periodic", "run_triggered"]


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
    if not np.isfinite(arr).all():
        raise TraceError("traces must be finite")
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
    """Run Volley's violation-likelihood sampler over a trace: the
    one-row :func:`run_lockstep`.

    Raises:
        TraceError: the trace is empty, not 1-d or holds a non-finite
            value.
    """
    return run_lockstep([values], [task], config, record_intervals)[0]


def run_lockstep(traces: Sequence[np.ndarray], tasks: Sequence[TaskSpec],
                 config: AdaptationConfig | None = None,
                 record_intervals: bool = True) -> list[RunResult]:
    """Run Volley over many (trace, task) pairs at once, one engine row
    each, stepping in lockstep on the default-interval grid.

    Each row samples grid index 0 and then every step its interval
    decides, until its own trace ends (traces may differ in length).
    Every row's schedule, intervals and accuracy are those of driving
    :meth:`~repro.core.adaptation.ViolationLikelihoodSampler.observe`
    alone over its trace through :func:`run_sampler_on_trace`, the
    reference the equivalence suite holds this driver to.

    Args:
        traces: one trace per run; passing one array object for several
            runs stores it once.
        tasks: the run's task, aligned with ``traces``.
        config: adaptation tunables shared by every run.
        record_intervals: also record each run's interval trajectory.

    Raises:
        TraceError: the two lists differ in length, or a trace is empty,
            not 1-d or holds a non-finite value.
    """
    if len(traces) != len(tasks):
        raise TraceError(f"{len(traces)} traces for {len(tasks)} tasks")
    arrays = [_as_trace(values) for values in traces]
    if not arrays:
        return []
    _, sampled, intervals = _lockstep(arrays, tasks, config,
                                      record_intervals)
    results = []
    for row, (arr, task) in enumerate(zip(arrays, tasks)):
        steps = np.flatnonzero(sampled[:arr.size, row])
        results.append(_scored(
            arr, steps, [] if intervals is None else intervals[steps, row],
            task.threshold, task.direction))
    return results


def _lockstep(arrays: list[np.ndarray], tasks: Sequence[TaskSpec],
              config: AdaptationConfig | None, record_intervals: bool,
              ) -> tuple[SoaSamplerEngine, np.ndarray, np.ndarray | None]:
    """Step one engine row per trace; returns the engine, the
    ``(steps, rows)`` mask of samples taken and, when recording, the
    ``(steps, rows)`` interval each sample left its row at.

    Rows never read each other. Fewer rows than the engine's narrow-tick
    width would never fill a vector tick, so each runs its whole trace
    alone through ``observe_one``; wider sets step in lockstep, each pass
    jumping to the earliest step some row is due at inside its trace and
    offering exactly those rows as one tick.
    """
    engine = SoaSamplerEngine(len(tasks))
    engine.add_tasks(tasks, [config or AdaptationConfig()] * len(tasks))
    lengths = np.asarray([arr.size for arr in arrays])
    horizon = int(lengths.max())
    sampled = np.zeros((horizon, len(arrays)), dtype=bool)
    intervals = (np.zeros((horizon, len(arrays)), dtype=np.int64)
                 if record_intervals else None)
    if len(arrays) < _NARROW_TICK_ROWS:
        for row, arr in enumerate(arrays):
            trace = arr.tolist()
            step = 0
            while step < len(trace):
                interval = engine.observe_one(row, trace[step], step)
                sampled[step, row] = True
                if intervals is not None:
                    intervals[step, row] = interval
                step += interval
        return engine, sampled, intervals

    # Step-major values, each distinct trace object once (a panel shares
    # a handful of traces across all its runs).
    slots: dict[int, int] = {}
    for arr in arrays:
        slots.setdefault(id(arr), len(slots))
    columns = np.zeros((horizon, len(slots)))
    for arr in arrays:
        columns[:arr.size, slots[id(arr)]] = arr
    source = np.asarray([slots[id(arr)] for arr in arrays])
    next_due = engine.next_due[:len(arrays)]  # a view the ticks write
    while True:
        waiting = np.where(next_due < lengths, next_due, horizon)
        step = int(waiting.min())
        if step == horizon:
            return engine, sampled, intervals
        rows = np.flatnonzero(waiting == step)
        engine.run_columns(rows, np.full(len(rows), step),
                           columns[step, source[rows]])
        sampled[step, rows] = True
        if intervals is not None:
            intervals[step, rows] = engine.interval[rows]


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
