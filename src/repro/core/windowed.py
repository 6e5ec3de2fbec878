"""Aggregation-time-window tasks (paper SVII, listed as ongoing work).

The paper's conclusion names "advanced state monitoring forms (e.g. tasks
with aggregation time window)" as the next step: instead of alerting on an
instantaneous value, the task alerts when an *aggregate over the last w
default intervals* (mean, sum, max, min) crosses the threshold — e.g.
"average CPU over the last minute above 80%".

Sampling semantics: a sampling operation at grid step ``t`` collects the
raw data covering the window ``(t-w, t]`` (reading the access log since a
minute ago, replaying the captured packets of the window), so it observes
the *exact* aggregate. The violation-likelihood machinery then applies
unchanged to the aggregated stream — whose per-step change ``delta`` is
smoother than the raw stream's, which is exactly why windowed tasks adapt
*better* (quantified by ``benchmarks/test_windowed.py``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.accuracy import RunAccuracy
from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError, TraceError

__all__ = ["AggregateKind", "aggregate_trace", "WindowedTaskSpec",
           "run_windowed_adaptive"]


class AggregateKind(enum.Enum):
    """Aggregation applied over the task's time window."""

    MEAN = "mean"
    SUM = "sum"
    MAX = "max"
    MIN = "min"


def _sliding_extremum(values: np.ndarray, window: int,
                      take_max: bool) -> np.ndarray:
    """O(n) sliding max/min via a monotonic deque."""
    out = np.empty(values.size)
    dq: deque[int] = deque()
    for i in range(values.size):
        lo = i - window + 1
        while dq and dq[0] < lo:
            dq.popleft()
        while dq and ((values[dq[-1]] <= values[i]) if take_max
                      else (values[dq[-1]] >= values[i])):
            dq.pop()
        dq.append(i)
        out[i] = values[dq[0]]
    return out


def aggregate_trace(values: np.ndarray, window: int,
                    kind: AggregateKind = AggregateKind.MEAN) -> np.ndarray:
    """Aggregate a raw stream over a trailing window, per grid point.

    Index ``t`` aggregates ``values[max(0, t-window+1) : t+1]`` — the
    leading edge uses the partial window so the output aligns with the
    input (the first samples of a real task also only see partial
    history).

    Args:
        values: raw full-resolution stream.
        window: window length in default intervals (>= 1).
        kind: aggregation function.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise TraceError(f"expected a non-empty 1-d trace, got {arr.shape}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if window == 1:
        return arr.copy()

    if kind in (AggregateKind.MEAN, AggregateKind.SUM):
        csum = np.concatenate([[0.0], np.cumsum(arr)])
        starts = np.maximum(np.arange(arr.size) - window + 1, 0)
        sums = csum[np.arange(1, arr.size + 1)] - csum[starts]
        if kind is AggregateKind.SUM:
            return sums
        lengths = np.arange(1, arr.size + 1) - starts
        return sums / lengths
    if kind is AggregateKind.MAX:
        return _sliding_extremum(arr, window, take_max=True)
    return _sliding_extremum(arr, window, take_max=False)


@dataclass(frozen=True, slots=True)
class WindowedTaskSpec:
    """A monitoring task over a windowed aggregate.

    Attributes:
        task: the threshold task applied to the *aggregated* stream.
        window: aggregation window in default intervals.
        kind: aggregation function.
    """

    task: TaskSpec
    window: int
    kind: AggregateKind = AggregateKind.MEAN

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}")


@dataclass(frozen=True, slots=True)
class WindowedRunResult:
    """Outcome of a windowed-task run.

    Attributes:
        sampled_indices: grid steps at which sampling operations ran.
        accuracy: scored against the *aggregated* ground truth.
        aggregated: the aggregated stream the task monitored.
    """

    sampled_indices: np.ndarray
    accuracy: RunAccuracy
    aggregated: np.ndarray

    @property
    def sampling_ratio(self) -> float:
        """Cost relative to periodic default sampling."""
        return self.accuracy.sampling_ratio

    @property
    def misdetection_rate(self) -> float:
        """Fraction of windowed alerts missed."""
        return self.accuracy.misdetection_rate


def run_windowed_adaptive(values: np.ndarray, spec: WindowedTaskSpec,
                          config: AdaptationConfig | None = None,
                          ) -> WindowedRunResult:
    """Run violation-likelihood sampling on a windowed-aggregate task.

    Each sampling operation at step ``t`` observes the exact aggregate of
    the trailing window ending at ``t`` (the operation collects the
    window's raw data), so the run is
    :func:`~repro.experiments.runner.run_adaptive` over the aggregated
    stream, which comes back with the result.

    Args:
        values: the raw full-resolution stream.
        spec: windowed task (threshold task + window + aggregation kind).
        config: adaptation tunables.
    """
    # Imported here: the runner's engine rows sit above this module.
    from repro.experiments.runner import run_adaptive

    aggregated = aggregate_trace(values, spec.window, spec.kind)
    run = run_adaptive(aggregated, spec.task, config,
                       record_intervals=False)
    return WindowedRunResult(sampled_indices=run.sampled_indices,
                             accuracy=run.accuracy, aggregated=aggregated)
