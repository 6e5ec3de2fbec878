"""Aggregation-time-window tasks (paper SVII, listed as ongoing work).

The paper's conclusion names "advanced state monitoring forms (e.g. tasks
with aggregation time window)" as the next step: instead of alerting on an
instantaneous value, the task alerts when an *aggregate over the last w
default intervals* (mean, sum, max, min) crosses the threshold — e.g.
"average CPU over the last minute above 80%".

Sampling semantics: a sampling operation at grid step ``t`` collects the
raw data covering the window ``(t-w, t]`` (reading the access log since a
minute ago, replaying the captured packets of the window), so it observes
the *exact* aggregate: a MEAN or SUM adds the window's values one after
another from the oldest, the order the live service adds them in
(DESIGN.md S17), and a MAX or MIN zero is ``+0.0``. The
violation-likelihood machinery then applies
unchanged to the aggregated stream — whose per-step change ``delta`` is
smoother than the raw stream's, which is exactly why windowed tasks adapt
*better* (quantified by ``benchmarks/test_windowed.py``).
"""

from __future__ import annotations

import enum
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


def aggregate_trace(values: np.ndarray, window: int,
                    kind: AggregateKind = AggregateKind.MEAN) -> np.ndarray:
    """Aggregate a raw stream over a trailing window, per grid point.

    Index ``t`` aggregates ``values[max(0, t-window+1) : t+1]`` — the
    leading edge uses the partial window so the output aligns with the
    input (the first samples of a real task also only see partial
    history). A MEAN or SUM adds them one after another from the oldest,
    bit for bit the live service's sum of the same window.

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
    # A window longer than the stream reads what a window of its length
    # reads: the whole prefix at every point.
    window = min(window, arr.size)

    # Ahead of the stream, what leaves the reduction as it is.
    fill, step = {AggregateKind.MAX: (-np.inf, np.maximum),
                  AggregateKind.MIN: (np.inf, np.minimum)}.get(
        kind, (-0.0, np.add))
    padded = np.concatenate([np.full(window - 1, fill), arr])
    if step is not np.add:
        # Doubling: after the loop, index j reduces the ``span`` values
        # ending at j, the largest power of two not past the window; two
        # such spans overlapping cover the window.
        span = 1
        while 2 * span <= window:
            padded[span:] = step(padded[span:], padded[:-span])
            span *= 2
        return step(padded[window - 1:],
                    padded[span - 1:span - 1 + arr.size]) + 0.0
    # A sum adds the window's values one after another from the oldest.
    out = padded[:arr.size].copy()
    for lag in range(1, window):
        np.add(out, padded[lag:lag + arr.size], out=out)
    if kind is AggregateKind.MEAN:
        return out / np.minimum(np.arange(1, arr.size + 1), window)
    return out


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
