"""Monitor-level violation-likelihood based sampling adaptation (paper SIII-B).

After every sampling operation the monitor:

1. updates the online statistics of the per-default-interval change
   ``delta`` using ``delta_hat = (v(t) - v(t - I)) / I``;
2. computes the mis-detection upper bound ``beta(I)`` for the current
   interval ``I`` (:func:`repro.core.likelihood.misdetection_bound`);
3. adapts the interval with an AIMD-like rule:

   * if ``beta(I) > err`` — switch back to the default interval
     immediately (multiplicative decrease), guarding against abrupt
     changes of the ``delta`` distribution;
   * if ``beta(I) <= (1 - gamma) * err`` for ``p`` consecutive samples —
     grow the interval by one default interval (additive increase), never
     exceeding ``Im``. The slack ratio ``gamma`` avoids growing when the
     bound sits exactly at the allowance.

The paper reports ``gamma = 0.2`` and ``p = 20`` as good practice; both are
defaults of :class:`AdaptationConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.likelihood import (gaussian_misdetection_estimate,
                                   misdetection_bound)
from repro.core.online_stats import OnlineStatistics
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError

_MIN_ERROR_NEEDED = 1e-12
"""Clamp for the geometric accumulation of e_i (beta can be exactly 0)."""


class _SamplerMetrics:
    """Process-wide engine-row counters (held by ``_SAMPLER_METRICS``).

    The live instance is installed by
    :func:`repro.telemetry.registry.instrument_samplers`; the module
    default is the null twin below, so un-instrumented runs pay one
    attribute check per :meth:`~repro.core.soa.SoaSamplerEngine.observe_one`
    call or vector tick (mirroring the chaos harness' ``NOOP_HOOK``
    contract).

    The fields are plain ints incremented in place — the registry reads
    them through snapshot-time callbacks, so the hot path never pays for
    instrument-object method dispatch.
    """

    enabled = True
    __slots__ = ("observations", "grow_events", "reset_events",
                 "violations")

    def __init__(self) -> None:
        self.observations = 0
        self.grow_events = 0
        self.reset_events = 0
        self.violations = 0


class _NullSamplerMetrics:
    """Disabled twin: the ``enabled`` check is the entire cost."""

    enabled = False
    __slots__ = ()


_NULL_SAMPLER_METRICS = _NullSamplerMetrics()

_SAMPLER_METRICS: "_SamplerMetrics | _NullSamplerMetrics" = \
    _NULL_SAMPLER_METRICS
"""Swapped by ``repro.telemetry.registry.instrument_samplers``."""

__all__ = [
    "AdaptationConfig",
    "SamplingDecision",
    "CoordinationStats",
    "ViolationLikelihoodSampler",
]


@dataclass(frozen=True, slots=True)
class AdaptationConfig:
    """Tunables of the monitor-level adaptation algorithm.

    Attributes:
        slack_ratio: ``gamma`` — fraction of the error allowance kept as
            safety slack before growing the interval.
        patience: ``p`` — number of consecutive under-slack observations
            required before growing the interval.
        stats_restart: restart the delta statistics after this many
            updates (paper: 1000); ``None`` disables restarts.
        min_samples: observations of ``delta`` required before the bound is
            trusted; until then the sampler stays at the default interval.
        estimator: ``"chebyshev"`` (the paper's distribution-free bound)
            or ``"gaussian"`` (exact normal tail — tighter, but only an
            estimate; provided for the estimator ablation).
    """

    slack_ratio: float = 0.2
    patience: int = 20
    stats_restart: int | None = 1000
    min_samples: int = 10
    estimator: str = "chebyshev"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slack_ratio < 1.0:
            raise ConfigurationError(
                f"slack_ratio must be in [0, 1), got {self.slack_ratio}")
        if self.patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {self.patience}")
        if self.min_samples < 2:
            raise ConfigurationError(
                f"min_samples must be >= 2, got {self.min_samples}")
        if self.estimator not in ("chebyshev", "gaussian"):
            raise ConfigurationError(
                "estimator must be 'chebyshev' or 'gaussian', got "
                f"{self.estimator!r}")


@dataclass(frozen=True, slots=True)
class SamplingDecision:
    """Outcome of one adaptation step.

    Attributes:
        next_interval: interval (in ``Id`` units) until the next sample.
        misdetection_bound: the ``beta(I)`` upper bound computed for the
            interval that was in force when the value arrived.
        grew: the interval was increased by this step.
        reset: the interval was reset to the default by this step.
        violation: the observed value itself violates the threshold.
    """

    next_interval: int
    misdetection_bound: float
    grew: bool = False
    reset: bool = False
    violation: bool = False


@dataclass(frozen=True, slots=True)
class CoordinationStats:
    """Updating-period averages a monitor reports to its coordinator.

    Attributes:
        avg_cost_reduction: average of ``r_i = 1/I_i - 1/(I_i + 1)`` — the
            marginal cost reduction available from growing the interval by
            one (zero while the monitor sits at the maximum interval).
        avg_error_needed: geometric mean of ``e_i = beta(I_i)/(1 - gamma)``
            — the typical error allowance that would let the monitor grow.
            Geometric, because instantaneous bounds span many orders of
            magnitude and an arithmetic mean is dominated by the rare
            near-1 spikes (DESIGN.md S4).
        observations: number of samples aggregated into the averages.
    """

    avg_cost_reduction: float
    avg_error_needed: float
    observations: int

    @property
    def yield_per_error(self) -> float:
        """Cost-reduction yield ``y_i = r_i / e_i`` (paper SIV-B).

        A degenerate ``e_i`` of zero means the monitor can grow essentially
        for free; returns infinity in that case.
        """
        if self.avg_error_needed <= 0.0:
            return float("inf")
        return self.avg_cost_reduction / self.avg_error_needed


class ViolationLikelihoodSampler:
    """Stateful per-monitor adaptive sampler.

    Drive it by calling :meth:`observe` with every sampled value (in grid
    units of the default interval); the returned decision carries the next
    sampling interval. The sampler starts at the default interval and is
    deliberately conservative: until ``min_samples`` observations of
    ``delta`` have been absorbed it reports ``beta = 1`` and stays at the
    default interval.

    The coordinator may change :attr:`error_allowance` at any time
    (distributed coordination reallocates allowance between monitors).

    :meth:`observe` is the one scalar statement of the algorithm (DESIGN.md
    S27): the reference every engine row
    (:class:`~repro.core.soa.SoaSamplerEngine`, which steps hosted shards
    and the offline sweeps alike) is held bit-equal to, and what a scalar
    :class:`~repro.service.MonitoringService` steps. :meth:`observe_fast`
    and :meth:`run_trace` are thin wrappers over it that only ``bench/``
    still calls.
    """

    __slots__ = ("_task", "_config", "_sign", "_threshold",
                 "_error_allowance", "_stats", "_estimate",
                 "_interval", "_streak", "_last_value", "_last_time",
                 "_observations", "_grow_events", "_reset_events",
                 "_coord_sum_r", "_coord_sum_log_e", "_coord_n")

    def __init__(self, task: TaskSpec,
                 config: AdaptationConfig | None = None,
                 stats: OnlineStatistics | None = None):
        self._task = task
        self._config = config or AdaptationConfig()
        self._sign, self._threshold = task.oriented()
        self._error_allowance = task.error_allowance
        self._stats = stats if stats is not None else OnlineStatistics(
            restart_after=self._config.stats_restart,
            min_fresh=self._config.min_samples,
        )
        self._estimate = (misdetection_bound
                          if self._config.estimator == "chebyshev"
                          else gaussian_misdetection_estimate)
        self._interval = 1
        self._streak = 0
        self._last_value: float | None = None
        self._last_time: int | None = None
        # Counters for analysis and coordination reporting.
        self._observations = 0
        self._grow_events = 0
        self._reset_events = 0
        self._coord_sum_r = 0.0
        self._coord_sum_log_e = 0.0
        self._coord_n = 0

    @property
    def task(self) -> TaskSpec:
        """The task specification this sampler enforces."""
        return self._task

    @property
    def config(self) -> AdaptationConfig:
        """The adaptation tunables in force."""
        return self._config

    @property
    def interval(self) -> int:
        """Current sampling interval in units of the default interval."""
        return self._interval

    @property
    def stats(self) -> OnlineStatistics:
        """The online statistics of ``delta`` (read-only use intended)."""
        return self._stats

    @property
    def error_allowance(self) -> float:
        """Local error allowance currently enforced."""
        return self._error_allowance

    @error_allowance.setter
    def error_allowance(self, err: float) -> None:
        if not 0.0 <= err <= 1.0:
            raise ConfigurationError(
                f"error allowance must be in [0, 1], got {err}")
        self._error_allowance = err

    @property
    def observations(self) -> int:
        """Total samples observed."""
        return self._observations

    @property
    def grow_events(self) -> int:
        """Number of interval increases performed."""
        return self._grow_events

    @property
    def reset_events(self) -> int:
        """Number of resets to the default interval performed."""
        return self._reset_events

    def resume_full_rate(self) -> None:
        """Drop back to the default interval without a new observation.

        The trigger channel calls this on a disarm->arm edge: a guard
        that slept at its suspend interval must resume probing at the
        full default rate, not at whatever interval the healthy stream
        had earned before the guard engaged — the arm edge itself is
        evidence the pre-suspension statistics are stale. Adaptation
        counters are untouched; this is an external scheduling decision,
        not an adaptation event, mirrored by the engine row's
        :meth:`~repro.core.soa.SoaSamplerEngine.resume_full_rate`.
        """
        self._interval = 1
        self._streak = 0

    def observe(self, value: float, time_index: int) -> SamplingDecision:
        """Absorb a sampled value and return the adaptation decision.

        Args:
            value: the monitored state value just sampled.
            time_index: grid position of the sample in units of the default
                interval; must be strictly increasing across calls.

        Returns:
            The :class:`SamplingDecision` whose ``next_interval`` tells the
            caller when to sample next.

        Raises:
            ValueError: if ``time_index`` does not advance.
        """
        v = self._sign * value
        violation = v > self._threshold

        if self._last_time is not None:
            steps = time_index - self._last_time
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {time_index} after "
                    f"{self._last_time}")
            # delta_hat = (v(t) - v(t - I)) / I  (paper SIII-B)
            self._stats.update((v - self._last_value) / steps)
        # Counted only once validated: a rejected offer leaves no trace.
        self._observations += 1
        self._last_value = v
        self._last_time = time_index

        cfg = self._config
        err = self._error_allowance
        if self._stats.effective_count >= cfg.min_samples:
            beta = self._estimate(v, self._threshold, self._stats.mean,
                                  self._stats.std, self._interval)
        else:
            beta = 1.0

        grew = False
        reset = False
        if err <= 0.0:
            # A zero allowance degenerates to periodic default sampling.
            if self._interval != 1:
                self._interval = 1
                reset = True
            self._streak = 0
        elif beta > err:
            reset = self._interval != 1
            self._interval = 1
            self._streak = 0
            if reset:
                self._reset_events += 1
        elif beta <= (1.0 - cfg.slack_ratio) * err:
            self._streak += 1
            if self._streak >= cfg.patience:
                self._streak = 0
                if self._interval < self._task.max_interval:
                    self._interval += 1
                    grew = True
                    self._grow_events += 1
        else:
            self._streak = 0

        # Coordination statistics: updating-period averages of r_i and e_i.
        # r_i is the cost reduction available from growing the interval by
        # one (1/I - 1/(I+1), the marginal saving in samples per step);
        # a monitor already at the maximum interval cannot convert more
        # allowance into cost reduction, so its potential r_i is zero.
        # e_i = beta(I)/(1-gamma) is the allowance that would let it grow
        # (from the adaptation rule's growth condition); it is averaged
        # geometrically because instantaneous bounds span many orders of
        # magnitude and the *typical* requirement is what allowance buys.
        interval = self._interval
        if interval < self._task.max_interval:
            self._coord_sum_r += 1.0 / interval - 1.0 / (interval + 1.0)
        self._coord_sum_log_e += math.log(
            max(beta / (1.0 - cfg.slack_ratio), _MIN_ERROR_NEEDED))
        self._coord_n += 1

        return SamplingDecision(next_interval=self._interval,
                                misdetection_bound=beta,
                                grew=grew, reset=reset, violation=violation)

    def observe_fast(self, value: float, time_index: int) -> int:
        """:meth:`observe`, returning only the next interval.

        A wrapper kept for ``bench/``'s ``adaptation.observe_fast_ns``
        loop; it goes when the benchmark retires that metric (ROADMAP.md
        item 11). Offline runs step engine rows
        (:func:`~repro.experiments.runner.run_lockstep`).
        """
        return self.observe(value, time_index).next_interval

    def run_trace(self, values: list[float],
                  ) -> tuple[list[int], list[int]]:
        """Drive :meth:`observe` over ``values`` from grid index 0;
        returns ``(sampled_indices, intervals)``. A wrapper kept for
        ``bench/``'s ``adaptation.run_trace_ns_per_step`` loop, going with
        it as :meth:`observe_fast` does."""
        sampled: list[int] = []
        intervals: list[int] = []
        step = 0
        while step < len(values):
            sampled.append(step)
            intervals.append(self.observe(values[step], step).next_interval)
            step += intervals[-1]
        return sampled, intervals

    def state_dict(self) -> dict[str, object]:
        """Return the sampler's mutable state as a JSON-able dict.

        Together with the (immutable) :class:`~repro.core.task.TaskSpec` and
        :class:`AdaptationConfig` this is everything needed to resume the
        sampler exactly where it stopped: a restored sampler produces the
        same decision stream as one that was never interrupted. Used by the
        live-ingestion runtime's checkpoint/restore (``repro.runtime``).
        """
        return {
            "interval": self._interval,
            "streak": self._streak,
            "last_value": self._last_value,
            "last_time": self._last_time,
            "error_allowance": self._error_allowance,
            "observations": self._observations,
            "grow_events": self._grow_events,
            "reset_events": self._reset_events,
            "coord_sum_r": self._coord_sum_r,
            "coord_sum_log_e": self._coord_sum_log_e,
            "coord_n": self._coord_n,
            "stats": self._stats.state_dict(),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore sampler state produced by :meth:`state_dict`.

        The sampler must have been constructed with the same task and
        configuration that produced the snapshot; only mutable state is
        restored.
        """
        self._interval = int(state["interval"])  # type: ignore[arg-type]
        self._streak = int(state["streak"])  # type: ignore[arg-type]
        last_value = state["last_value"]
        last_time = state["last_time"]
        self._last_value = None if last_value is None else float(last_value)  # type: ignore[arg-type]
        self._last_time = None if last_time is None else int(last_time)  # type: ignore[arg-type]
        self.error_allowance = float(state["error_allowance"])  # type: ignore[arg-type]
        self._observations = int(state["observations"])  # type: ignore[arg-type]
        self._grow_events = int(state["grow_events"])  # type: ignore[arg-type]
        self._reset_events = int(state["reset_events"])  # type: ignore[arg-type]
        self._coord_sum_r = float(state["coord_sum_r"])  # type: ignore[arg-type]
        self._coord_sum_log_e = float(state["coord_sum_log_e"])  # type: ignore[arg-type]
        self._coord_n = int(state["coord_n"])  # type: ignore[arg-type]
        self._stats.load_state_dict(state["stats"])  # type: ignore[arg-type]

    def drain_coordination_stats(self) -> CoordinationStats | None:
        """Return and reset the averages accumulated since the last drain.

        Returns ``None`` when no samples were observed during the period
        (the coordinator keeps that monitor's previous allocation).
        """
        if self._coord_n == 0:
            return None
        stats = CoordinationStats(
            avg_cost_reduction=self._coord_sum_r / self._coord_n,
            avg_error_needed=math.exp(self._coord_sum_log_e / self._coord_n),
            observations=self._coord_n,
        )
        self._coord_sum_r = 0.0
        self._coord_sum_log_e = 0.0
        self._coord_n = 0
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ViolationLikelihoodSampler(interval={self._interval}, "
                f"err={self._error_allowance:.4g}, "
                f"observations={self._observations})")
