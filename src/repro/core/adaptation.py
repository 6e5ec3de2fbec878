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
                                   gaussian_misdetection_estimate_fused,
                                   misdetection_bound,
                                   misdetection_bound_fused)
from repro.core.online_stats import OnlineStatistics
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError

_MIN_ERROR_NEEDED = 1e-12
"""Clamp for the geometric accumulation of e_i (beta can be exactly 0)."""


class _SamplerMetrics:
    """Process-wide fast-path counters (held by ``_SAMPLER_METRICS``).

    The live instance is installed by
    :func:`repro.telemetry.registry.instrument_samplers`; the module
    default is the null twin below, so un-instrumented runs pay one
    attribute check per :meth:`ViolationLikelihoodSampler.observe_fast`
    call (mirroring the chaos harness' ``NOOP_HOOK`` contract).

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

    Two equivalent drive surfaces exist (DESIGN.md S27): :meth:`observe`
    is the reference implementation (per-step likelihood kernels, a
    :class:`SamplingDecision` per call) and :meth:`observe_fast` is the
    allocation-light twin used by the fused experiment drivers and the
    runtime's hot ingest path. Both mutate the same state identically —
    the property-based equivalence suite and the core-hotpath CI job
    prove their decision streams bit-equal — so callers may use either
    (or mix them) freely.
    """

    __slots__ = ("_task", "_config", "_sign", "_threshold",
                 "_error_allowance", "_stats", "_estimate", "_estimate_fast",
                 "_interval", "_streak", "_last_value", "_last_time",
                 "_observations", "_grow_events", "_reset_events",
                 "_coord_sum_r", "_coord_sum_log_e", "_coord_n",
                 "_max_interval", "_patience", "_min_samples",
                 "_one_minus_slack", "_last_beta", "_last_flags")

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
        chebyshev = self._config.estimator == "chebyshev"
        self._estimate = (misdetection_bound if chebyshev
                          else gaussian_misdetection_estimate)
        self._estimate_fast = (misdetection_bound_fused if chebyshev
                               else gaussian_misdetection_estimate_fused)
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
        # Hoisted invariants for the fast path (config and task are
        # immutable, so these can never drift from the reference reads).
        self._max_interval = task.max_interval
        self._patience = self._config.patience
        self._min_samples = self._config.min_samples
        self._one_minus_slack = 1.0 - self._config.slack_ratio
        # Outcome of the most recent observation (either drive surface).
        self._last_beta = 1.0
        self._last_flags = 0

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
        not an adaptation event, so both drive surfaces stay bit-equal.
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

        self._last_beta = beta
        self._last_flags = ((1 if grew else 0) | (2 if reset else 0)
                            | (4 if violation else 0))
        return SamplingDecision(next_interval=self._interval,
                                misdetection_bound=beta,
                                grew=grew, reset=reset, violation=violation)

    def observe_fast(self, value: float, time_index: int) -> int:
        """Absorb a sampled value; return the next interval as a plain int.

        The allocation-light twin of :meth:`observe`: identical state
        transitions and identical raised errors, but no
        :class:`SamplingDecision` is constructed, the mis-detection bound
        is computed by the fused kernels
        (:func:`~repro.core.likelihood.misdetection_bound_fused` /
        :func:`~repro.core.likelihood.gaussian_misdetection_estimate_fused`,
        bit-equal to the reference), and the per-call invariants are read
        from hoisted slots. The full outcome of the step remains readable
        via :attr:`last_misdetection_bound`, :attr:`last_grew`,
        :attr:`last_reset` and :attr:`last_violation`.
        """
        v = self._sign * value
        flags = 4 if v > self._threshold else 0

        last_time = self._last_time
        if last_time is not None:
            steps = time_index - last_time
            if steps <= 0:
                raise ValueError(
                    f"time_index must increase: {time_index} after "
                    f"{last_time}")
            # delta_hat = (v(t) - v(t - I)) / I  (paper SIII-B)
            self._stats.update((v - self._last_value) / steps)
        self._observations += 1
        self._last_value = v
        self._last_time = time_index

        stats = self._stats
        err = self._error_allowance
        interval = self._interval
        if stats.effective_count >= self._min_samples:
            beta = self._estimate_fast(v, self._threshold, stats.mean,
                                       stats.std, interval)
        else:
            beta = 1.0

        if err <= 0.0:
            # A zero allowance degenerates to periodic default sampling.
            if interval != 1:
                self._interval = interval = 1
                flags |= 2
            self._streak = 0
        elif beta > err:
            if interval != 1:
                flags |= 2
                self._interval = interval = 1
                self._reset_events += 1
            self._streak = 0
        elif beta <= self._one_minus_slack * err:
            streak = self._streak + 1
            if streak >= self._patience:
                self._streak = 0
                if interval < self._max_interval:
                    self._interval = interval = interval + 1
                    flags |= 1
                    self._grow_events += 1
            else:
                self._streak = streak
        else:
            self._streak = 0

        # Coordination statistics — see observe() for the rationale.
        if interval < self._max_interval:
            self._coord_sum_r += 1.0 / interval - 1.0 / (interval + 1.0)
        self._coord_sum_log_e += math.log(
            max(beta / self._one_minus_slack, _MIN_ERROR_NEEDED))
        self._coord_n += 1

        self._last_beta = beta
        self._last_flags = flags

        metrics = _SAMPLER_METRICS
        if metrics.enabled:
            # Counters only — the fast path stays allocation-free and the
            # disabled case costs one global load plus one attribute check.
            metrics.observations += 1
            if flags:
                if flags & 1:
                    metrics.grow_events += 1
                if flags & 2:
                    metrics.reset_events += 1
                if flags & 4:
                    metrics.violations += 1
        return interval

    def run_trace(self, values: list[float], start: int = 0,
                  record_intervals: bool = True,
                  ) -> tuple[list[int], list[int]]:
        """Drive the sampler over a whole trace in one call (DESIGN.md S27).

        The batch twin of driving :meth:`observe_fast` step by step:
        samples grid index ``start``, advances by the decided interval,
        stops past the end of ``values``. The entire hot loop — Welford
        update with the restart/stale-serving scheme, likelihood kernel,
        AIMD rule, coordination accumulation — runs on local variables and
        is written back to the sampler (and its statistics object) when
        the loop finishes, so per-step attribute traffic and method-call
        dispatch disappear from the inner loop. State transitions, raised
        errors and the resulting ``(sampled, intervals)`` streams are
        identical to the step-by-step surfaces; the equivalence suite
        checks all three against :meth:`observe`.

        Falls back to a plain :meth:`observe_fast` loop when the sampler
        was built around a custom statistics object (the inlined Welford
        math is only valid for :class:`~repro.core.online_stats.OnlineStatistics`).

        Args:
            values: the trace as plain Python floats (``arr.tolist()``),
                one per default-interval grid point.
            start: grid index of the first sample.
            record_intervals: also record the interval trajectory.

        Returns:
            ``(sampled_indices, intervals)`` lists; ``intervals`` is empty
            when recording was disabled.
        """
        n = len(values)
        sampled: list[int] = []
        intervals: list[int] = []
        sampled_append = sampled.append
        intervals_append = intervals.append

        st = self._stats
        if type(st) is not OnlineStatistics:
            observe_fast = self.observe_fast
            t = start
            while t < n:
                sampled_append(t)
                step = observe_fast(values[t], t)
                if step < 1:
                    step = 1
                if record_intervals:
                    intervals_append(step)
                t += step
            return sampled, intervals

        # Hoisted invariants (immutable for the duration of the run).
        sign = self._sign
        threshold = self._threshold
        err = self._error_allowance
        use_cheb = self._estimate_fast is misdetection_bound_fused
        erfc = math.erfc
        sqrt2 = math.sqrt(2.0)  # the identical double to likelihood._SQRT2
        max_interval = self._max_interval
        patience = self._patience
        min_samples = self._min_samples
        one_minus_slack = self._one_minus_slack
        min_fresh = st._min_fresh
        restart_limit = st._restart_after
        if restart_limit is None:
            restart_limit = n + st._n + 1  # unreachable: restarts disabled
        isfinite = math.isfinite
        sqrt = math.sqrt
        log = math.log
        # err is fixed for the duration of the run (the coordinator can
        # only retune between calls), so the growth gate and the marginal
        # cost reduction r_i = 1/I - 1/(I+1) are loop constants — the
        # latter tabulated with the exact per-step expression.
        grow_gate = one_minus_slack * err
        coord_r = [0.0] + [1.0 / i - 1.0 / (i + 1.0)
                           for i in range(1, max_interval + 1)]

        # Mutable state, loaded into locals and written back in `finally`
        # (so an error mid-trace leaves the sampler exactly as the
        # step-by-step surfaces would have).
        interval = self._interval
        streak = self._streak
        last_value = self._last_value
        last_time = self._last_time
        observations = self._observations
        grow_events = self._grow_events
        reset_events = self._reset_events
        coord_sum_r = self._coord_sum_r
        coord_sum_log_e = self._coord_sum_log_e
        coord_n = self._coord_n
        beta_out = self._last_beta
        flags_out = self._last_flags
        n_acc = st._n
        mean_acc = st._mean
        var_acc = st._var
        stale_mean = st._stale_mean
        stale_var = st._stale_var
        stale_count = st._stale_count
        restarts = st._restarts
        total_count = st._total_count

        t = start
        try:
            while t < n:
                sampled_append(t)
                value = values[t]
                v = sign * value
                flags = 4 if v > threshold else 0

                if last_time is not None:
                    steps = t - last_time
                    if steps <= 0:
                        raise ValueError(
                            f"time_index must increase: {t} after "
                            f"{last_time}")
                    # Inlined OnlineStatistics.update (Welford + restart).
                    x = (v - last_value) / steps
                    if not isfinite(x):
                        raise ValueError(f"non-finite observation: {x!r}")
                    n_acc += 1
                    total_count += 1
                    prev_mean = mean_acc
                    mean_acc = prev_mean + (x - prev_mean) / n_acc
                    var_acc = ((n_acc - 1) * var_acc
                               + (x - mean_acc) * (x - prev_mean)) / n_acc
                    if n_acc > restart_limit:
                        stale_mean = mean_acc
                        stale_var = var_acc
                        stale_count = n_acc
                        n_acc = 0
                        mean_acc = 0.0
                        var_acc = 0.0
                        restarts += 1
                observations += 1
                last_value = v
                last_time = t

                # Inlined mean/std/effective_count with stale serving.
                if stale_mean is not None and n_acc < min_fresh:
                    eff = stale_count
                    mean_est = stale_mean
                    var_est = stale_var
                else:
                    eff = n_acc
                    mean_est = mean_acc
                    var_est = max(var_acc, 0.0)

                # Inlined likelihood kernel — the exact floating-point
                # operation sequence of misdetection_bound_fused /
                # gaussian_misdetection_estimate_fused (likelihood.py),
                # with the dominant interval == 1 case unrolled. The
                # survive-product double rounding (1 - (1 - x)) is kept
                # deliberately: simplifying it would break bit-equality
                # with the reference kernels.
                if eff >= min_samples:
                    std_est = sqrt(var_est)
                    gap0 = threshold - v
                    if std_est == 0.0:
                        worst = interval if mean_est >= 0.0 else 1
                        beta = (0.0 if gap0 - worst * mean_est > 0.0
                                else 1.0)
                    elif use_cheb:
                        if interval == 1:
                            gap = gap0 - mean_est
                            if gap <= 0.0:
                                beta = 1.0
                            else:
                                k = gap / std_est
                                beta = 1.0 - (1.0 - 1.0 / (1.0 + k * k))
                        else:
                            survive = 1.0
                            for i in range(1, interval + 1):
                                gap = gap0 - i * mean_est
                                if gap <= 0.0:
                                    beta = 1.0
                                    break
                                k = gap / (i * std_est)
                                survive *= 1.0 - 1.0 / (1.0 + k * k)
                            else:
                                beta = 1.0 - survive
                    elif interval == 1:
                        p = 0.5 * erfc((gap0 - mean_est) / std_est / sqrt2)
                        beta = 1.0 if p >= 1.0 else 1.0 - (1.0 - p)
                    else:
                        survive = 1.0
                        for i in range(1, interval + 1):
                            p = 0.5 * erfc(
                                (gap0 - i * mean_est) / (i * std_est)
                                / sqrt2)
                            if p >= 1.0:
                                beta = 1.0
                                break
                            survive *= 1.0 - p
                        else:
                            beta = 1.0 - survive
                else:
                    beta = 1.0

                if err <= 0.0:
                    if interval != 1:
                        interval = 1
                        flags |= 2
                    streak = 0
                elif beta > err:
                    if interval != 1:
                        flags |= 2
                        interval = 1
                        reset_events += 1
                    streak = 0
                elif beta <= grow_gate:
                    streak += 1
                    if streak >= patience:
                        streak = 0
                        if interval < max_interval:
                            interval += 1
                            flags |= 1
                            grow_events += 1
                else:
                    streak = 0

                if interval < max_interval:
                    coord_sum_r += coord_r[interval]
                coord_sum_log_e += log(
                    max(beta / one_minus_slack, _MIN_ERROR_NEEDED))
                coord_n += 1

                beta_out = beta
                flags_out = flags
                if record_intervals:
                    intervals_append(interval)
                t += interval
        finally:
            st._n = n_acc
            st._mean = mean_acc
            st._var = var_acc
            st._stale_mean = stale_mean
            st._stale_var = stale_var
            st._stale_count = stale_count
            st._restarts = restarts
            st._total_count = total_count
            self._interval = interval
            self._streak = streak
            self._last_value = last_value
            self._last_time = last_time
            self._observations = observations
            self._grow_events = grow_events
            self._reset_events = reset_events
            self._coord_sum_r = coord_sum_r
            self._coord_sum_log_e = coord_sum_log_e
            self._coord_n = coord_n
            self._last_beta = beta_out
            self._last_flags = flags_out
        return sampled, intervals

    @property
    def last_misdetection_bound(self) -> float:
        """``beta`` computed by the most recent observation (1.0 initially)."""
        return self._last_beta

    @property
    def last_flags(self) -> int:
        """The most recent observation's outcome as bits: 1 grew, 2 reset,
        4 violation (the encoding the SoA engine's column uses)."""
        return self._last_flags

    @property
    def last_grew(self) -> bool:
        """Whether the most recent observation grew the interval."""
        return bool(self._last_flags & 1)

    @property
    def last_reset(self) -> bool:
        """Whether the most recent observation reset the interval."""
        return bool(self._last_flags & 2)

    @property
    def last_violation(self) -> bool:
        """Whether the most recently observed value violated the threshold."""
        return bool(self._last_flags & 4)

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
