"""Multi-task state correlation (paper SII-A "State Correlation", SI).

The paper's example: rising request response time is a *necessary
condition* of a successful DDoS attack, so the expensive DDoS task only
needs intensive sampling while the cheap response-time metric is elevated.
The full mechanism lives in an unavailable technical report; this module
implements the documented interpretation from DESIGN.md S5:

* :class:`CorrelationDetector` measures, from aligned metric histories, how
  reliably a candidate *trigger* metric is elevated whenever a *target*
  task violates (the necessary-condition score), plus the fraction of time
  the trigger is elevated (which determines the achievable saving).
* :class:`CorrelationPlanner` greedily assigns at most one trigger to each
  expensive target task, maximising expected sampling-cost saving subject
  to a per-task accuracy-loss budget.
* :class:`TriggeredSampler` wraps any sampling scheme: while the trigger
  metric is below its elevation level the wrapped task idles at the
  maximum interval; once the trigger is elevated the inner
  violation-likelihood adaptation takes over unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import SamplingDecision
from repro.core.sampler import SamplingScheme
from repro.exceptions import ConfigurationError, CorrelationError
from repro.types import ThresholdDirection

__all__ = [
    "CorrelationEvidence",
    "CorrelationDetector",
    "TaskProfile",
    "TriggerRule",
    "CorrelationPlanner",
    "TriggeredSampler",
]


@dataclass(frozen=True, slots=True)
class CorrelationEvidence:
    """What the detector learned about a (trigger, target) pair.

    Attributes:
        pearson: Pearson correlation of the two aligned metric histories.
        necessary_condition_score: ``P(trigger elevated | target violates)``
            — 1.0 means the trigger was elevated at every target violation.
        elevation_level: the trigger value above which it counts as
            elevated (a quantile of its history).
        elevated_fraction: fraction of time the trigger was elevated; the
            complement is the fraction of time the target could idle.
        support: number of target violations backing the score.
    """

    pearson: float
    necessary_condition_score: float
    elevation_level: float
    elevated_fraction: float
    support: int


class CorrelationDetector:
    """Estimate necessary-condition correlation between two metric streams.

    Args:
        elevation_quantile: the trigger is "elevated" above this quantile
            of its history (default 0.8).
        min_support: minimum number of target violations required to trust
            a score; below it :meth:`analyze` raises
            :class:`~repro.exceptions.CorrelationError`.
        lag_window: the trigger counts as elevated for a violation at ``t``
            if it was elevated anywhere in ``[t - lag_window, t]`` —
            correlated effects need not be exactly simultaneous.
    """

    def __init__(self, elevation_quantile: float = 0.8,
                 min_support: int = 10, lag_window: int = 0):
        if not 0.0 < elevation_quantile < 1.0:
            raise ConfigurationError(
                "elevation_quantile must be in (0, 1), got "
                f"{elevation_quantile}")
        if min_support < 1:
            raise ConfigurationError(
                f"min_support must be >= 1, got {min_support}")
        if lag_window < 0:
            raise ConfigurationError(
                f"lag_window must be >= 0, got {lag_window}")
        self._quantile = elevation_quantile
        self._min_support = min_support
        self._lag_window = lag_window

    def analyze(self, trigger_values: np.ndarray, target_values: np.ndarray,
                target_threshold: float,
                direction: ThresholdDirection = ThresholdDirection.UPPER,
                ) -> CorrelationEvidence:
        """Score how well ``trigger_values`` predicts target violations.

        Args:
            trigger_values: candidate trigger metric, one value per grid
                point, aligned with ``target_values``.
            target_values: the target task's metric history.
            target_threshold: the target task's violation threshold.
            direction: the target task's violation side.

        Raises:
            CorrelationError: when histories are misaligned or the target
                violated fewer than ``min_support`` times.
        """
        trig = np.asarray(trigger_values, dtype=float)
        targ = np.asarray(target_values, dtype=float)
        if trig.shape != targ.shape or trig.ndim != 1:
            raise CorrelationError(
                f"misaligned histories: {trig.shape} vs {targ.shape}")
        if trig.size < 2:
            raise CorrelationError("histories too short to correlate")

        if direction is ThresholdDirection.UPPER:
            violations = np.flatnonzero(targ > target_threshold)
        else:
            violations = np.flatnonzero(targ < target_threshold)
        if violations.size < self._min_support:
            raise CorrelationError(
                f"only {violations.size} target violations; need "
                f">= {self._min_support}")

        level = float(np.quantile(trig, self._quantile))
        elevated = trig >= level
        elevated_fraction = float(np.mean(elevated))

        lag = self._lag_window
        if lag == 0:
            hits = int(np.count_nonzero(elevated[violations]))
        else:
            hits = 0
            for t in violations:
                lo = max(0, int(t) - lag)
                if elevated[lo:int(t) + 1].any():
                    hits += 1
        score = hits / violations.size

        # Pearson on the raw streams; degenerate (constant) streams give 0.
        std_t = float(np.std(trig))
        std_g = float(np.std(targ))
        if std_t == 0.0 or std_g == 0.0:
            pearson = 0.0
        else:
            pearson = float(np.corrcoef(trig, targ)[0, 1])
            if math.isnan(pearson):  # pragma: no cover - defensive
                pearson = 0.0

        return CorrelationEvidence(
            pearson=pearson,
            necessary_condition_score=score,
            elevation_level=level,
            elevated_fraction=elevated_fraction,
            support=int(violations.size),
        )


@dataclass(frozen=True, slots=True)
class TaskProfile:
    """What the planner needs to know about one monitoring task.

    Attributes:
        task_id: stable identifier.
        values: recent metric history (aligned across profiles).
        threshold: violation threshold.
        cost_per_sample: relative cost of one sampling operation (e.g. DPI
            traffic sampling is far costlier than reading a counter).
        direction: violation side.
    """

    task_id: str
    values: np.ndarray
    threshold: float
    cost_per_sample: float = 1.0
    direction: ThresholdDirection = ThresholdDirection.UPPER


@dataclass(frozen=True, slots=True)
class TriggerRule:
    """One planned guard: sample ``target`` lazily unless ``trigger`` is hot.

    Attributes:
        target_id / trigger_id: task identifiers.
        elevation_level: trigger value above which the target resumes full
            adaptive sampling.
        evidence: the detector output the rule is based on.
        expected_saving: estimated sampling-cost saving per grid point.
        estimated_loss: estimated extra mis-detection probability charged
            against the accuracy-loss budget (``1 - score``).
    """

    target_id: str
    trigger_id: str
    elevation_level: float
    evidence: CorrelationEvidence
    expected_saving: float
    estimated_loss: float


class CorrelationPlanner:
    """Greedy cost-aware trigger assignment across a set of tasks.

    Each target task may be guarded by at most one cheaper task. Targets
    are considered in descending cost order (guard the expensive tasks
    first); for each, the admissible trigger with the largest expected
    saving wins. A rule is admissible when its necessary-condition score is
    at least ``min_score`` and its estimated loss fits the per-task budget.

    Args:
        min_score: minimum necessary-condition score (default 0.95).
        loss_budget: maximum estimated extra mis-detection probability a
            rule may introduce for its target (default 0.05).
        suspend_interval: interval (in default intervals) used while a
            guarded target idles — determines the achievable saving.
        detector: the :class:`CorrelationDetector` to use (a default one is
            built when omitted).
    """

    def __init__(self, min_score: float = 0.95, loss_budget: float = 0.05,
                 suspend_interval: int = 10,
                 detector: CorrelationDetector | None = None):
        if not 0.0 < min_score <= 1.0:
            raise ConfigurationError(
                f"min_score must be in (0, 1], got {min_score}")
        if not 0.0 <= loss_budget <= 1.0:
            raise ConfigurationError(
                f"loss_budget must be in [0, 1], got {loss_budget}")
        if suspend_interval < 2:
            raise ConfigurationError(
                f"suspend_interval must be >= 2, got {suspend_interval}")
        self._min_score = min_score
        self._loss_budget = loss_budget
        self._suspend_interval = suspend_interval
        self._detector = detector or CorrelationDetector()

    def plan(self, tasks: list[TaskProfile]) -> list[TriggerRule]:
        """Return the chosen trigger rules (possibly empty).

        Tasks whose violations are too rare for the detector's support
        requirement are simply skipped, not failed: lack of evidence means
        no rule.
        """
        rules: list[TriggerRule] = []
        by_cost = sorted(tasks, key=lambda t: t.cost_per_sample,
                         reverse=True)
        for target in by_cost:
            best: TriggerRule | None = None
            for trigger in tasks:
                if trigger.task_id == target.task_id:
                    continue
                if trigger.cost_per_sample >= target.cost_per_sample:
                    continue  # guarding with a costlier task cannot pay off
                try:
                    ev = self._detector.analyze(
                        trigger.values, target.values, target.threshold,
                        target.direction)
                except CorrelationError:
                    continue
                if ev.necessary_condition_score < self._min_score:
                    continue
                loss = 1.0 - ev.necessary_condition_score
                if loss > self._loss_budget:
                    continue
                idle = 1.0 - ev.elevated_fraction
                saving = (target.cost_per_sample * idle
                          * (1.0 - 1.0 / self._suspend_interval))
                rule = TriggerRule(
                    target_id=target.task_id,
                    trigger_id=trigger.task_id,
                    elevation_level=ev.elevation_level,
                    evidence=ev,
                    expected_saving=saving,
                    estimated_loss=loss,
                )
                if best is None or rule.expected_saving > best.expected_saving:
                    best = rule
            if best is not None and best.expected_saving > 0.0:
                rules.append(best)
        return rules

    @property
    def suspend_interval(self) -> int:
        """Interval used while a guarded task idles."""
        return self._suspend_interval


class TriggeredSampler:
    """Wrap a sampling scheme with a correlation trigger.

    While the trigger metric stays below ``elevation_level`` the wrapped
    task samples only every ``suspend_interval`` grid points; the inner
    scheme still observes every value taken so its delta statistics stay
    warm for the moment the trigger fires.

    Args:
        inner: the guarded task's own sampling scheme.
        elevation_level: trigger value at which full sampling resumes.
        suspend_interval: idle interval in default-interval units.
    """

    def __init__(self, inner: SamplingScheme, elevation_level: float,
                 suspend_interval: int = 10):
        if suspend_interval < 1:
            raise ConfigurationError(
                f"suspend_interval must be >= 1, got {suspend_interval}")
        self._inner = inner
        self._level = elevation_level
        self._suspend_interval = suspend_interval
        self._suspended_steps = 0
        # Resolved once: the inner scheme's fused drive surface, when it
        # has one (ViolationLikelihoodSampler does; generic schemes fall
        # back to observe() inside observe_fast).
        self._inner_fast = getattr(inner, "observe_fast", None)

    @property
    def interval(self) -> int:
        """Interval currently in force (inner's, or the idle interval)."""
        return max(self._inner.interval, 1)

    @property
    def suspended_steps(self) -> int:
        """How many observations happened while suspended."""
        return self._suspended_steps

    @property
    def elevation_level(self) -> float:
        """The trigger value above which the task samples at full rate."""
        return self._level

    def observe(self, value: float, time_index: int,
                trigger_value: float | None = None) -> SamplingDecision:
        """Observe a sample together with the current trigger value.

        Args:
            value: the guarded task's sampled value.
            time_index: grid position of the sample.
            trigger_value: the trigger metric at the same instant; ``None``
                (trigger unavailable) counts as elevated — conservatively
                not cold.
        """
        decision = self._inner.observe(value, time_index)
        if trigger_value is not None and trigger_value < self._level:
            self._suspended_steps += 1
            idle = max(decision.next_interval, self._suspend_interval)
            return SamplingDecision(
                next_interval=idle,
                misdetection_bound=decision.misdetection_bound,
                grew=decision.grew, reset=decision.reset,
                violation=decision.violation,
            )
        return decision

    def observe_fast(self, value: float, time_index: int,
                     trigger_value: float | None = None) -> int:
        """Allocation-light twin of :meth:`observe` (DESIGN.md S27).

        Returns the next interval as a plain int — the inner scheme's
        decision, floored at the suspend interval while the trigger is
        cold. State transitions (inner sampler state, the suspended-steps
        counter) are identical to :meth:`observe`.
        """
        fast = self._inner_fast
        if fast is not None:
            interval = fast(value, time_index)
        else:
            interval = int(self._inner.observe(value, time_index)
                           .next_interval)
        if trigger_value is not None and trigger_value < self._level:
            self._suspended_steps += 1
            if interval < self._suspend_interval:
                interval = self._suspend_interval
        return interval
