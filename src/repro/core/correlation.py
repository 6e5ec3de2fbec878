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

The gate a rule describes is the service's (``MonitoringService.add_trigger``
/ ``install_trigger_plan``): while the trigger sits below the elevation
level the target idles at the suspend interval, and the trigger's arm edge
resumes it at full rate. Offline runs drive that same gate
(:func:`repro.experiments.runner.run_triggered`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ConfigurationError, CorrelationError
from repro.types import ThresholdDirection

__all__ = [
    "CorrelationEvidence",
    "CorrelationDetector",
    "TaskProfile",
    "TriggerRule",
    "CorrelationPlanner",
]


@dataclass(frozen=True, slots=True)
class CorrelationEvidence:
    """What the detector learned about a (trigger, target) pair.

    Attributes:
        pearson: Pearson correlation of the two aligned metric histories.
        necessary_condition_score: ``P(trigger elevated | target violates)``
            — 1.0 means the trigger was elevated at every target violation.
        elevation_level: the trigger value at or above which it counts
            as elevated.
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

    The elevation level is worked out from the two histories: the midpoint
    between the trigger's median at the target's violation steps and its
    median at every other step. It sits as far from the trigger's quiet
    noise as from its incident values, so a trigger that only wobbles
    raises (almost) no arm edges.

    Args:
        min_support: minimum number of target violations required to trust
            a score; below it :meth:`analyze` raises
            :class:`~repro.exceptions.CorrelationError`.
        lag_window: the trigger counts as elevated for a violation at ``t``
            if it was elevated anywhere in ``[t - lag_window, t]`` —
            correlated effects need not be exactly simultaneous. The level
            reads the trigger the same way: its maximum over that window.
    """

    def __init__(self, min_support: int = 10, lag_window: int = 0):
        if min_support < 1:
            raise ConfigurationError(
                f"min_support must be >= 1, got {min_support}")
        if lag_window < 0:
            raise ConfigurationError(
                f"lag_window must be >= 0, got {lag_window}")
        self._min_support = min_support
        self._lag_window = lag_window

    def analyze(self, trigger_values: np.ndarray, target_values: np.ndarray,
                target_threshold: float,
                direction: ThresholdDirection = ThresholdDirection.UPPER,
                level: float | None = None) -> CorrelationEvidence:
        """Score how well ``trigger_values`` predicts target violations.

        Args:
            trigger_values: candidate trigger metric, one value per grid
                point, aligned with ``target_values``.
            target_values: the target task's metric history.
            target_threshold: the target task's violation threshold.
            direction: the target task's violation side.
            level: score at this elevation level instead of the worked-out
                one (how a planner re-scores a rule at a shared level).

        Raises:
            CorrelationError: when histories are misaligned, the target
                violated fewer than ``min_support`` times, or at every step.
        """
        trig = np.asarray(trigger_values, dtype=float)
        targ = np.asarray(target_values, dtype=float)
        if trig.shape != targ.shape or trig.ndim != 1:
            raise CorrelationError(
                f"misaligned histories: {trig.shape} vs {targ.shape}")
        if trig.size < 2:
            raise CorrelationError("histories too short to correlate")

        if direction is ThresholdDirection.UPPER:
            violating = targ > target_threshold
        else:
            violating = targ < target_threshold
        violations = np.flatnonzero(violating)
        if violations.size < self._min_support:
            raise CorrelationError(
                f"only {violations.size} target violations; need "
                f">= {self._min_support}")
        if violations.size == trig.size:
            raise CorrelationError("the target violates at every step")

        # What the trigger read at each violation, lag-aware: its maximum
        # over [t - lag_window, t].
        lag = self._lag_window
        seen = trig if lag == 0 else sliding_window_view(
            np.concatenate([np.full(lag, -np.inf), trig]), lag + 1).max(axis=1)
        seen = seen[violations]
        if level is None:
            level = 0.5 * (float(np.median(seen))
                           + float(np.median(trig[~violating])))
        elevated_fraction = float(np.mean(trig >= level))
        score = int(np.count_nonzero(seen >= level)) / violations.size

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
            elevation_level=float(level),
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
        no rule. Rules that share a trigger share its level
        (:meth:`share_levels`).
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
                    rule = self._rule(target, trigger)
                except CorrelationError:
                    continue
                if (rule.evidence.necessary_condition_score < self._min_score
                        or rule.estimated_loss > self._loss_budget):
                    continue
                if best is None or rule.expected_saving > best.expected_saving:
                    best = rule
            if best is not None and best.expected_saving > 0.0:
                rules.append(best)
        return self.share_levels(rules, tasks)

    def share_levels(self, rules: list[TriggerRule],
                     tasks: list[TaskProfile]) -> list[TriggerRule]:
        """A trigger task carries one watch, hence one level: give every
        rule that shares a trigger the lowest of those rules' levels, and
        re-score it there on ``tasks``' histories.

        A lower level can only raise a target's score, so a rule admitted
        at its own level stays admitted; its expected saving may shrink.
        A rule with no evidence left to re-score on takes the level alone.
        """
        lowest: dict[str, float] = {}
        for rule in rules:
            lowest[rule.trigger_id] = min(
                rule.elevation_level,
                lowest.get(rule.trigger_id, math.inf))
        by_id = {task.task_id: task for task in tasks}
        shared: list[TriggerRule] = []
        for rule in rules:
            level = lowest[rule.trigger_id]
            if level != rule.elevation_level:
                try:
                    rule = self._rule(by_id[rule.target_id],
                                      by_id[rule.trigger_id], level)
                except CorrelationError:
                    rule = replace(rule, elevation_level=level)
            shared.append(rule)
        return shared

    def _rule(self, target: TaskProfile, trigger: TaskProfile,
              level: float | None = None) -> TriggerRule:
        ev = self._detector.analyze(trigger.values, target.values,
                                    target.threshold, target.direction,
                                    level)
        return TriggerRule(
            target_id=target.task_id,
            trigger_id=trigger.task_id,
            elevation_level=ev.elevation_level,
            evidence=ev,
            expected_saving=(target.cost_per_sample
                             * (1.0 - ev.elevated_fraction)
                             * (1.0 - 1.0 / self._suspend_interval)),
            estimated_loss=1.0 - ev.necessary_condition_score,
        )

    @property
    def suspend_interval(self) -> int:
        """Interval used while a guarded task idles."""
        return self._suspend_interval
