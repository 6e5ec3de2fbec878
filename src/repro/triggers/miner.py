"""Online mining of correlation-trigger plans from live metric streams.

The batch :class:`~repro.core.correlation.CorrelationDetector` answers
"was this trigger elevated whenever that target violated" over two
aligned arrays; the planner turns scored pairs into rules. What neither
does is run *online*: a deployment has no aligned arrays, only streams —
decision-trace violation events, telemetry summaries, raw offers. The
:class:`CorrelationMiner` closes that gap with bounded per-task
histories and two deliberate properties:

* **Evidence is the batch detector's, exactly.** The miner never
  re-implements scoring: it buffers the trailing ``window`` values per
  task and hands the aligned tails to the detector, so mined evidence on
  a replayed history equals the batch answer on the same tail — pinned
  by ``tests/properties/test_trigger_properties.py``.
* **Plans have hysteresis.** An installed rule is a cross-shard wiring
  change; re-deriving it every cycle would drift its elevation level
  with every wobble of the window and flap targets between triggers. An
  active rule is therefore kept — level frozen — until its evidence
  decays below ``min_score - drop_margin`` (or its support vanishes),
  and a different trigger only takes over when it beats the incumbent's
  expected saving by ``improve_factor``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

import numpy as np

from repro.core.correlation import (CorrelationDetector, CorrelationEvidence,
                                    CorrelationPlanner, TaskProfile,
                                    TriggerRule)
from repro.exceptions import ConfigurationError, CorrelationError
from repro.triggers.plan import TriggerPlan
from repro.types import ThresholdDirection

__all__ = ["CorrelationMiner"]


class CorrelationMiner:
    """Incrementally mine (trigger, target) plans from per-task streams.

    Args:
        window: trailing values retained per task (the evidence window).
        min_score: minimum necessary-condition score for a new rule.
        loss_budget: per-task accuracy-loss budget — the planner rejects
            any rule whose estimated extra mis-detection exceeds it.
        suspend_interval: idle interval mined plans prescribe.
        drop_margin: an *active* rule survives until its refreshed score
            falls below ``min_score - drop_margin`` (plan hysteresis).
        improve_factor: a challenger rule for an already-guarded target
            must beat the incumbent's expected saving by this factor.
        hysteresis / min_hold: watcher debounce parameters stamped onto
            emitted :class:`~repro.triggers.plan.TriggerPlan` objects.
        detector: the scorer (a default-configured one when omitted).
    """

    def __init__(self, window: int = 512, min_score: float = 0.95,
                 loss_budget: float = 0.05, suspend_interval: int = 10,
                 drop_margin: float = 0.05, improve_factor: float = 1.2,
                 hysteresis: float = 0.1, min_hold: int = 5,
                 detector: CorrelationDetector | None = None):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if drop_margin < 0.0:
            raise ConfigurationError(
                f"drop_margin must be >= 0, got {drop_margin}")
        if improve_factor < 1.0:
            raise ConfigurationError(
                f"improve_factor must be >= 1, got {improve_factor}")
        self._window = int(window)
        self._min_score = float(min_score)
        self._drop_margin = float(drop_margin)
        self._improve_factor = float(improve_factor)
        self._hysteresis = float(hysteresis)
        self._min_hold = int(min_hold)
        self._suspend_interval = int(suspend_interval)
        self._detector = detector or CorrelationDetector()
        self._planner = CorrelationPlanner(
            min_score=min_score, loss_budget=loss_budget,
            suspend_interval=suspend_interval, detector=self._detector)
        self._history: dict[str, deque[float]] = {}
        self._threshold: dict[str, float] = {}
        self._direction: dict[str, ThresholdDirection] = {}
        self._cost: dict[str, float] = {}
        self._active: dict[str, TriggerRule] = {}

    # -- stream ingestion ------------------------------------------------

    def add_task(self, name: str, threshold: float,
                 direction: ThresholdDirection | str = "upper",
                 cost: float = 1.0) -> None:
        """Declare a task the miner should track.

        Args:
            name: task name (must match the stream's task labels).
            threshold: the task's violation threshold.
            direction: violation side (enum or ``"upper"``/``"lower"``).
            cost: relative per-sample cost; only cheaper tasks may guard
                costlier ones.
        """
        if name in self._history:
            raise ConfigurationError(f"task {name!r} already mined")
        if cost <= 0.0:
            raise ConfigurationError(f"cost must be > 0, got {cost}")
        self._history[name] = deque(maxlen=self._window)
        self._threshold[name] = float(threshold)
        self._direction[name] = (direction
                                 if isinstance(direction, ThresholdDirection)
                                 else ThresholdDirection(direction))
        self._cost[name] = float(cost)

    def observe(self, name: str, value: float) -> None:
        """Append one metric observation to ``name``'s history."""
        self._history[name].append(float(value))

    def ingest_trace(self, events: Iterable[dict[str, Any]]) -> int:
        """Feed decision-trace/telemetry events; returns values ingested.

        Any event naming a tracked ``task`` and carrying a ``value`` (the
        runtime's ``violation`` events do, as do telemetry summaries
        shaped the same way) contributes one observation; everything else
        is ignored.
        """
        ingested = 0
        for event in events:
            task = event.get("task")
            data = event.get("data", event)
            value = data.get("value")
            if task in self._history and value is not None:
                self.observe(task, float(value))
                ingested += 1
        return ingested

    @property
    def task_names(self) -> list[str]:
        """Tracked task names, in registration order."""
        return list(self._history)

    def support(self, name: str) -> int:
        """Observations currently buffered for ``name``."""
        return len(self._history[name])

    # -- evidence & planning ---------------------------------------------

    def evidence(self, trigger: str, target: str) -> CorrelationEvidence:
        """Score ``(trigger, target)`` on the aligned trailing histories.

        Delegates to the batch detector over the last ``n`` values of
        each stream (``n`` = the shorter history), so the result is
        exactly what a batch analysis of the same tails would produce.

        Raises:
            CorrelationError: insufficient history or support.
        """
        trig, targ = self._aligned(trigger, target)
        return self._detector.analyze(trig, targ, self._threshold[target],
                                      self._direction[target])

    def _aligned(self, trigger: str,
                 target: str) -> tuple[np.ndarray, np.ndarray]:
        trig = self._history[trigger]
        targ = self._history[target]
        n = min(len(trig), len(targ))
        if n < 2:
            raise CorrelationError(
                f"histories too short to correlate ({n} aligned points)")
        trig_tail = np.fromiter(trig, dtype=float,
                                count=len(trig))[len(trig) - n:]
        targ_tail = np.fromiter(targ, dtype=float,
                                count=len(targ))[len(targ) - n:]
        return trig_tail, targ_tail

    def profiles(self) -> list[TaskProfile]:
        """Planner-ready profiles over the common aligned tail."""
        if not self._history:
            return []
        n = min(len(h) for h in self._history.values())
        if n < 2:
            return []
        return [
            TaskProfile(
                task_id=name,
                values=np.fromiter(hist, dtype=float,
                                   count=len(hist))[len(hist) - n:],
                threshold=self._threshold[name],
                cost_per_sample=self._cost[name],
                direction=self._direction[name],
            )
            for name, hist in self._history.items()
        ]

    def plan(self) -> list[TriggerRule]:
        """Re-plan with hysteresis; returns the active rules.

        Fresh rules come from the batch planner (which enforces the
        accuracy-loss budget); the active set then evolves conservatively
        as documented on the class, and its rules that share a trigger
        share that trigger's one level (``CorrelationPlanner.share_levels``).
        """
        profiles = self.profiles()
        fresh = {rule.target_id: rule
                 for rule in self._planner.plan(profiles)}
        active: dict[str, TriggerRule] = {}
        for target, incumbent in self._active.items():
            if self._still_valid(incumbent):
                challenger = fresh.get(target)
                if (challenger is not None
                        and challenger.trigger_id != incumbent.trigger_id
                        and challenger.expected_saving
                        >= self._improve_factor
                        * incumbent.expected_saving):
                    active[target] = challenger
                else:
                    active[target] = incumbent
            elif target in fresh:
                active[target] = fresh[target]
        for target, rule in fresh.items():
            active.setdefault(target, rule)
        shared = self._planner.share_levels(list(active.values()), profiles)
        self._active = {rule.target_id: rule for rule in shared}
        return sorted(shared, key=lambda r: r.target_id)

    def _still_valid(self, rule: TriggerRule) -> bool:
        """Does the incumbent's evidence still clear the decayed floor?"""
        try:
            ev = self.evidence(rule.trigger_id, rule.target_id)
        except CorrelationError:
            # No fresh violations in the window is not evidence against
            # the rule — the guarded regime is *supposed* to be calm.
            return True
        return (ev.necessary_condition_score
                >= self._min_score - self._drop_margin)

    def to_plans(self) -> list[TriggerPlan]:
        """The active rules as installable/serializable plans."""
        return [TriggerPlan.from_rule(rule,
                                      suspend_interval=self._suspend_interval,
                                      hysteresis=self._hysteresis,
                                      min_hold=self._min_hold)
                for rule in self.plan()]
