"""Additional edge cases for the correlation machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.correlation import (CorrelationDetector, CorrelationPlanner,
                                    TaskProfile)
from repro.core.task import TaskSpec
from repro.core.windowed import (AggregateKind, WindowedTaskSpec,
                                 run_windowed_adaptive)


class TestDetectorEdges:
    def test_anti_correlated_trigger_scores_near_zero(self, rng):
        n = 4000
        trigger = 10.0 + rng.normal(0.0, 0.5, n)
        target = 5.0 + rng.normal(0.0, 0.5, n)
        starts = np.linspace(100, n - 100, 5).astype(int)
        for s in starts:
            trigger[s:s + 60] -= 8.0    # trigger DROPS during events
            target[s + 5:s + 55] += 100.0
        detector = CorrelationDetector(min_support=10)
        evidence = detector.analyze(trigger, target, 50.0)
        assert evidence.necessary_condition_score < 0.3
        assert evidence.pearson < 0.0

    def test_constant_trigger_has_zero_pearson(self, rng):
        n = 2000
        trigger = np.full(n, 3.0)
        target = rng.normal(0.0, 1.0, n)
        target[::100] = 50.0
        detector = CorrelationDetector(min_support=5)
        evidence = detector.analyze(trigger, target, 10.0)
        assert evidence.pearson == 0.0

    def test_short_history_rejected(self):
        from repro.exceptions import CorrelationError

        detector = CorrelationDetector()
        with pytest.raises(CorrelationError):
            detector.analyze(np.array([1.0]), np.array([1.0]), 0.0)


class TestPlannerEdges:
    def test_best_of_multiple_triggers_wins(self, rng):
        """Two candidate triggers; the one idle more often saves more and
        must be chosen."""
        n = 6000
        target = 5.0 + rng.normal(0.0, 0.5, n)
        tight = 10.0 + rng.normal(0.0, 0.5, n)   # elevated rarely
        loose = 10.0 + rng.normal(0.0, 0.5, n)   # elevated often
        starts = np.linspace(200, n - 200, 6).astype(int)
        for s in starts:
            target[s + 5:s + 55] += 100.0
            tight[s:s + 60] += 30.0
        for s in range(0, n, 120):               # loose fires all the time
            loose[s:s + 60] += 30.0
        for s in starts:
            loose[s:s + 60] += 30.0

        planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1)
        rules = planner.plan([
            TaskProfile(task_id="tight", values=tight, threshold=25.0,
                        cost_per_sample=1.0),
            TaskProfile(task_id="loose", values=loose, threshold=25.0,
                        cost_per_sample=1.0),
            TaskProfile(task_id="target", values=target, threshold=50.0,
                        cost_per_sample=40.0),
        ])
        target_rules = [r for r in rules if r.target_id == "target"]
        assert target_rules
        assert target_rules[0].trigger_id == "tight"


class TestWindowedKinds:
    def test_sum_and_min_kinds_run_end_to_end(self, rng):
        raw = 10.0 + rng.normal(0.0, 1.0, 4000)
        raw[3000:3050] += 50.0
        for kind, direction_threshold in (
                (AggregateKind.SUM, 200.0),
                (AggregateKind.MIN, 100.0)):
            spec = WindowedTaskSpec(
                task=TaskSpec(threshold=direction_threshold,
                              error_allowance=0.01, max_interval=10),
                window=10, kind=kind)
            result = run_windowed_adaptive(raw, spec)
            assert 0.0 < result.sampling_ratio <= 1.0
            assert result.aggregated.size == raw.size
