"""Tests for multi-task state correlation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.correlation import (CorrelationDetector, CorrelationPlanner,
                                    TaskProfile)
from repro.exceptions import ConfigurationError, CorrelationError


def correlated_pair(rng, n=4000, n_events=5):
    """Build (trigger, target) streams where the trigger leads violations.

    The trigger (think: response time) rises during every event; the
    target (think: traffic difference) violates only during events.
    """
    trigger = 10.0 + rng.normal(0.0, 0.5, n)
    target = 5.0 + rng.normal(0.0, 0.5, n)
    starts = np.linspace(100, n - 100, n_events).astype(int)
    for s in starts:
        trigger[s:s + 60] += 30.0
        target[s + 5:s + 55] += 100.0
    return trigger, target


class TestCorrelationDetector:
    def test_detects_necessary_condition(self, rng):
        trigger, target = correlated_pair(rng)
        detector = CorrelationDetector(min_support=10)
        evidence = detector.analyze(trigger, target, target_threshold=50.0)
        assert evidence.necessary_condition_score > 0.95
        assert evidence.support > 100
        assert evidence.pearson > 0.5
        assert 0.0 < evidence.elevated_fraction < 0.5

    def test_level_is_the_midpoint_above_the_noise(self, rng):
        """Halfway between the trigger's median at the violations (~40)
        and elsewhere (~10): far above its noise, so it is elevated only
        around the incidents."""
        trigger, target = correlated_pair(rng)
        evidence = CorrelationDetector().analyze(trigger, target, 50.0)
        assert evidence.elevation_level == pytest.approx(25.0, abs=0.5)
        assert evidence.elevated_fraction == pytest.approx(300 / 4000)
        # Scoring at a given level leaves the level alone.
        at = CorrelationDetector().analyze(trigger, target, 50.0, level=5.0)
        assert at.elevation_level == 5.0 and at.elevated_fraction == 1.0

    def test_uncorrelated_scores_low(self, rng):
        """An independent trigger's medians coincide, so the midpoint
        sits at its median and scores it about 0.5 by construction: far
        from a necessary condition, and no rule is planned on it."""
        trigger = rng.normal(0.0, 1.0, 4000)
        target = np.zeros(4000)
        target[rng.choice(4000, size=50, replace=False)] = 100.0
        evidence = CorrelationDetector(min_support=10).analyze(
            trigger, target, 50.0)
        assert 0.25 < evidence.necessary_condition_score < 0.75
        planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1)
        assert planner.plan([
            TaskProfile(task_id="noise", values=trigger, threshold=10.0,
                        cost_per_sample=1.0),
            TaskProfile(task_id="target", values=target, threshold=50.0,
                        cost_per_sample=40.0),
        ]) == []

    def test_lag_window_catches_leading_trigger(self, rng):
        n = 2000
        trigger = rng.normal(1.0, 0.1, n)
        target = np.zeros(n)
        for s in (300, 900, 1500):
            trigger[s:s + 10] = 100.0
            target[s + 12:s + 22] = 100.0  # violates after trigger cooled
        strict = CorrelationDetector(min_support=5, lag_window=0)
        lagged = CorrelationDetector(min_support=5, lag_window=15)
        s0 = strict.analyze(trigger, target, 50.0)
        s1 = lagged.analyze(trigger, target, 50.0)
        assert s1.necessary_condition_score > s0.necessary_condition_score
        # The level reads the trigger through the same window.
        assert s1.necessary_condition_score == 1.0
        assert s1.elevation_level > 40.0 > s0.elevation_level

    def test_a_target_that_always_violates_has_nothing_to_guard(self):
        with pytest.raises(CorrelationError, match="every step"):
            CorrelationDetector().analyze(np.arange(20.0),
                                          np.full(20, 9.0), 1.0)

    def test_insufficient_support(self, rng):
        trigger = rng.normal(0.0, 1.0, 100)
        target = np.zeros(100)
        target[5] = 10.0
        detector = CorrelationDetector(min_support=10)
        with pytest.raises(CorrelationError):
            detector.analyze(trigger, target, 5.0)

    def test_misaligned_histories(self):
        detector = CorrelationDetector()
        with pytest.raises(CorrelationError):
            detector.analyze(np.zeros(10), np.zeros(11), 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(min_support=0),
        dict(lag_window=-1),
        dict(min_support=-1),
        dict(min_support=0, lag_window=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CorrelationDetector(**kwargs)


class TestCorrelationPlanner:
    def test_plans_cheap_trigger_for_expensive_target(self, rng):
        trigger, target = correlated_pair(rng)
        tasks = [
            TaskProfile(task_id="response-time", values=trigger,
                        threshold=35.0, cost_per_sample=1.0),
            TaskProfile(task_id="ddos", values=target, threshold=50.0,
                        cost_per_sample=50.0),
        ]
        planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1)
        rules = planner.plan(tasks)
        assert len(rules) == 1
        rule = rules[0]
        assert rule.target_id == "ddos"
        assert rule.trigger_id == "response-time"
        assert rule.expected_saving > 0.0
        assert rule.estimated_loss <= 0.1

    def test_rules_sharing_a_trigger_share_its_lower_level(self, rng):
        """One cheap trigger guards two expensive targets whose incidents
        elevate it differently (to ~40 and ~90). A trigger carries one
        watch, hence one level: both rules carry the lower one, each
        re-scored at it."""
        n = 6000
        trigger = 10.0 + rng.normal(0.0, 0.5, n)
        mild = 5.0 + rng.normal(0.0, 0.5, n)
        severe = 5.0 + rng.normal(0.0, 0.5, n)
        for s in range(200, n - 700, 1200):
            trigger[s:s + 60] += 30.0
            mild[s + 5:s + 55] += 100.0
            trigger[s + 600:s + 660] += 80.0
            severe[s + 605:s + 655] += 100.0
        tasks = [
            TaskProfile(task_id="trigger", values=trigger, threshold=1e9,
                        cost_per_sample=1.0),
            TaskProfile(task_id="mild", values=mild, threshold=50.0,
                        cost_per_sample=40.0),
            TaskProfile(task_id="severe", values=severe, threshold=50.0,
                        cost_per_sample=30.0),
        ]
        detector = CorrelationDetector()
        own = {task.task_id: detector.analyze(trigger, task.values, 50.0)
               for task in tasks[1:]}
        assert (own["mild"].elevation_level
                < own["severe"].elevation_level)
        # The severe target's own level misses every mild incident.
        assert detector.analyze(
            trigger, mild, 50.0, level=own["severe"].elevation_level
        ).necessary_condition_score == 0.0
        rules = CorrelationPlanner(min_score=0.9, loss_budget=0.1).plan(tasks)
        assert sorted((r.target_id, r.trigger_id) for r in rules) == [
            ("mild", "trigger"), ("severe", "trigger")]
        for rule in rules:
            assert (rule.elevation_level == rule.evidence.elevation_level
                    == own["mild"].elevation_level)
            assert rule.evidence.necessary_condition_score >= 0.9
            assert rule.estimated_loss == \
                1.0 - rule.evidence.necessary_condition_score
        severe_rule = next(r for r in rules if r.target_id == "severe")
        assert (severe_rule.evidence.elevated_fraction
                > own["severe"].elevated_fraction)

    def test_no_rule_for_uncorrelated_tasks(self, rng):
        tasks = [
            TaskProfile(task_id="a", values=rng.normal(0, 1, 2000),
                        threshold=3.0, cost_per_sample=1.0),
            TaskProfile(task_id="b",
                        values=np.where(rng.random(2000) < 0.02, 10.0, 0.0),
                        threshold=5.0, cost_per_sample=10.0),
        ]
        planner = CorrelationPlanner(min_score=0.95)
        assert planner.plan(tasks) == []

    def test_trigger_must_be_cheaper(self, rng):
        trigger, target = correlated_pair(rng)
        tasks = [
            TaskProfile(task_id="t", values=trigger, threshold=35.0,
                        cost_per_sample=50.0),
            TaskProfile(task_id="g", values=target, threshold=50.0,
                        cost_per_sample=50.0),
        ]
        assert CorrelationPlanner(min_score=0.9).plan(tasks) == []

    @pytest.mark.parametrize("kwargs", [
        dict(min_score=0.0),
        dict(min_score=1.5),
        dict(loss_budget=-0.1),
        dict(suspend_interval=1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            CorrelationPlanner(**kwargs)
