"""Hypothesis properties for the live trigger channel (``repro.triggers``).

Four contracts pinned here keep the online machinery honest against its
batch counterparts and against itself:

* the :class:`~repro.triggers.miner.CorrelationMiner`'s evidence and
  first plan equal what the batch
  :class:`~repro.core.correlation.CorrelationDetector` /
  :class:`~repro.core.correlation.CorrelationPlanner` produce on the same
  aligned tails (the miner never re-implements scoring);
* every planned rule respects the accuracy-loss budget and the
  cheaper-guards-costlier invariant;
* the :class:`~repro.triggers.channel.TriggerWatcher` cannot oscillate —
  at most one transition on any constant stream, ``min_hold`` spacing on
  any stream at all, and bit-identical continuation across a
  ``state_dict`` round-trip;
* the gate is one: a local ``add_trigger`` pair is the plan of the same
  pair at hysteresis 0 / hold 0, on every observable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig
from repro.core.correlation import CorrelationDetector, CorrelationPlanner
from repro.core.task import TaskSpec
from repro.exceptions import CorrelationError
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService
from repro.triggers import CorrelationMiner, TriggerPlan, TriggerWatcher

_THRESHOLD = 50.0

levels_st = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
values_st = st.lists(st.floats(min_value=-200.0, max_value=200.0,
                               allow_nan=False),
                     min_size=1, max_size=200)


def _streams(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A correlated (trigger, target) pair with plenty of violations."""
    rng = np.random.default_rng(seed)
    trig = rng.uniform(0.0, 100.0, n)
    targ = trig + rng.normal(0.0, 15.0, n)
    return trig, targ


class TestMinerMatchesBatch:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=2, max_value=300),
           window=st.integers(min_value=2, max_value=128))
    @settings(max_examples=80, deadline=None)
    def test_evidence_equals_batch_detector_on_tails(self, seed, n, window):
        trig, targ = _streams(seed, n)
        detector = CorrelationDetector(min_support=5)
        miner = CorrelationMiner(window=window, detector=detector)
        miner.add_task("trig", _THRESHOLD, cost=0.1)
        miner.add_task("targ", _THRESHOLD, cost=1.0)
        for a, b in zip(trig, targ):
            miner.observe("trig", float(a))
            miner.observe("targ", float(b))

        tail = min(n, window)
        try:
            expected = detector.analyze(trig[-tail:], targ[-tail:],
                                        _THRESHOLD)
        except CorrelationError:
            with pytest.raises(CorrelationError):
                miner.evidence("trig", "targ")
            return
        assert miner.evidence("trig", "targ") == expected

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=30, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_first_plan_equals_batch_planner(self, seed, n):
        trig, targ = _streams(seed, n)
        detector = CorrelationDetector(min_support=5)
        miner = CorrelationMiner(window=512, min_score=0.6,
                                 loss_budget=0.4, detector=detector)
        miner.add_task("trig", _THRESHOLD, cost=0.1)
        miner.add_task("targ", _THRESHOLD, cost=1.0)
        for a, b in zip(trig, targ):
            miner.observe("trig", float(a))
            miner.observe("targ", float(b))

        planner = CorrelationPlanner(min_score=0.6, loss_budget=0.4,
                                     detector=detector)
        expected = sorted(planner.plan(miner.profiles()),
                          key=lambda r: r.target_id)
        assert miner.plan() == expected


class TestPlannerBudget:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=30, max_value=200),
           min_score=st.floats(min_value=0.3, max_value=1.0,
                               allow_nan=False),
           loss_budget=st.floats(min_value=0.0, max_value=0.5,
                                 allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_mined_rules_respect_budget(self, seed, n, min_score,
                                        loss_budget):
        trig, targ = _streams(seed, n)
        rng = np.random.default_rng(seed + 1)
        other = rng.uniform(0.0, 100.0, n)
        detector = CorrelationDetector(min_support=5)
        miner = CorrelationMiner(window=512, min_score=min_score,
                                 loss_budget=loss_budget, detector=detector)
        costs = {"trig": 0.1, "targ": 1.0, "other": 0.5}
        miner.add_task("trig", _THRESHOLD, cost=costs["trig"])
        miner.add_task("targ", _THRESHOLD, cost=costs["targ"])
        miner.add_task("other", _THRESHOLD, cost=costs["other"])
        for a, b, c in zip(trig, targ, other):
            miner.observe("trig", float(a))
            miner.observe("targ", float(b))
            miner.observe("other", float(c))

        rules = miner.plan()
        assert len({r.target_id for r in rules}) == len(rules)
        levels: dict[str, float] = {}
        for rule in rules:
            # One watch, one level: rules sharing a trigger share it.
            assert levels.setdefault(rule.trigger_id,
                                     rule.elevation_level) \
                == rule.elevation_level == rule.evidence.elevation_level
            assert rule.estimated_loss <= loss_budget
            assert rule.evidence.necessary_condition_score >= min_score
            assert costs[rule.trigger_id] < costs[rule.target_id]
            assert rule.expected_saving > 0.0


class TestWatcherStability:
    @given(level=levels_st,
           hysteresis=st.floats(min_value=0.0, max_value=0.99,
                                allow_nan=False),
           min_hold=st.integers(min_value=0, max_value=20),
           armed=st.booleans(),
           value=st.floats(min_value=-200.0, max_value=200.0,
                           allow_nan=False),
           n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=120, deadline=None)
    def test_constant_stream_transitions_at_most_once(self, level,
                                                      hysteresis, min_hold,
                                                      armed, value, n):
        watcher = TriggerWatcher(level, hysteresis=hysteresis,
                                 min_hold=min_hold, armed=armed)
        edges = [edge for step in range(n)
                 if (edge := watcher.observe(value, step)) is not None]
        assert len(edges) <= 1

    @given(values=values_st, level=levels_st,
           hysteresis=st.floats(min_value=0.0, max_value=0.99,
                                allow_nan=False),
           min_hold=st.integers(min_value=1, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_min_hold_spaces_all_transitions(self, values, level,
                                             hysteresis, min_hold):
        watcher = TriggerWatcher(level, hysteresis=hysteresis,
                                 min_hold=min_hold)
        edge_steps = [step for step, value in enumerate(values)
                      if watcher.observe(value, step) is not None]
        for earlier, later in zip(edge_steps, edge_steps[1:]):
            assert later - earlier >= min_hold

    @given(values=values_st, level=levels_st,
           min_hold=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_state_roundtrip_continues_bit_identically(self, values, level,
                                                       min_hold):
        whole = TriggerWatcher(level, min_hold=min_hold)
        resumed = TriggerWatcher(level, min_hold=min_hold)
        half = len(values) // 2
        expected = [whole.observe(v, i) for i, v in enumerate(values)]
        got = [resumed.observe(v, i) for i, v in enumerate(values[:half])]
        resumed = TriggerWatcher.from_state_dict(resumed.state_dict())
        got += [resumed.observe(v, half + i)
                for i, v in enumerate(values[half:])]
        assert got == expected
        assert resumed.state_dict() == whole.state_dict()


class TestPlanRoundtrip:
    @given(level=levels_st,
           suspend=st.integers(min_value=2, max_value=50),
           hysteresis=st.floats(min_value=0.0, max_value=0.99,
                                allow_nan=False),
           min_hold=st.integers(min_value=0, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_identity(self, level, suspend, hysteresis,
                                        min_hold):
        plan = TriggerPlan(target="web.p99", trigger="lb.conns",
                           elevation_level=level,
                           suspend_interval=suspend,
                           hysteresis=hysteresis, min_hold=min_hold)
        assert TriggerPlan.from_dict(plan.to_dict()) == plan


class TestLocalPairIsAPlan:
    """One gate: ``add_trigger`` is ``install_trigger_plan`` of the pair
    at hysteresis 0 / hold 0 — on every observable, for any stream and
    any interleaving of the offers with the install, scalar and on rows,
    with the edges handed to a sink or to nobody."""

    @given(level=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
           suspend=st.integers(min_value=2, max_value=12),
           install_at=st.integers(min_value=0, max_value=60),
           offers=st.lists(
               st.tuples(st.sampled_from(["cheap", "costly", "other"]),
                         st.floats(min_value=0.0, max_value=150.0,
                                   allow_nan=False),
                         st.integers(min_value=0, max_value=3)),   # gap
               min_size=1, max_size=120),
           soa=st.booleans(), sink=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_add_trigger_equals_the_plan_at_hysteresis_0_hold_0(
            self, level, suspend, install_at, offers, soa, sink):
        def drive(install):
            service = MonitoringService(
                AdaptationConfig(patience=2, min_samples=3), soa=soa)
            for name in ("cheap", "costly", "other"):
                service.add_task(name, TaskSpec(
                    threshold=100.0, error_allowance=0.05, max_interval=8,
                    name=name))
            handed = []
            if sink:
                service.set_trigger_sink(handed.append)
            step = 0
            for at, (name, value, gap) in enumerate(offers):
                if at == install_at:
                    install(service)
                step += gap
                try:
                    service.offer(name, value, step)
                except ValueError:      # a step the task has seen
                    pass
            if install_at >= len(offers):
                install(service)
            return (state_fingerprint(service.snapshot()), {
                name: (service.samples_taken(name), service.interval(name),
                       service.next_due(name), service.observations(name),
                       service.alert_count(name), service.alerts(name),
                       service.trigger_status(name))
                for name in service.task_names},
                handed, service.trigger_accounting())

        pair = drive(lambda service: service.add_trigger(
            "costly", "cheap", level, suspend))
        plan = drive(lambda service: service.install_trigger_plan(
            TriggerPlan("costly", "cheap", level, suspend,
                        hysteresis=0.0, min_hold=0)))
        assert pair == plan
        assert pair[1]["costly"][-1]["trigger"] == "cheap"
        assert pair[1]["cheap"][-1]["watch"]["level"] == level
