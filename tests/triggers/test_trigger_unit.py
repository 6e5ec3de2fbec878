"""Unit tests for the trigger channel pieces (``repro.triggers``).

Plan validation, watcher debounce edges, and the service-level remote
guard — including the full-rate resume contract: a disarm->arm edge
makes the guarded task due *immediately* at the default interval, it
does not wait out the parked suspend schedule or keep the stale grown
interval the healthy stream had earned.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.correlation import CorrelationEvidence, TriggerRule
from repro.core.task import TaskSpec
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.triggers import TriggerPlan, TriggerWatcher


def task(threshold=100.0, err=0.01, max_interval=10):
    return TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=max_interval)


class TestTriggerPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TriggerPlan(target="a", trigger="a", elevation_level=1.0)
        with pytest.raises(ConfigurationError):
            TriggerPlan(target="a", trigger="b", elevation_level=1.0,
                        suspend_interval=1)
        with pytest.raises(ConfigurationError):
            TriggerPlan(target="a", trigger="b", elevation_level=1.0,
                        hysteresis=1.0)
        with pytest.raises(ConfigurationError):
            TriggerPlan(target="a", trigger="b", elevation_level=1.0,
                        min_hold=-1)

    def test_from_dict_rejects_unknown_keys(self):
        plan = TriggerPlan(target="a", trigger="b", elevation_level=2.0)
        with pytest.raises(ConfigurationError):
            TriggerPlan.from_dict({**plan.to_dict(), "bogus": 1})

    def test_from_rule_stamps_channel_params(self):
        evidence = CorrelationEvidence(
            pearson=0.9, necessary_condition_score=0.97,
            elevation_level=55.0, elevated_fraction=0.2, support=40)
        rule = TriggerRule(target_id="dpi", trigger_id="conns",
                           elevation_level=55.0, evidence=evidence,
                           expected_saving=0.7, estimated_loss=0.03)
        plan = TriggerPlan.from_rule(rule, suspend_interval=12,
                                     hysteresis=0.2, min_hold=3)
        assert plan.target == "dpi" and plan.trigger == "conns"
        assert plan.elevation_level == 55.0
        assert plan.suspend_interval == 12
        assert plan.hysteresis == 0.2 and plan.min_hold == 3


class TestWatcher:
    def test_disarm_level_sides(self):
        up = TriggerWatcher(100.0, hysteresis=0.1)
        assert up.disarm_level == pytest.approx(90.0)
        down = TriggerWatcher(-100.0, hysteresis=0.1)
        assert down.disarm_level == pytest.approx(-110.0)

    def test_starts_armed_and_needs_band_exit_to_disarm(self):
        watcher = TriggerWatcher(100.0, hysteresis=0.1, min_hold=0)
        assert watcher.armed
        assert watcher.observe(95.0, 0) is None  # inside the band
        assert watcher.observe(89.0, 1) == "disarm"
        assert watcher.observe(99.0, 2) is None  # below the arm level
        assert watcher.observe(100.0, 3) == "arm"  # boundary arms

    def test_min_hold_suppresses_flapping(self):
        watcher = TriggerWatcher(100.0, hysteresis=0.1, min_hold=5)
        assert watcher.observe(10.0, 0) == "disarm"
        assert watcher.observe(150.0, 2) is None  # held
        assert watcher.observe(150.0, 5) == "arm"


class TestServiceChannel:
    def _guarded(self, suspend=8):
        service = MonitoringService()
        service.add_task("costly", task(err=0.0))
        service.install_trigger_plan(TriggerPlan(
            target="costly", trigger="conns", elevation_level=40.0,
            suspend_interval=suspend, min_hold=0))
        return service

    def test_remote_trigger_needs_no_local_trigger_task(self):
        service = self._guarded()
        status = service.trigger_status("costly")
        assert status["trigger"] == "conns"
        assert status["armed"] is True
        assert "watch" not in status

    def test_disarmed_guard_idles_at_suspend_interval(self):
        service = self._guarded(suspend=8)
        service.offer("costly", 1.0, 0)
        assert service.next_due("costly") == 1
        assert service.set_trigger_armed("costly", False) is True
        service.offer("costly", 1.0, 1)
        assert service.next_due("costly") == 9
        assert service.trigger_suspensions("costly") == 1
        assert service.trigger_accounting() == (1, 7.0)

    def test_rearm_resumes_full_rate_immediately(self):
        service = self._guarded(suspend=8)
        service.offer("costly", 1.0, 0)
        service.set_trigger_armed("costly", False)
        service.offer("costly", 1.0, 1)  # parks next_due at step 9
        service.set_trigger_armed("costly", True)
        # The arm edge must not wait out the parked schedule: the guard
        # is due at the very next offer.
        assert service.due("costly", 2)
        decision = service.offer("costly", 1.0, 2)
        assert decision is not None
        assert decision.next_interval == 1

    def test_set_armed_requires_a_guard(self):
        service = MonitoringService()
        service.add_task("plain", task())
        with pytest.raises(ConfigurationError):
            service.set_trigger_armed("plain", True)

    def test_reinstall_preserves_armed_state(self):
        service = self._guarded()
        service.set_trigger_armed("costly", False)
        service.install_trigger_plan(TriggerPlan(
            target="costly", trigger="conns", elevation_level=40.0,
            suspend_interval=8, min_hold=0))
        assert service.trigger_status("costly")["armed"] is False

    def test_watch_edges_reach_the_sink(self):
        """A service keeps no edges: each goes to the sink attached when
        it fires, or, with none, no further than the service's own
        guards."""
        service = MonitoringService()
        service.add_task("conns", task(threshold=200.0))
        service.add_trigger_watch("conns", 40.0, min_hold=0)
        service.offer("conns", 10.0, 0)  # below the band -> disarm
        seen: list[dict] = []
        service.set_trigger_sink(seen.append)
        service.offer("conns", 80.0, 1)  # above the level -> arm
        service.offer("conns", 10.0, 2)
        assert seen == [
            {"op": "arm", "trigger": "conns", "step": 1, "value": 80.0},
            {"op": "disarm", "trigger": "conns", "step": 2, "value": 10.0}]
        assert not hasattr(service, "drain_trigger_events")


@pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
class TestLocalPair:
    """``add_trigger`` is the channel's gate with both halves on one
    service, which routes its own edges — no sink, no router. The gate it
    replaced read the trigger only when the *target* next consumed a
    sample, so a parked target stayed parked for up to ``suspend_interval
    - 1`` steps after its trigger went hot."""

    LEVEL, SUSPEND = 25.0, 10

    def _pair(self, soa):
        service = MonitoringService(soa=soa)
        service.add_task("cheap", task(threshold=1e9))
        service.add_task("costly", task())
        service.add_trigger("costly", "cheap", self.LEVEL, self.SUSPEND)
        return service

    def test_a_parked_target_is_due_the_offer_after_the_trigger_goes_hot(
            self, soa):
        service = self._pair(soa)
        edges: list[dict] = []
        service.set_trigger_sink(edges.append)
        for step in range(3):
            service.offer("cheap", 10.0, step)
            service.offer("costly", 50.0, step)
        assert service.next_due("costly") == self.SUSPEND   # parked
        assert service.trigger_status("costly") == {
            "trigger": "cheap", "armed": False,
            "suspend_interval": self.SUSPEND, "suspensions": 1}
        service.offer("cheap", self.LEVEL, 3)    # the first offer >= level
        assert service.due("costly", 3)
        # A violation inside what was the parked window is seen.
        assert service.offer("costly", 120.0, 3).violation
        assert [a.time_index for a in service.alerts("costly")] == [3]
        assert edges == [
            {"op": "disarm", "trigger": "cheap", "step": 0, "value": 10.0},
            {"op": "arm", "trigger": "cheap", "step": 3,
             "value": self.LEVEL}]

    def test_no_violation_hides_in_the_parked_window(self, soa):
        """The trigger leads each 3-11 step violation by 2 steps: every
        violating point is sampled (the last-seen gate missed 37 % of
        them, and one incident in six whole, on this stream)."""
        rng = np.random.default_rng(1)
        steps = 20_000
        target = rng.normal(50.0, 3.0, steps)
        trigger = rng.normal(10.0, 2.0, steps)
        points, at = [], 200
        while at < steps - 50:
            length = int(rng.integers(3, 12))
            points += range(at, at + length)
            target[at:at + length] = rng.normal(120.0, 3.0, length)
            trigger[at - 2:at + length] = rng.normal(40.0, 2.0, length + 2)
            at += length + int(rng.integers(150, 400))
        service = self._pair(soa)
        if soa:     # column frames of 50 steps, trigger before target
            rows = [service.soa_row_for(name)
                    for name in ("cheap", "costly")] * 50
            for lo in range(0, steps, 50):
                applied, *_ = service.offer_columns(
                    rows, np.repeat(np.arange(lo, lo + 50), 2),
                    np.column_stack([trigger[lo:lo + 50],
                                     target[lo:lo + 50]]).ravel())
                assert applied == 100
        else:
            for step in range(steps):
                service.offer("cheap", float(trigger[step]), step)
                service.offer("costly", float(target[step]), step)
        seen = {alert.time_index for alert in service.alerts("costly")}
        missed = [step for step in points if step not in seen]
        assert len(points) > 400 and missed == []
        # ... and the gate still saves most of the target's samples.
        assert service.samples_taken("costly") < steps // 5
        assert service.trigger_suspensions("costly") > 1_000


class TestSamplerResume:
    def test_resume_full_rate_resets_grown_interval(self):
        sampler = ViolationLikelihoodSampler(
            task(err=0.5, max_interval=6),
            AdaptationConfig(patience=1, min_samples=2))
        step = 0
        for _ in range(12):
            decision = sampler.observe(0.0, step)
            step += decision.next_interval
        assert sampler.interval > 1
        grow_events = sampler.grow_events
        reset_events = sampler.reset_events
        sampler.resume_full_rate()
        assert sampler.interval == 1
        # An external scheduling decision, not an adaptation event.
        assert sampler.grow_events == grow_events
        assert sampler.reset_events == reset_events
        assert sampler.observe(0.0, step).next_interval >= 1
