"""Tests for the streaming monitoring service facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.triggers.plan import TriggerPlan


def task(threshold=100.0, err=0.01):
    return TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=10)


class TestRegistration:
    def test_add_and_list(self):
        service = MonitoringService()
        service.add_task("a", task())
        service.add_task("b", task())
        assert service.task_names == ["a", "b"]

    def test_duplicate_rejected(self):
        service = MonitoringService()
        service.add_task("a", task())
        with pytest.raises(ConfigurationError):
            service.add_task("a", task())

    def test_unknown_task_rejected(self):
        service = MonitoringService()
        with pytest.raises(ConfigurationError):
            service.due("ghost", 0)
        with pytest.raises(ConfigurationError):
            service.offer("ghost", 1.0, 0)

    def test_bad_window(self):
        service = MonitoringService()
        with pytest.raises(ConfigurationError):
            service.add_task("a", task(), window=0)


class TestScheduling:
    def test_due_and_next_due(self):
        service = MonitoringService()
        service.add_task("a", task(err=0.0))
        assert service.due("a", 0)
        service.offer("a", 1.0, 0)
        assert service.next_due("a") == 1
        assert not service.due("a", 0)
        assert service.due("a", 1)

    def test_offer_before_due_is_ignored(self):
        service = MonitoringService()
        service.add_task("a", task(err=0.05),
                         config=AdaptationConfig(patience=3, min_samples=5))
        # Warm the sampler until the interval grows.
        step = 0
        for _ in range(200):
            if service.due("a", step):
                service.offer("a", 1.0, step)
            step += 1
        assert service.interval("a") > 1
        before = service.samples_taken("a")
        result = service.offer("a", 1.0, service.next_due("a") - 1)
        assert result is None
        assert service.samples_taken("a") == before

    def test_adaptive_schedule_saves_samples(self):
        service = MonitoringService(AdaptationConfig(patience=3,
                                                     min_samples=5))
        service.add_task("a", task(err=0.05))
        taken = 0
        for step in range(2000):
            if service.due("a", step):
                service.offer("a", 1.0, step)
                taken += 1
        assert taken < 1000
        assert service.samples_taken("a") == taken


class TestAlerts:
    def test_alert_callback_fires(self):
        fired = []
        service = MonitoringService()
        service.add_task("a", task(threshold=10.0, err=0.0),
                         on_alert=fired.append)
        service.offer("a", 5.0, 0)
        service.offer("a", 15.0, 1)
        assert len(fired) == 1
        assert fired[0].time_index == 1
        assert fired[0].value == 15.0
        assert service.alerts("a") == fired

    def test_windowed_task_alerts_on_aggregate(self):
        service = MonitoringService()
        service.add_task("w", task(threshold=10.0, err=0.0), window=4,
                         window_kind=AggregateKind.MEAN)
        # Single spike of 24 at step 2: window mean peaks at 24/3 = 8.
        values = [0.0, 0.0, 24.0, 0.0, 0.0, 0.0]
        for step, v in enumerate(values):
            service.offer("w", v, step)
        assert service.alerts("w") == []
        # Sustained values of 12: the mean crosses 10 within the window.
        for step, v in enumerate([12.0] * 6, start=len(values)):
            service.offer("w", v, step)
        assert len(service.alerts("w")) >= 1

    def test_windowed_max_kind(self):
        service = MonitoringService()
        service.add_task("m", task(threshold=10.0, err=0.0), window=3,
                         window_kind=AggregateKind.MAX)
        service.offer("m", 20.0, 0)
        service.offer("m", 0.0, 1)
        # Max over the trailing window still sees the old spike.
        assert len(service.alerts("m")) == 2


class TestTriggers:
    def test_trigger_suspends_target(self):
        service = MonitoringService(AdaptationConfig(patience=3,
                                                     min_samples=5))
        service.add_task("cheap", task(threshold=50.0, err=0.0))
        service.add_task("costly", task(threshold=100.0, err=0.0))
        service.add_trigger("costly", trigger="cheap",
                            elevation_level=40.0, suspend_interval=10)

        # Cold trigger: the costly task idles at the suspend interval.
        service.offer("cheap", 5.0, 0)
        service.offer("costly", 1.0, 0)
        assert service.next_due("costly") == 10

        # Hot trigger: full-rate sampling resumes.
        service.offer("cheap", 90.0, 10)
        service.offer("costly", 1.0, 10)
        assert service.next_due("costly") == 11

    def test_trigger_requires_registered_tasks(self):
        service = MonitoringService()
        service.add_task("a", task())
        with pytest.raises(ConfigurationError):
            service.add_trigger("a", trigger="missing", elevation_level=1.0)
        with pytest.raises(ConfigurationError):
            service.add_trigger("missing", trigger="a", elevation_level=1.0)

    def test_bad_suspend_interval(self):
        service = MonitoringService()
        service.add_task("a", task())
        service.add_task("b", task())
        with pytest.raises(ConfigurationError):
            service.add_trigger("a", "b", 1.0, suspend_interval=0)


class TestOneTargetOneGate:
    """There is one kind of gate — a guard on the target, a watch on the
    trigger — so installing it the other way is a re-target, not a second
    gate; what is refused, before anything is written, is a second
    *level* on a trigger whose watch other tasks are guarded on."""

    PLAN = TriggerPlan(target="costly", trigger="far", elevation_level=95.0,
                       suspend_interval=5)

    @staticmethod
    def make(soa):
        service = MonitoringService(AdaptationConfig(patience=3,
                                                     min_samples=5), soa=soa)
        for name in ("cheap", "costly", "far"):
            service.add_task(name, task(threshold=100.0, err=0.0))
        return service

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_gate_installed_the_other_way_is_a_re_target(self, soa):
        service = self.make(soa)
        service.add_trigger("costly", "cheap", elevation_level=50.0,
                            suspend_interval=10)
        assert service.trigger_status("costly") == {
            "trigger": "cheap", "armed": True, "suspend_interval": 10,
            "suspensions": 0}
        # The pair reads its own level: hot at 60, cold at 40.
        service.offer("cheap", 60.0, 0)
        service.offer("costly", 1.0, 0)
        assert service.next_due("costly") == 1
        service.offer("cheap", 40.0, 1)
        service.offer("costly", 1.0, 1)
        assert service.next_due("costly") == 11
        assert not service.trigger_status("costly")["armed"]
        # A plan on another trigger re-targets the guard, armed; the
        # watch on the old trigger outlives it and moves nobody.
        service.install_trigger_plan(self.PLAN)
        assert service.trigger_status("costly") == {
            "trigger": "far", "armed": True, "suspend_interval": 5,
            "suspensions": 1}
        assert service.trigger_status("cheap")["watch"]["level"] == 50.0
        service.offer("cheap", 60.0, 2)
        service.offer("far", 10.0, 2)
        assert not service.trigger_status("costly")["armed"]
        # And back.
        service.add_trigger("costly", "cheap", elevation_level=50.0,
                            suspend_interval=10)
        assert service.trigger_status("costly")["trigger"] == "cheap"
        assert service.trigger_status("costly")["armed"]

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_local_gate_over_a_channel_guard_is_refused(self, soa):
        """... at another level than the one the guard's trigger is
        watched at: a trigger task carries one watch, hence one level."""
        service = self.make(soa)
        service.install_trigger_plan(self.PLAN)     # costly <- far @ 95
        service.set_trigger_armed("costly", False)
        before = service.snapshot()
        with pytest.raises(ConfigurationError, match="one level"):
            service.add_trigger("cheap", "far", elevation_level=50.0,
                                suspend_interval=10)
        assert service.snapshot() == before
        assert service.trigger_status("cheap") == {}
        if soa:
            assert service.soa_engine.active[:3].all()
        # An equal level shares the watch — at hysteresis 0 / hold 0 —
        # and re-levelling the one task guarded on it is its own affair.
        service.add_trigger("cheap", "far", elevation_level=95.0)
        assert service.trigger_status("far")["watch"]["hysteresis"] == 0.0
        service.remove_task("cheap")
        service.add_trigger("costly", "far", elevation_level=50.0,
                            suspend_interval=5)
        assert service.trigger_status("far")["watch"]["level"] == 50.0
        # Re-installing the guard the task carries stays idempotent.
        assert service.trigger_status("costly")["armed"] is False
        snapshot = service.snapshot()
        assert (snapshot["names"][0], snapshot["task"]["trigger_level"][0],
                snapshot["task"]["suspend_interval"][0]) == (
            "costly", 50.0, 5)


class TestTriggerEdgeCases:
    def make_gated(self, suspend_interval=10, err=0.0):
        service = MonitoringService(AdaptationConfig(patience=3,
                                                     min_samples=5))
        service.add_task("cheap", task(threshold=50.0, err=0.0))
        service.add_task("costly", task(threshold=100.0, err=err))
        service.add_trigger("costly", trigger="cheap",
                            elevation_level=40.0,
                            suspend_interval=suspend_interval)
        return service

    def test_trigger_registered_but_never_offered(self):
        """With no last-seen trigger value the target runs at full rate:
        an unobserved trigger must fail open, not suspend the target."""
        service = self.make_gated()
        service.offer("costly", 1.0, 0)
        assert service.next_due("costly") == 1

    def test_trigger_value_exactly_at_elevation_level(self):
        """The suspend condition is strictly-below: a trigger sitting
        exactly at the elevation level counts as elevated (hot)."""
        service = self.make_gated()
        service.offer("cheap", 40.0, 0)
        service.offer("costly", 1.0, 0)
        assert service.next_due("costly") == 1
        # Epsilon below the level suspends.
        service.offer("cheap", 39.999, 1)
        service.offer("costly", 1.0, 1)
        assert service.next_due("costly") == 1 + 10

    def test_adaptive_interval_larger_than_suspend_interval_wins(self):
        """Suspension is max(adaptive, suspend): when the sampler itself
        already wants a longer interval than the suspend interval, a cold
        trigger must not *shorten* the schedule."""
        service = self.make_gated(suspend_interval=2, err=0.05)
        # Warm the costly task until its own interval exceeds 2.
        step = 0
        while service.interval("costly") <= 2:
            if service.due("costly", step):
                service.offer("costly", 1.0, step)
            step += 1
            assert step < 5000, "sampler never grew past the suspend interval"
        adaptive = service.interval("costly")
        assert adaptive > 2
        # Cold trigger, then a consumed sample: next_due advances by the
        # adaptive interval, not the (smaller) suspend interval.
        service.offer("cheap", 5.0, step)
        due = service.next_due("costly")
        service.offer("costly", 1.0, due)
        assert service.next_due("costly") - due >= adaptive


class TestRemoveTask:
    def test_remove_and_reregister(self):
        service = MonitoringService()
        service.add_task("a", task())
        service.offer("a", 1.0, 0)
        service.remove_task("a")
        assert service.task_names == []
        with pytest.raises(ConfigurationError):
            service.due("a", 0)
        # The name is free for a fresh registration with clean state.
        service.add_task("a", task())
        assert service.samples_taken("a") == 0

    def test_remove_unknown_rejected(self):
        service = MonitoringService()
        with pytest.raises(ConfigurationError):
            service.remove_task("ghost")

    def test_remove_clears_dangling_trigger_on_dependents(self):
        service = MonitoringService()
        service.add_task("cheap", task(threshold=50.0, err=0.0))
        service.add_task("costly", task(threshold=100.0, err=0.0))
        service.add_trigger("costly", trigger="cheap",
                            elevation_level=40.0, suspend_interval=10)
        # Cold trigger state is in force...
        service.offer("cheap", 5.0, 0)
        service.remove_task("cheap")
        # ...but removal de-gates the dependent: full-rate scheduling.
        service.offer("costly", 1.0, 1)
        assert service.next_due("costly") == 2

    def test_remove_clears_a_guard_on_a_trigger_elsewhere_too(self):
        service = MonitoringService()
        service.add_task("a", task())
        service.add_remote_trigger("a", "far", 1.0)
        service.remove_task("a")
        assert service._guards == {}
        service.add_task("a", task())
        assert service.trigger_status("a") == {}


class TestWindowedAggregateBuffer:
    def test_buffer_is_pruned_to_window(self):
        service = MonitoringService()
        service.add_task("w", task(threshold=1e9, err=0.0), window=4)
        state = service._state("w")
        for step in range(100):
            service.offer("w", float(step), step)
        assert len(state._window_values) <= 4

    def test_sparse_offers_prune_stale_entries(self):
        service = MonitoringService()
        service.add_task("w", task(threshold=1e9, err=0.0), window=3)
        state = service._state("w")
        assert state.aggregate(0, 30.0) == 30.0
        # A gap larger than the window evicts everything old.
        assert state.aggregate(10, 6.0) == 6.0
        assert list(state._window_values) == [(10, 6.0)]

    def test_running_sum_tracks_evictions(self):
        service = MonitoringService()
        service.add_task("w", task(threshold=1e9, err=0.0), window=2,
                         window_kind=AggregateKind.SUM)
        state = service._state("w")
        assert state.aggregate(0, 1.0) == 1.0
        assert state.aggregate(1, 2.0) == 3.0
        assert state.aggregate(2, 4.0) == 6.0
        assert state.aggregate(3, 8.0) == 12.0


class TestEndToEndStream:
    def test_matches_runner_semantics(self, bursty_trace):
        """Streaming through the service equals the trace runner."""
        from repro.experiments.runner import run_adaptive

        spec = task(threshold=100.0, err=0.01)
        reference = run_adaptive(bursty_trace, spec)

        service = MonitoringService()
        service.add_task("t", spec)
        sampled = []
        for step, value in enumerate(bursty_trace):
            if service.due("t", step):
                service.offer("t", float(value), step)
                sampled.append(step)
        assert sampled == reference.sampled_indices.tolist()
