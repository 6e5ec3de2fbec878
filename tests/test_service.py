"""Tests for the streaming monitoring service facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.soa import MAX_WINDOW
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.runtime.checkpoint import state_fingerprint
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
        before = state_fingerprint(service.snapshot())
        with pytest.raises(ConfigurationError, match="one level"):
            service.add_trigger("cheap", "far", elevation_level=50.0,
                                suspend_interval=10)
        assert state_fingerprint(service.snapshot()) == before
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

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_plan_over_a_channel_guard_is_refused(self, soa):
        """The refusal lives in ``install_trigger_plan``, so a plan is held
        to it like a local pair — whether its target is a task of this
        service or lives elsewhere (only the watch half is installed
        here). Re-levelling the watch would flip ``costly`` at 50."""
        service = self.make(soa)
        service.install_trigger_plan(self.PLAN)     # costly <- far @ 95
        before = state_fingerprint(service.snapshot())
        for target in ("cheap", "elsewhere"):
            with pytest.raises(ConfigurationError, match="one level"):
                service.install_trigger_plan(TriggerPlan(
                    target=target, trigger="far", elevation_level=50.0))
            assert state_fingerprint(service.snapshot()) == before
        service.install_trigger_plan(TriggerPlan(
            target="elsewhere", trigger="far", elevation_level=95.0))
        assert state_fingerprint(service.snapshot()) == before


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


def held(service, name):
    """What a windowed task's window holds, oldest first, as its
    snapshot writes it, and the last value its sampler read."""
    document = service.snapshot()
    at = document["names"].index(name)
    group = document["sparse"].get("window_values", {"task": []})
    where = list(group["task"]).index(at)
    start = sum(list(group["length"])[:where])
    stop = start + list(group["length"])[where]
    return (list(zip(list(group["step"])[start:stop],
                     list(group["value"])[start:stop])),
            document["sampler"]["last_value"][at])


class TestWindowedAggregateBuffer:
    """A window takes every offer stepped after its newest entry and
    holds the entries of ``(newest - window, newest]`` (DESIGN.md S17),
    on either representation."""

    def test_buffer_is_pruned_to_window(self):
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(threshold=1e9, err=0.0), window=4)
            for step in range(100):
                service.offer("w", float(step), step)
            assert held(service, "w") == ([(step, float(step)) for step
                                           in range(96, 100)], 97.5)

    def test_sparse_offers_prune_stale_entries(self):
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(threshold=1e9, err=0.0), window=3)
            service.offer("w", 30.0, 0)
            assert held(service, "w") == ([(0, 30.0)], 30.0)
            # A gap larger than the window evicts everything old.
            service.offer("w", 6.0, 10)
            assert held(service, "w") == ([(10, 6.0)], 6.0)

    def test_running_sum_tracks_evictions(self):
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(threshold=1e9, err=0.0), window=2,
                             window_kind=AggregateKind.SUM)
            for step, value, total in ((0, 1.0, 1.0), (1, 2.0, 3.0),
                                       (2, 4.0, 6.0), (3, 8.0, 12.0)):
                service.offer("w", value, step)
                assert held(service, "w")[1] == total

    def test_offers_that_are_not_due_enter_the_window(self):
        """A sample reads the whole window, the offers its schedule
        skipped included; a late offer does not enter it."""
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(threshold=1e9, err=0.0), window=4,
                             window_kind=AggregateKind.SUM)
            service.add_remote_trigger("w", "far", 1.0)
            service.set_trigger_armed("w", False)
            service.offer("w", 1.0, 0)
            for step in range(1, 4):
                assert service.offer("w", 2.0 ** step, step) is None
            service.set_trigger_armed("w", True)
            service.offer("w", 16.0, 4)
            assert held(service, "w") == ([(1, 2.0), (2, 4.0), (3, 8.0),
                                           (4, 16.0)], 30.0)
            assert service.offer("w", 99.0, 2) is None
            assert held(service, "w")[0][-1] == (4, 16.0)

    def test_windows_of_mixed_sizes_are_one_rule(self):
        """Windows of 2 to 4 096 steps side by side in one engine, many
        due in one tick: each read and each snapshot walks its own
        window, and both equal the scalar service's."""
        windows = (2, 4096, 3, 300, 4096, 2, 17, 1000)
        rng = np.random.default_rng(5)
        scalar, engine = MonitoringService(), MonitoringService(soa=True)
        for service in (scalar, engine):
            for i, window in enumerate(windows):
                service.add_task(f"w{i}", task(threshold=70.0, err=0.05),
                                 window=window,
                                 window_kind=list(AggregateKind)[i % 4])
        names = [f"w{i}" for i in range(len(windows))]
        rows = np.asarray([engine.soa_row_for(name) for name in names])
        step = 0
        for _ in range(600):
            step += int(rng.integers(1, 4))
            values = rng.normal(60.0, 8.0, len(names))
            for name, value in zip(names, values.tolist()):
                scalar.offer(name, value, step)
            engine.offer_columns(rows, np.full(len(names), step), values)
            if step % 50 < 3:
                assert state_fingerprint(engine.snapshot()) == (
                    state_fingerprint(scalar.snapshot()))
        assert state_fingerprint(engine.snapshot()) == (
            state_fingerprint(scalar.snapshot()))
        assert sum(map(engine.samples_taken, names)) > 600

    def test_a_live_window_is_at_most_the_ring_bound(self):
        for soa in (False, True):
            service = MonitoringService(soa=soa)
            service.add_task("w", task(), window=MAX_WINDOW)
            for window in (0, MAX_WINDOW + 1):
                with pytest.raises(ConfigurationError,
                                   match=r"within 1\.\.65536"):
                    service.add_task("v", task(), window=window)

    def test_a_retired_window_gives_its_ring_to_the_next(self):
        """Adding and removing windowed tasks reuses the rings: the side
        table holds no more slots than the windows alive at once, and a
        window on a reused ring holds nothing of the last one's."""
        engine, scalar = MonitoringService(soa=True), MonitoringService()
        for cycle in range(50):
            for service in (engine, scalar):
                service.add_task("w", task(threshold=1e9, err=0.0),
                                 window=64, window_kind=AggregateKind.SUM)
                for step in range(cycle, cycle + 5):
                    service.offer("w", float(step), step)
                assert held(service, "w")[0] == [
                    (step, float(step)) for step in range(cycle, cycle + 5)]
                service.remove_task("w")
        engine.add_task("v", task(), window=32)
        assert engine.soa_engine._slots == 64 + 32


class TestStatisticsOverflow:
    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_sampling_resumes_after_an_extreme_offer(self, soa):
        """One offer at the edge of the float range takes the delta
        mean there; the next ordinary delta overflows the variance,
        which restarts the statistics instead of freezing the task, so
        it goes on sampling and alerting."""
        service = MonitoringService(soa=soa)
        service.add_task("x", task(threshold=100.0, err=0.05))
        service.offer("x", 50.0, 0)
        service.offer("x", 1.7e308, 1)
        values = np.random.default_rng(2).normal(50.0, 2.0, 2000)
        values[1500:] += 100.0
        for step, value in enumerate(values.tolist(), start=2):
            service.offer("x", value, step)
        document = service.snapshot()
        assert document["sampler"]["restarts"][0] >= 1
        assert service.samples_taken("x") > 100
        assert [alert.time_index for alert in service.alerts("x")
                if alert.time_index > 1]
        for key in ("mean", "var", "coord_err_mant"):
            assert np.isfinite(document["sampler"][key]).all(), key

    @pytest.mark.parametrize("soa", [False, True], ids=["scalar", "rows"])
    def test_a_quantile_task_takes_the_largest_finite_float(self, soa):
        """The largest finite float lands in a bucket whose ``gamma^i``
        is past the float range; its midpoint is still read, so the
        first offer is taken and the 50 ordinary offers after it keep
        sampling, where every one raised ``OverflowError`` before."""
        service = MonitoringService(soa=soa)
        service.add_quantile_task("q", threshold=100.0, quantile=0.9,
                                  error_allowance=0.05, max_interval=6,
                                  sketch_window=16)
        service.offer("q", 1.7976931348623157e308, 0)
        values = np.random.default_rng(3).normal(50.0, 2.0, 50)
        for step, value in enumerate(values.tolist(), start=1):
            service.offer("q", value, step)
        assert service.samples_taken("q") > 10
        assert np.isfinite(service.task_estimate("q"))


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
