"""Tests for the single-monitor experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.exceptions import TraceError
from repro.experiments.runner import (run_adaptive, run_lockstep,
                                      run_periodic, run_sampler_on_trace,
                                      run_triggered)
from repro.baselines.periodic import PeriodicSampler


class TestRunSamplerOnTrace:
    def test_periodic_covers_grid(self):
        values = np.zeros(100)
        result = run_sampler_on_trace(values, PeriodicSampler(7), 1.0)
        assert result.sampled_indices.tolist() == list(range(0, 100, 7))
        assert result.intervals.tolist() == [7] * len(result.sampled_indices)

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            run_sampler_on_trace(np.array([]), PeriodicSampler(), 1.0)

    def test_interval_recording_optional(self):
        values = np.zeros(10)
        result = run_sampler_on_trace(values, PeriodicSampler(), 1.0,
                                      record_intervals=False)
        assert result.intervals.size == 0


class TestRunPeriodic:
    def test_interval_one_is_ground_truth(self, bursty_trace):
        result = run_periodic(bursty_trace, 100.0, interval=1)
        assert result.sampling_ratio == 1.0
        assert result.misdetection_rate == 0.0

    def test_large_interval_misses(self, bursty_trace):
        result = run_periodic(bursty_trace, 100.0, interval=40)
        assert result.sampling_ratio == pytest.approx(1.0 / 40, abs=0.01)
        assert result.misdetection_rate > 0.0


class TestRunAdaptive:
    def test_saves_cost_with_bounded_misdetection(self, bursty_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.02,
                        max_interval=10)
        result = run_adaptive(bursty_trace, task)
        assert result.sampling_ratio < 0.8
        assert result.misdetection_rate <= 0.1

    def test_zero_allowance_equals_periodic(self, bursty_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.0)
        result = run_adaptive(bursty_trace, task)
        assert result.sampling_ratio == 1.0

    def test_larger_allowance_weakly_cheaper(self, bursty_trace):
        ratios = []
        for err in (0.002, 0.008, 0.032):
            task = TaskSpec(threshold=100.0, error_allowance=err,
                            max_interval=10)
            ratios.append(run_adaptive(bursty_trace, task).sampling_ratio)
        assert ratios[0] >= ratios[-1]

    def test_custom_config_used(self, bursty_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.02,
                        max_interval=10)
        eager = run_adaptive(bursty_trace, task,
                             AdaptationConfig(patience=2, min_samples=5))
        default = run_adaptive(bursty_trace, task)
        # Lower patience grows faster, hence fewer samples.
        assert eager.sampling_ratio <= default.sampling_ratio


class TestNonFiniteTraces:
    """A non-finite value anywhere is refused up front, whether or not the
    schedule would have sampled it."""

    @staticmethod
    def _unsampled_step(trace, task):
        sampled = set(run_adaptive(trace, task).sampled_indices.tolist())
        return next(t for t in range(trace.size) if t not in sampled)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["sampled", "unsampled"])
    def test_run_adaptive(self, bursty_trace, bad, where):
        task = TaskSpec(threshold=100.0, error_allowance=0.05,
                        max_interval=10)
        trace = bursty_trace.copy()
        trace[0 if where == "sampled"
              else self._unsampled_step(trace, task)] = bad
        with pytest.raises(TraceError):
            run_adaptive(trace, task)

    def test_run_lockstep(self, bursty_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.05)
        bad = bursty_trace.copy()
        bad[-1] = float("nan")
        with pytest.raises(TraceError):
            run_lockstep([bursty_trace, bad], [task, task])
        with pytest.raises(TraceError):
            run_lockstep([bursty_trace], [task, task])


class TestRunLockstep:
    def test_rows_equal_one_row_runs(self, bursty_trace, quiet_trace):
        # Ragged lengths, one trace shared by two rows, per-row tasks.
        traces = [bursty_trace, quiet_trace[:700], bursty_trace]
        tasks = [TaskSpec(threshold=100.0, error_allowance=err,
                          max_interval=10) for err in (0.02, 0.0, 0.1)]
        for got, trace, task in zip(run_lockstep(traces, tasks), traces,
                                    tasks):
            alone = run_adaptive(trace, task)
            assert got.sampled_indices.tolist() == \
                alone.sampled_indices.tolist()
            assert got.intervals.tolist() == alone.intervals.tolist()
            assert got.accuracy == alone.accuracy

    def test_no_runs(self):
        assert run_lockstep([], []) == []


class TestRunTriggered:
    def test_cold_trigger_saves_cost(self, quiet_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.0)
        trigger = np.zeros_like(quiet_trace)  # always cold
        result = run_triggered(quiet_trace, trigger, task,
                               elevation_level=1.0, suspend_interval=10)
        assert result.sampling_ratio == pytest.approx(0.1, abs=0.01)

    def test_hot_trigger_restores_full_sampling(self, quiet_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.0)
        trigger = np.full_like(quiet_trace, 10.0)  # always hot
        result = run_triggered(quiet_trace, trigger, task,
                               elevation_level=1.0, suspend_interval=10)
        assert result.sampling_ratio == 1.0

    def test_misaligned_trigger_rejected(self, quiet_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.0)
        with pytest.raises(TraceError):
            run_triggered(quiet_trace, quiet_trace[:-1], task, 1.0)

    def test_pinned_schedule(self):
        # Regression pin for the shared sample loop: with a zero error
        # allowance the inner sampler always asks for interval 1, so the
        # triggered schedule is fully hand-computable. Trigger is cold
        # (idle interval 4) except over grid points 8-11:
        #   t=0 ->+4, t=4 ->+4, t=8..11 hot ->+1 each, t=12 ->+4,
        #   t=16 ->+4, stop at 20.
        values = np.zeros(20)
        trigger = np.zeros(20)
        trigger[8:12] = 5.0
        task = TaskSpec(threshold=100.0, error_allowance=0.0)
        result = run_triggered(values, trigger, task,
                               elevation_level=1.0, suspend_interval=4)
        assert result.sampled_indices.tolist() == [0, 4, 8, 9, 10, 11,
                                                   12, 16]
        assert result.intervals.tolist() == [4, 4, 1, 1, 1, 1, 4, 4]
        assert result.misdetection_rate == 0.0

    def test_hot_trigger_matches_adaptive_schedule(self, bursty_trace):
        # Drift guard: with the trigger always elevated the triggered
        # runner must walk exactly the schedule of the plain adaptive
        # runner — both now share one sample loop.
        task = TaskSpec(threshold=100.0, error_allowance=0.02,
                        max_interval=10)
        trigger = np.full_like(bursty_trace, 10.0)
        triggered = run_triggered(bursty_trace, trigger, task,
                                  elevation_level=1.0)
        adaptive = run_adaptive(bursty_trace, task)
        assert triggered.sampled_indices.tolist() == \
            adaptive.sampled_indices.tolist()
        assert triggered.intervals.tolist() == adaptive.intervals.tolist()
        assert triggered.accuracy == adaptive.accuracy
