"""Tests for the distributed-task experiment runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordination import AdaptiveAllocation, EvenAllocation
from repro.core.task import DistributedTaskSpec
from repro.exceptions import TraceError
from repro.experiments.distributed import run_distributed_task


def crafted_task(n=400, m=3, err=0.0):
    """Deterministic traces with one synchronized global violation."""
    traces = [np.full(n, 10.0) for _ in range(m)]
    for trace in traces:
        trace[200:210] = 120.0  # all monitors spike together
    spec = DistributedTaskSpec(
        global_threshold=3 * 100.0,
        local_thresholds=(100.0,) * m,
        error_allowance=err, max_interval=10)
    return traces, spec


class TestGroundTruthAccounting:
    def test_synchronized_violation_detected(self):
        traces, spec = crafted_task(err=0.0)
        result = run_distributed_task(traces, spec)
        assert result.truth_alerts == 10
        assert result.detected_alerts == 10
        assert result.misdetection_rate == 0.0
        assert result.global_polls == 10
        assert result.local_violations == 30

    def test_local_but_not_global(self):
        n, m = 300, 3
        traces = [np.full(n, 10.0) for _ in range(m)]
        traces[0][100:105] = 150.0  # only one monitor violates locally
        spec = DistributedTaskSpec(global_threshold=300.0,
                                   local_thresholds=(100.0,) * m,
                                   error_allowance=0.0, max_interval=10)
        result = run_distributed_task(traces, spec)
        assert result.truth_alerts == 0
        assert result.global_polls == 5
        assert result.detected_alerts == 0
        assert result.misdetection_rate == 0.0

    def test_poll_log_kept_on_request(self):
        traces, spec = crafted_task()
        result = run_distributed_task(traces, spec, keep_polls=True)
        assert len(result.polls) == result.global_polls
        assert all(p.violated for p in result.polls)

    def test_poll_log_dropped_by_default(self):
        traces, spec = crafted_task()
        assert run_distributed_task(traces, spec).polls == ()


class TestCost:
    def test_periodic_reference(self):
        traces, spec = crafted_task(err=0.0)
        result = run_distributed_task(traces, spec)
        assert result.sampling_ratio == pytest.approx(1.0)
        assert result.per_monitor_samples == (400, 400, 400)

    def test_adaptive_saves(self):
        n, m = 2000, 3
        traces = [np.full(n, 10.0) + np.linspace(0, 0.1, n)
                  for _ in range(m)]
        spec = DistributedTaskSpec(global_threshold=300.0,
                                   local_thresholds=(100.0,) * m,
                                   error_allowance=0.05, max_interval=10)
        result = run_distributed_task(traces, spec)
        assert result.sampling_ratio < 0.6

    def test_message_accounting(self):
        traces, spec = crafted_task(err=0.0)
        result = run_distributed_task(traces, spec)
        # Per poll: m requests + m responses; per local violation: 1 report.
        assert result.messages == (result.local_violations
                                   + 2 * 3 * result.global_polls)


class TestAllocationRounds:
    def test_even_policy_never_reallocates(self):
        traces, spec = crafted_task(n=600, err=0.01)
        result = run_distributed_task(traces, spec,
                                      policy=EvenAllocation(),
                                      update_period=100)
        assert result.reallocations == 0
        assert result.final_allocations == pytest.approx(
            (0.01 / 3,) * 3)

    def test_adaptive_policy_may_reallocate(self, rng):
        n = 1200
        hot = 95.0 + rng.normal(0, 2.0, n)
        cold = rng.normal(0, 0.1, n)
        spec = DistributedTaskSpec(global_threshold=200.0,
                                   local_thresholds=(100.0, 100.0),
                                   error_allowance=0.01, max_interval=10)
        result = run_distributed_task([hot, cold], spec,
                                      policy=AdaptiveAllocation(),
                                      update_period=200)
        assert result.reallocations >= 1
        assert sum(result.final_allocations) == pytest.approx(0.01,
                                                              rel=1e-6)


class TestValidation:
    def test_wrong_monitor_count(self):
        traces, spec = crafted_task()
        with pytest.raises(TraceError):
            run_distributed_task(traces[:2], spec)

    def test_bad_matrix(self):
        spec = DistributedTaskSpec(global_threshold=1.0,
                                   local_thresholds=(1.0,),
                                   error_allowance=0.0)
        with pytest.raises(TraceError):
            run_distributed_task(np.zeros((0, 0)), spec)

    @pytest.mark.parametrize("step", [0, 205, 399])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_value_refused(self, step, bad):
        # Step 0 is sampled by every monitor; 205 sits inside the
        # synchronized spike and 399 at the end of a quiet stretch.
        traces, spec = crafted_task(err=0.05)
        traces[1][step] = bad
        with pytest.raises(TraceError):
            run_distributed_task(traces, spec)

    def test_bad_update_period(self):
        traces, spec = crafted_task()
        with pytest.raises(TraceError):
            run_distributed_task(traces, spec, update_period=0)
