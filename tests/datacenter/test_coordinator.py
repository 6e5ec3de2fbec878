"""Tests for a coordinator group: global polls, alerts and allocation
rounds, stepped as engine rows by the distributed-task runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import AdaptiveAllocation
from repro.core.task import DistributedTaskSpec
from repro.exceptions import TraceError
from repro.experiments.distributed import run_distributed_task


def run_task(traces, err=0.01, policy=None, update_period=1000):
    """One task over crafted traces, local thresholds 100, polls and
    allocation history kept."""
    traces = [np.asarray(t, dtype=float) for t in traces]
    spec = DistributedTaskSpec(
        global_threshold=100.0 * len(traces),
        local_thresholds=(100.0,) * len(traces),
        error_allowance=err, max_interval=10)
    return run_distributed_task(
        traces, spec, AdaptationConfig(patience=3, min_samples=5), policy,
        update_period, keep_polls=True, keep_allocations=True)


class TestRegistration:
    def test_requires_all_monitors_before_start(self):
        spec = DistributedTaskSpec(global_threshold=200.0,
                                   local_thresholds=(100.0, 100.0),
                                   error_allowance=0.01)
        with pytest.raises(TraceError):
            run_distributed_task([np.zeros(10)], spec)

    def test_rejects_extra_monitors(self):
        spec = DistributedTaskSpec(global_threshold=200.0,
                                   local_thresholds=(100.0, 100.0),
                                   error_allowance=0.01)
        with pytest.raises(TraceError):
            run_distributed_task([np.zeros(10)] * 3, spec)

    def test_bad_update_period(self):
        with pytest.raises(TraceError):
            run_task([np.zeros(10)], update_period=0)


class TestGlobalPolls:
    def test_local_violation_triggers_poll(self):
        a = np.zeros(20)
        a[5] = 150.0  # local violation on monitor 0 only
        b = np.zeros(20)
        result = run_task([a, b])
        assert result.global_polls == 1
        poll = result.polls[0]
        assert poll.time_index == 5
        assert poll.values == (150.0, 0.0)
        assert not poll.violated          # 150 < 200 global threshold
        assert result.detected_alerts == 0
        # One report, then a request and a response per monitor.
        assert result.messages == 1 + 2 * 2

    def test_global_alert_when_sum_crosses(self):
        a = np.zeros(20)
        b = np.zeros(20)
        a[5] = 150.0
        b[5] = 120.0  # both violate locally; sum 270 > 200
        result = run_task([a, b])
        assert result.global_polls == 1  # one poll per step
        assert result.local_violations == 2
        assert result.detected_alerts == 1
        poll = result.polls[0]
        assert poll.time_index == 5 and poll.violated
        assert poll.total == pytest.approx(270.0)

    def test_poll_forces_samples_on_idle_monitors(self):
        # Monitor 1 idles at a long interval; monitor 0's violation must
        # force it to sample. The violation is a plateau so monitor 0
        # cannot step entirely over it.
        a = np.ones(300)
        a[240:260] = 150.0
        b = np.ones(300)
        quiet = run_task([np.ones(300), b], err=0.05)
        result = run_task([a, b], err=0.05)
        assert quiet.global_polls == 0
        assert any(240 <= p.time_index < 260 for p in result.polls)
        assert result.per_monitor_samples[1] > quiet.per_monitor_samples[1]


class TestAllocationUpdates:
    def test_periodic_reallocation_with_adaptive_policy(self):
        rng = np.random.default_rng(0)
        # Heterogeneous streams: one near its threshold, one far below.
        hot = 95.0 + rng.normal(0.0, 2.0, 400)
        cold = rng.normal(0.0, 0.1, 400)
        result = run_task([hot, cold], err=0.01,
                          policy=AdaptiveAllocation(), update_period=100)
        assert result.reallocations >= 1
        allocations = result.final_allocations
        assert sum(allocations) == pytest.approx(0.01, rel=1e-6)
        assert min(allocations) >= 0.01 * 0.01 - 1e-12  # floor respected
        assert len(result.allocation_history) == 1 + 400 // 100
        # The hot monitor is hopeless (values hover at its threshold) and
        # stays at the default interval; the cold one must have grown.
        assert result.per_monitor_samples[0] == 400
        assert result.per_monitor_samples[1] < 400
