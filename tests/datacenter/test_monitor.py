"""Tests for the testbed's per-VM monitors.

A monitor is one engine row: per-VM tasks step through
:func:`~repro.experiments.runner.run_lockstep`, a coordinator group's
monitors through the distributed-task batch, whose ``sampled`` mask
records every sample a monitor takes, forced ones included.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.task import DistributedTaskSpec
from repro.datacenter.cost import FlatSamplingCostModel
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.experiments.distributed import _run_batch

CONFIG = AdaptationConfig(patience=3, min_samples=5)


def run_group(traces, err=0.0):
    """One coordinator group over crafted traces, local thresholds 100:
    ``(result, sampled)`` with ``sampled`` the ``(steps, monitors)`` mask
    of samples."""
    traces = np.asarray(traces, dtype=float)
    spec = DistributedTaskSpec(global_threshold=100.0 * len(traces),
                               local_thresholds=(100.0,) * len(traces),
                               error_allowance=err, max_interval=10)
    sampled = np.zeros(traces.T.shape, dtype=bool)
    [result] = _run_batch([(traces, spec, None)], CONFIG, keep_polls=True,
                          sampled=sampled)
    return result, sampled


def flat(vm_id, rho, packets):
    """A steady stream at the clean stream's minimum."""
    return np.full_like(rho, rho.min()), packets


def per_vm_testbed(err, cost_model=None, **shape):
    testbed = build_testbed(
        TestbedConfig(error_allowance=err, **{
            "num_servers": 1, "vms_per_server": 4, "horizon_steps": 300,
            **shape}),
        adaptation=CONFIG, cost_model=cost_model, trace_hook=flat)
    testbed.run()
    return testbed


class TestMonitorDaemon:
    def test_periodic_when_zero_allowance(self):
        testbed = per_vm_testbed(0.0)
        assert testbed.sampled.all()
        assert testbed.total_samples == 4 * 300

    def test_adaptation_reduces_samples(self):
        testbed = per_vm_testbed(0.05)
        per_vm = np.count_nonzero(testbed.sampled, axis=0)
        assert (per_vm < 200).all()
        assert testbed.sampled[0].all()  # every monitor starts at step 0

    def test_cost_charged_per_sample(self):
        # 0.01 cpu-seconds per 1-second window = 1% per sample; four VMs
        # sampled every window put 4% on their server's Dom0.
        testbed = per_vm_testbed(0.0, FlatSamplingCostModel(0.01),
                                 num_servers=2, vms_per_server=4,
                                 default_interval=1.0, horizon_steps=20)
        assert np.allclose(testbed.dom0_utilization(), 4.0)

    def test_poll_returns_current_value_without_resampling(self):
        # At err 0 every monitor is due every step: a poll adds no
        # second sample at a step its monitors already sample.
        a = np.zeros(20)
        a[3] = 150.0
        result, sampled = run_group([a, np.arange(20.0)])
        assert result.global_polls == 1
        assert result.polls[0].values == (150.0, 3.0)
        assert result.per_monitor_samples == (20, 20)
        assert sampled.all()

    def test_poll_forces_sample_when_idle(self):
        # Monitor 1 idles at a long interval; monitor 0's violation must
        # force it to produce a value for the poll. The violation is a
        # plateau so monitor 0 cannot step entirely over it.
        a = np.ones(300)
        a[240:260] = 150.0
        result, sampled = run_group([a, np.ones(300)], err=0.05)
        poll_steps = [p.time_index for p in result.polls]
        assert any(240 <= s < 260 for s in poll_steps)
        idle = np.flatnonzero(sampled[:, 1])
        assert np.diff(idle[idle < 240]).max() > 1  # its interval grew
        forced = [s for s in poll_steps if sampled[s, 1]]
        assert forced == poll_steps, "idle monitor skipped a poll"
        assert result.per_monitor_samples[1] == np.count_nonzero(
            sampled[:, 1])

    def test_reports_local_violations(self):
        values = np.zeros(20)
        values[7] = 150.0
        result, _ = run_group([values, np.zeros(20)])
        assert result.local_violations == 1
        assert [p.time_index for p in result.polls] == [7]
