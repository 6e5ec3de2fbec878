"""Accessor and message-accounting details of the testbed's coordinator
groups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordination import AdaptiveAllocation
from repro.core.task import DistributedTaskSpec
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.experiments.distributed import run_distributed_task


def group_testbed(policy=None, horizon=400, seed=1):
    return build_testbed(TestbedConfig(
        num_servers=2, vms_per_server=3, servers_per_coordinator=1,
        horizon_steps=horizon, error_allowance=0.01, distributed=True,
        seed=seed), policy=policy)


def test_accessors_before_and_after_start():
    testbed = group_testbed()
    assert [spec.num_monitors for spec in testbed.groups] == [3, 3]
    assert testbed.group_runs == []
    assert testbed.total_samples == 0
    testbed.run()
    assert len(testbed.group_runs) == 2
    for spec, run in zip(testbed.groups, testbed.group_runs):
        assert len(run.polls) == run.global_polls
        assert len(run.final_allocations) == spec.num_monitors
        assert sum(run.final_allocations) == pytest.approx(0.01)
        assert run.reallocations == 0  # even split, no update period yet
    assert testbed.total_samples == sum(
        sum(run.per_monitor_samples) for run in testbed.group_runs)


def test_allowance_update_messages_counted():
    testbed = group_testbed(AdaptiveAllocation(), horizon=2000)
    testbed.run()
    rounds = sum(run.reallocations for run in testbed.group_runs)
    assert rounds > 0
    assert testbed.coordination_messages()["allowance-update"] == 3 * rounds


def test_poll_values_ordered_by_monitor_slot():
    a = np.zeros(50)
    b = np.full(50, 7.0)
    a[10] = 150.0
    spec = DistributedTaskSpec(global_threshold=200.0,
                               local_thresholds=(100.0, 100.0),
                               error_allowance=0.0, max_interval=10)
    result = run_distributed_task([a, b], spec, keep_polls=True)
    assert result.polls[0].values == (150.0, 7.0)
