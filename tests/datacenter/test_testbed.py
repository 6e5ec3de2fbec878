"""Tests for the testbed builder."""

from __future__ import annotations

import pytest

from repro.datacenter.testbed import (PAPER_SCALE, Testbed, TestbedConfig,
                                      build_testbed)
from repro.exceptions import ConfigurationError


class TestTestbedConfig:
    def test_derived_sizes(self):
        config = TestbedConfig(num_servers=7, vms_per_server=4,
                               servers_per_coordinator=5)
        assert config.num_vms == 28
        assert config.num_coordinators == 2

    def test_paper_scale_constant(self):
        assert PAPER_SCALE["num_servers"] * PAPER_SCALE["vms_per_server"] \
            == 800

    @pytest.mark.parametrize("kwargs", [
        dict(num_servers=0),
        dict(vms_per_server=0),
        dict(servers_per_coordinator=0),
        dict(horizon_steps=5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            TestbedConfig(**kwargs)


class TestPerVmMode:
    @pytest.fixture(scope="class")
    def testbed(self) -> Testbed:
        tb = build_testbed(TestbedConfig(num_servers=2, vms_per_server=4,
                                         horizon_steps=600,
                                         error_allowance=0.02))
        tb.run()
        return tb

    def test_topology(self, testbed):
        assert testbed.traces.shape == testbed.packets.shape == (8, 600)
        assert [task.name for task in testbed.tasks] == [
            f"net/vm-{vm}" for vm in range(8)]
        assert testbed.groups == [] and testbed.group_runs == []
        assert testbed.dom0_utilization().shape == (2, 600)
        assert testbed.coordination_messages() == {
            "violation-report": 0, "poll-request": 0, "poll-response": 0,
            "allowance-update": 0}

    def test_savings(self, testbed):
        assert 0.0 < testbed.sampling_ratio < 1.0

    def test_dom0_accounting(self, testbed):
        stats = testbed.dom0_utilization_stats()
        assert len(stats) == 2
        assert all(s["mean"] > 0.0 for s in stats)

    def test_accuracy_summary(self, testbed):
        accuracy = testbed.monitor_accuracy()
        assert len(accuracy) == 8
        assert all(0.0 <= a.misdetection_rate <= 1.0 for a in accuracy)

    def test_cannot_run_twice(self, testbed):
        with pytest.raises(ConfigurationError):
            testbed.run()


class TestDistributedMode:
    def test_wiring_and_run(self):
        tb = build_testbed(TestbedConfig(num_servers=2, vms_per_server=4,
                                         servers_per_coordinator=1,
                                         horizon_steps=600,
                                         error_allowance=0.01,
                                         distributed=True))
        assert [spec.num_monitors for spec in tb.groups] == [4, 4]
        assert [spec.name for spec in tb.groups] == ["net/group-0",
                                                     "net/group-1"]
        # Each VM's task is its group's local spec at the even share.
        assert [task.threshold for task in tb.tasks] == [
            t for spec in tb.groups for t in spec.local_thresholds]
        assert {task.error_allowance for task in tb.tasks} == {0.01 / 4}
        tb.run()
        assert tb.total_samples > 0
        assert len(tb.group_runs) == 2
        # Coordination traffic exists whenever local violations occurred.
        messages = tb.coordination_messages()
        polls = sum(run.global_polls for run in tb.group_runs)
        assert (messages["violation-report"] == 0) == (polls == 0)
        assert messages["poll-request"] == messages["poll-response"] \
            == 4 * polls

    def test_periodic_reference_ratio_is_one(self):
        tb = build_testbed(TestbedConfig(num_servers=1, vms_per_server=2,
                                         horizon_steps=300,
                                         error_allowance=0.0))
        tb.run()
        assert tb.sampling_ratio == pytest.approx(1.0)
