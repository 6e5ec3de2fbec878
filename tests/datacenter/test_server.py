"""Tests for the servers' Dom0 CPU accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datacenter.cost import NetworkSamplingCostModel
from repro.datacenter.testbed import TestbedConfig, build_testbed


class TestDom0CpuAccount:
    def test_utilization_per_window(self):
        cost = NetworkSamplingCostModel()
        testbed = build_testbed(TestbedConfig(
            num_servers=2, vms_per_server=3, horizon_steps=200,
            error_allowance=0.02), cost_model=cost)
        testbed.run()
        expected = np.zeros((2, 200))
        for vm in range(6):
            for step in np.flatnonzero(testbed.sampled[:, vm]):
                expected[vm // 3, step] += cost.cpu_seconds(
                    int(testbed.packets[vm, step]))
        assert np.array_equal(testbed.dom0_utilization(),
                              100.0 * expected / 15.0)

    def test_stats(self):
        testbed = build_testbed(TestbedConfig(
            num_servers=2, vms_per_server=3, horizon_steps=200))
        testbed.run()
        stats = testbed.dom0_utilization_stats()
        assert len(stats) == 2
        for server, util in zip(stats, testbed.dom0_utilization()):
            assert server["min"] == util.min() > 0.0
            assert server["max"] == util.max()
            assert server["median"] == pytest.approx(np.median(util))
            assert server["mean"] == pytest.approx(util.mean())


class TestPhysicalServer:
    def test_attach_vms(self):
        # VM v lives on server v // vms_per_server: a traffic burst on
        # VM 3 loads server 1's Dom0 and no other.
        def burst(vm_id, rho, packets):
            if vm_id == 3:
                packets = packets + 1_000_000
            return rho, packets

        config = TestbedConfig(num_servers=3, vms_per_server=2,
                               horizon_steps=50, error_allowance=0.0)
        clean, loaded = build_testbed(config), build_testbed(
            config, trace_hook=burst)
        clean.run()
        loaded.run()
        extra = loaded.dom0_utilization() - clean.dom0_utilization()
        assert (extra[1] > 0).all()
        assert not extra[[0, 2]].any()
