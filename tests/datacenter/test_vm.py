"""Tests for the VMs' streams: what a trace hook returns is what the
testbed's monitors sample and its Dom0s are charged for."""

from __future__ import annotations

import numpy as np

from repro.datacenter.testbed import TestbedConfig, build_testbed

CONFIG = TestbedConfig(num_servers=1, vms_per_server=3, horizon_steps=40)


class TestTraceAgent:
    def test_serves_values(self):
        def ramp(vm_id, rho, packets):
            return np.arange(40.0) + vm_id, packets

        testbed = build_testbed(CONFIG, trace_hook=ramp)
        assert testbed.traces.tolist() == [
            (np.arange(40.0) + vm).tolist() for vm in range(3)]

    def test_serves_packets(self):
        def volume(vm_id, rho, packets):
            return rho, np.full(40, 10 * (vm_id + 1))

        testbed = build_testbed(CONFIG, trace_hook=volume)
        assert testbed.packets.dtype == np.int64
        assert testbed.packets[:, 2].tolist() == [10, 20, 30]
