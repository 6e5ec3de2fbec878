"""Failure/attack injection at the testbed level (trace hooks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.workloads import SynFloodAttack, inject_attacks


def flood_hook(attack, vm_ids):
    def hook(vm_id, rho, packets):
        if vm_id in vm_ids:
            rho = inject_attacks(rho, [attack])
            packets = packets + attack.profile(packets.size).astype(int)
        return rho, packets
    return hook


class TestAttackInjection:
    def test_coordinated_flood_raises_global_alerts(self):
        attack = SynFloodAttack(start=700, peak_syn_rate=3000.0,
                                ramp_steps=8, hold_steps=40)
        config = TestbedConfig(num_servers=2, vms_per_server=4,
                               servers_per_coordinator=1,
                               horizon_steps=1000, error_allowance=0.01,
                               distributed=True, seed=2)
        group0 = set(range(4))  # VMs of coordinator group 0
        testbed = build_testbed(config,
                                trace_hook=flood_hook(attack, group0))
        testbed.run()
        attacked, clean = testbed.group_runs
        alerts = [p.time_index for p in attacked.polls if p.violated]
        assert len(alerts) == attacked.detected_alerts > 0, \
            "coordinated flood must alert"
        assert clean.detected_alerts == 0
        # Alerts land inside the attack's footprint.
        start, end = attack.alert_window()
        assert all(start <= step < end for step in alerts)

    def test_thresholds_calibrated_on_clean_stream(self):
        """The hook must not inflate the victim's threshold."""
        attack = SynFloodAttack(start=400, peak_syn_rate=5000.0,
                                ramp_steps=8, hold_steps=40)
        config = TestbedConfig(num_servers=1, vms_per_server=2,
                               horizon_steps=800, error_allowance=0.01,
                               seed=5)
        clean = build_testbed(config)
        attacked = build_testbed(config, trace_hook=flood_hook(attack, {0}))
        assert attacked.tasks[0].threshold == clean.tasks[0].threshold
        assert attacked.traces[0].max() > clean.traces[0].max()

    def test_single_vm_flood_detected_by_its_monitor(self):
        attack = SynFloodAttack(start=500, peak_syn_rate=5000.0,
                                ramp_steps=8, hold_steps=40)
        config = TestbedConfig(num_servers=1, vms_per_server=4,
                               horizon_steps=800, error_allowance=0.01,
                               seed=7)
        testbed = build_testbed(config, trace_hook=flood_hook(attack, {1}))
        testbed.run()
        values, task = testbed.traces[1], testbed.tasks[1]
        start, end = attack.alert_window()
        hits = [s for s in np.flatnonzero(testbed.sampled[:, 1])
                if start <= s < end and values[s] > task.threshold]
        assert hits, "flood must be sampled above threshold"


class TestMonetaryBill:
    def test_bill_reflects_samples_and_messages(self):
        config = TestbedConfig(num_servers=1, vms_per_server=4,
                               servers_per_coordinator=1,
                               horizon_steps=500, error_allowance=0.01,
                               distributed=True, seed=1)
        testbed = build_testbed(config)
        testbed.run()
        bill = testbed.monetary_bill(price_per_sample=1.0,
                                     price_per_message=0.5)
        messages = sum(testbed.coordination_messages().values())
        assert messages > 0
        assert bill.samples == testbed.total_samples
        assert bill.messages == messages
        assert bill.total_cost == pytest.approx(
            testbed.total_samples + 0.5 * messages)

    def test_adaptive_bill_below_periodic(self):
        base = dict(num_servers=1, vms_per_server=4, horizon_steps=500,
                    seed=1)
        periodic = build_testbed(TestbedConfig(error_allowance=0.0, **base))
        periodic.run()
        adaptive = build_testbed(TestbedConfig(error_allowance=0.02,
                                               **base))
        adaptive.run()
        assert adaptive.monetary_bill().total_cost < \
            periodic.monetary_bill().total_cost
