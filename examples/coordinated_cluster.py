#!/usr/bin/env python3
"""Full datacenter testbed run (paper SV-A, Fig. 4 topology).

Builds the simulated virtualized datacenter — physical servers, Dom0 CPU
accounting, VMs with traffic streams, per-VM monitors, one coordinator per
server group — in *distributed* mode, runs it, and prints the cost,
accuracy, Dom0 CPU and coordination-traffic summary.

Run: python examples/coordinated_cluster.py
     REPRO_FULL=1 python examples/coordinated_cluster.py   # paper scale
"""

from __future__ import annotations

import os

import numpy as np

from repro import AdaptiveAllocation
from repro.datacenter import TestbedConfig, build_testbed
from repro.workloads import SynFloodAttack, inject_attacks


def main() -> None:
    full = os.environ.get("REPRO_FULL", "") == "1"
    config = TestbedConfig(
        num_servers=20 if full else 4,
        vms_per_server=40 if full else 10,
        servers_per_coordinator=5 if full else 2,
        horizon_steps=2000,
        error_allowance=0.01,
        selectivity_percent=0.4,
        distributed=True,
        seed=1,
    )
    print(f"building testbed: {config.num_servers} servers x "
          f"{config.vms_per_server} VMs = {config.num_vms} VMs, "
          f"{config.num_coordinators} coordinators")

    # A coordinated SYN flood hits every VM of the first coordinator
    # group: the global (summed) traffic difference of that task crosses
    # its threshold, the per-VM floods only barely cross the local ones.
    attack = SynFloodAttack(start=1500, peak_syn_rate=3000.0,
                            ramp_steps=8, hold_steps=40, decay_steps=8)
    group0 = config.servers_per_coordinator * config.vms_per_server

    def flood_group0(vm_id: int, rho: np.ndarray, packets: np.ndarray):
        if vm_id < group0:
            rho = inject_attacks(rho, [attack])
            packets = packets + attack.profile(packets.size).astype(int)
        return rho, packets

    testbed = build_testbed(config, policy=AdaptiveAllocation(),
                            trace_hook=flood_group0)
    testbed.run()

    print(f"\nsimulated {config.horizon_steps} windows of "
          f"{config.default_interval:.0f}s "
          f"({config.horizon_steps * config.default_interval / 3600:.1f} "
          f"hours)")
    print(f"total samples: {testbed.total_samples} "
          f"(ratio vs periodic: {testbed.sampling_ratio:.3f})")

    print("\nper-coordinator tasks:")
    for i, (spec, group) in enumerate(zip(testbed.groups,
                                          testbed.group_runs)):
        print(f"  group {i}: {spec.num_monitors} monitors, "
              f"{group.global_polls} polls, "
              f"{group.detected_alerts} global alerts, "
              f"{group.reallocations} reallocation rounds")

    print("\nDom0 CPU utilisation per server (percent):")
    for server, stats in enumerate(testbed.dom0_utilization_stats()):
        print(f"  server {server}: median "
              f"{stats['median']:5.1f}  q25 {stats['q25']:5.1f}  "
              f"q75 {stats['q75']:5.1f}  max {stats['max']:5.1f}")

    print("\ncoordination traffic:", testbed.coordination_messages())

if __name__ == "__main__":
    main()
