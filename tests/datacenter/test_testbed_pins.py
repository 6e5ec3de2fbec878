"""Pins: the testbed's schedules, coordination and reports.

Every per-VM monitor samples exactly the schedule
:func:`~repro.experiments.runner.run_adaptive` gives its trace and task,
and every coordinator group polls, alerts, samples and reallocates
exactly as :func:`~repro.experiments.distributed.run_distributed_task`
does on its group's traces. The Fig. 6 and reliability reports are pinned
as text.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coordination import AdaptiveAllocation, EvenAllocation
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.experiments.distributed import run_distributed_task
from repro.experiments.figures import fig6
from repro.experiments.reliability import reliability_experiment
from repro.experiments.runner import run_adaptive
from repro.workloads import SynFloodAttack, inject_attacks

FIG6_REPORT = """\
Fig.6: Dom0 CPU utilisation %, 1 servers x 8 VMs, 400 windows
  err    min    q25  median    q75    max   mean  sampling-ratio
-----  -----  -----  ------  -----  -----  -----  --------------
0.000  4.088  4.193   4.248  4.303  4.392  4.249           1.000
0.002  1.938  3.549   3.948  4.281  4.392  3.733           0.887
0.004  1.938  3.038   3.594  4.143  4.392  3.515           0.843
0.008  1.751  2.631   3.140  3.726  4.366  3.217           0.774
0.016  1.385  2.446   2.923  3.603  4.287  2.984           0.728
0.032  1.344  2.079   2.659  3.519  4.284  2.814           0.690"""

RELIABILITY_REPORT = """\
Coordination under message loss (52 ground-truth global alerts)
loss-rate  alert-recall  polls  dropped-reports
---------  ------------  -----  ---------------
    0.000         1.000     90                0
    0.050         0.904     82                8
    0.100         0.846     78               12
    0.200         0.788     70               21
    0.400         0.577     54               39"""


def test_fig6_report_is_pinned():
    result = fig6(num_servers=1, vms_per_server=8, horizon=400, seed=0)
    assert result.report() == FIG6_REPORT


def test_reliability_report_is_pinned():
    assert reliability_experiment(seed=0).report() == RELIABILITY_REPORT


def monitor_schedules(testbed):
    """``(values, task, sampled steps)`` per monitor, in VM order."""
    return [(values, task, np.flatnonzero(testbed.sampled[:, vm]).tolist())
            for vm, (values, task) in enumerate(zip(testbed.traces,
                                                    testbed.tasks))]


@pytest.mark.parametrize("err", [0.0, 0.01, 0.05])
def test_per_vm_schedules_equal_run_adaptive(err):
    testbed = build_testbed(TestbedConfig(
        num_servers=2, vms_per_server=16, horizon_steps=800,
        error_allowance=err, seed=4))
    testbed.run()
    for values, task, sampled in monitor_schedules(testbed):
        assert sampled == run_adaptive(values, task).sampled_indices.tolist()


def flooded_example(policy):
    """The coordinated-cluster example's testbed: a SYN flood on every VM
    of coordinator group 0."""
    config = TestbedConfig(num_servers=4, vms_per_server=10,
                           servers_per_coordinator=2, horizon_steps=2000,
                           error_allowance=0.01, selectivity_percent=0.4,
                           distributed=True, seed=1)
    attack = SynFloodAttack(start=1500, peak_syn_rate=3000.0,
                            ramp_steps=8, hold_steps=40, decay_steps=8)
    group0 = config.servers_per_coordinator * config.vms_per_server

    def hook(vm_id, rho, packets):
        if vm_id < group0:
            rho = inject_attacks(rho, [attack])
            packets = packets + attack.profile(packets.size).astype(int)
        return rho, packets

    testbed = build_testbed(config, policy=policy, trace_hook=hook)
    testbed.run()
    return testbed


def group_outcomes(testbed):
    """Per coordinator group: ``(traces, spec, polls, alert steps,
    per-monitor samples, final allocations)``."""
    span = (testbed.config.servers_per_coordinator
            * testbed.config.vms_per_server)
    outcomes = []
    for k, (spec, run) in enumerate(zip(testbed.groups,
                                        testbed.group_runs)):
        vms = slice(k * span, (k + 1) * span)
        outcomes.append((
            testbed.traces[vms], spec, run.polls,
            [p.time_index for p in run.polls if p.violated],
            tuple(np.count_nonzero(testbed.sampled[:, vms], axis=0)
                  .tolist()),
            run.final_allocations))
    return outcomes


@pytest.mark.parametrize("policy", [EvenAllocation, AdaptiveAllocation])
def test_groups_equal_run_distributed_task(policy):
    testbed = flooded_example(policy())
    outcomes = group_outcomes(testbed)
    assert len(outcomes) == 2
    for traces, spec, polls, alerts, samples, allocations in outcomes:
        expected = run_distributed_task(traces, spec, policy=policy(),
                                        keep_polls=True)
        assert polls == expected.polls
        assert alerts == [p.time_index for p in expected.polls
                          if p.violated]
        assert samples == expected.per_monitor_samples
        assert allocations == expected.final_allocations
    # The flood raises global alerts in group 0 only.
    assert outcomes[0][3] and not outcomes[1][3]
