"""Determinism guarantees: same seed, same results — everywhere.

Reproducibility is a core property of the harness (every figure in
EXPERIMENTS.md must be regenerable bit-for-bit), so it gets its own tests
rather than being assumed.
"""

from __future__ import annotations

from repro.core.coordination import AdaptiveAllocation
from repro.core.task import DistributedTaskSpec
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.experiments.distributed import run_distributed_task
from repro.experiments.figures import fig5, fig8
from repro.simulation.randomness import RandomStreams
from repro.workloads import TrafficDifferenceGenerator


def test_fig5_deterministic():
    a = fig5("network", num_streams=2, horizon=2500,
             selectivities=(0.4,), error_allowances=(0.016,))
    b = fig5("network", num_streams=2, horizon=2500,
             selectivities=(0.4,), error_allowances=(0.016,))
    assert a.cells == b.cells


def test_fig5_seed_changes_results():
    a = fig5("network", num_streams=2, horizon=2500, seed=0,
             selectivities=(0.4,), error_allowances=(0.016,))
    b = fig5("network", num_streams=2, horizon=2500, seed=1,
             selectivities=(0.4,), error_allowances=(0.016,))
    assert a.cells != b.cells


def test_fig8_deterministic():
    kwargs = dict(skews=(0.0, 1.0), num_monitors=3, horizon=4000,
                  repeats=1)
    assert fig8(**kwargs).adaptive_ratios == fig8(**kwargs).adaptive_ratios


def test_distributed_run_deterministic():
    streams = RandomStreams(4)
    traces = [TrafficDifferenceGenerator().generate(
        4000, streams.stream("det", i)) for i in range(3)]
    spec = DistributedTaskSpec(global_threshold=3000.0,
                               local_thresholds=(1000.0,) * 3,
                               error_allowance=0.01, max_interval=10)
    a = run_distributed_task(traces, spec, policy=AdaptiveAllocation(),
                             update_period=500)
    b = run_distributed_task(traces, spec, policy=AdaptiveAllocation(),
                             update_period=500)
    assert a.total_samples == b.total_samples
    assert a.final_allocations == b.final_allocations
    assert a.global_polls == b.global_polls


def test_testbed_deterministic():
    config = TestbedConfig(num_servers=1, vms_per_server=4,
                           horizon_steps=500, error_allowance=0.01, seed=3)
    runs = []
    for _ in range(2):
        testbed = build_testbed(config)
        testbed.run()
        runs.append((testbed.total_samples,
                     testbed.dom0_utilization().tobytes()))
    assert runs[0] == runs[1]
