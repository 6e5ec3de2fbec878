"""Multi-task level bench: datacenter-wide correlation scheduling (SII-A).

The paper's third level, end to end: profile a historical window, let the
planner discover that response time gates the expensive DPI task, run the
fleet with the planned triggers, and compare weighted cost and accuracy
against plain violation-likelihood adaptation.
"""

from __future__ import annotations

from repro.experiments.multitask import multitask_experiment


def run():
    return multitask_experiment(num_vms=4, horizon=24_000)


def test_multitask_fleet(benchmark, report):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report(result.report())

    assert result.rules_planned == result.num_vms
    assert result.planned_cost < result.plain_cost
    assert result.planned_misdetection <= result.plain_misdetection
