"""Multi-task state-correlation benchmark (paper SII-A, our S7).

Measures the extra saving from guarding an expensive task with a cheap
correlated trigger on top of violation-likelihood adaptation, and the
accuracy cost of doing so.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.correlation import CorrelationPlanner, TaskProfile
from repro.core.task import TaskSpec
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_adaptive, run_triggered
from repro.simulation.randomness import RandomStreams
from repro.workloads import TrafficDifferenceGenerator


def build_streams():
    rng = RandomStreams(17).stream("bench-correlation")
    n = 30_000
    response = 20.0 + rng.normal(0.0, 1.5, n)
    rho = TrafficDifferenceGenerator(burst_prob=0.0).generate(n, rng)
    for s in range(2500, n - 200, 2500):
        span = int(rng.integers(80, 140))
        response[s:s + span] += rng.uniform(120.0, 280.0)
        rho[s + 10:s + span - 10] += rng.uniform(2500.0, 6000.0)
    return response, rho


def run():
    response, rho = build_streams()
    threshold = 1000.0
    planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1,
                                 suspend_interval=10)
    rules = planner.plan([
        TaskProfile(task_id="response", values=response, threshold=150.0,
                    cost_per_sample=1.0),
        TaskProfile(task_id="ddos", values=rho, threshold=threshold,
                    cost_per_sample=40.0),
    ])
    assert rules, "planner must find the designed correlation"
    rule = rules[0]

    task = TaskSpec(threshold=threshold, error_allowance=0.01,
                    max_interval=10)
    plain = run_adaptive(rho, task)
    guarded = run_triggered(rho, response, task, rule.elevation_level,
                            suspend_interval=10,
                            config=AdaptationConfig())
    return rule, plain, guarded


def test_correlation_guarding(benchmark, report):
    rule, plain, guarded = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["volley", plain.sampling_ratio, plain.misdetection_rate],
        ["volley+trigger", guarded.sampling_ratio,
         guarded.misdetection_rate],
    ]
    report(format_table(["scheme", "cost-ratio", "mis-detection"], rows,
                        title=(f"Correlation guarding (score="
                               f"{rule.evidence.necessary_condition_score:.3f}, "
                               f"trigger hot "
                               f"{rule.evidence.elevated_fraction:.0%} of "
                               f"time)")))

    # Guarding saves on top of adaptation...
    assert guarded.sampling_ratio < plain.sampling_ratio
    # ...and misses no more than plain adaptation does.
    assert guarded.misdetection_rate <= plain.misdetection_rate
