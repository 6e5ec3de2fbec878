#!/usr/bin/env python3
"""Multi-task state correlation (paper SII-A "State Correlation").

The paper's example: rising response time is a *necessary condition* of a
successful DDoS attack, so the expensive DDoS task (deep packet
inspection) only needs intensive sampling while the cheap response-time
metric is elevated. This script:

1. generates correlated response-time and traffic-difference streams,
2. lets :class:`CorrelationPlanner` discover the trigger automatically,
3. runs the guarded task and compares cost/accuracy against plain
   adaptive sampling and periodic sampling.

Run: python examples/correlated_tasks.py
"""

from __future__ import annotations

import numpy as np

from repro import (AdaptationConfig, CorrelationPlanner, TaskProfile,
                   TaskSpec, run_adaptive, run_periodic, run_triggered)
from repro.workloads import TrafficDifferenceGenerator

HORIZON = 40_000
DPI_COST = 40.0  # one DPI sampling op costs ~40x a counter read


def correlated_streams(rng: np.random.Generator):
    """Response time (cheap) leads traffic difference (expensive)."""
    response = 20.0 + rng.normal(0.0, 1.5, HORIZON)
    rho = TrafficDifferenceGenerator(burst_prob=0.0).generate(HORIZON, rng)
    # Attack-ish episodes: response time rises, then rho follows. The
    # planner's elevation level is the midpoint between response time in
    # an incident (median) and outside one, so an episode must raise it by
    # more than half the median rise for the guard to see it. Here the
    # weakest rise (150) is half the strongest (300), so none falls short.
    starts = rng.choice(np.arange(3000, HORIZON - 200), size=12,
                        replace=False)
    for s in np.sort(starts):
        span = int(rng.integers(60, 140))
        response[s:s + span] += rng.uniform(150.0, 300.0)
        rho[s + 10:s + span - 10] += rng.uniform(2000.0, 6000.0)
    return response, rho


def main() -> None:
    rng = np.random.default_rng(99)
    response, rho = correlated_streams(rng)
    rho_threshold = 1000.0

    planner = CorrelationPlanner(min_score=0.9, loss_budget=0.1,
                                 suspend_interval=10)
    rules = planner.plan([
        TaskProfile(task_id="response-time", values=response,
                    threshold=150.0, cost_per_sample=1.0),
        TaskProfile(task_id="ddos-dpi", values=rho,
                    threshold=rho_threshold, cost_per_sample=DPI_COST),
    ])
    if not rules:
        raise SystemExit("planner found no usable correlation")
    rule = rules[0]
    ev = rule.evidence
    print("discovered trigger rule:")
    print(f"  guard '{rule.target_id}' with '{rule.trigger_id}'")
    print(f"  necessary-condition score: {ev.necessary_condition_score:.3f}"
          f"  (pearson {ev.pearson:.2f})")
    print(f"  trigger elevated {ev.elevated_fraction:.1%} of the time; "
          f"elevation level {rule.elevation_level:.1f}")
    print(f"  expected saving {rule.expected_saving:.1f} cost-units/step, "
          f"estimated extra miss risk {rule.estimated_loss:.3f}\n")

    task = TaskSpec(threshold=rho_threshold, error_allowance=0.01,
                    max_interval=10, name="ddos-dpi")
    periodic = run_periodic(rho, rho_threshold)
    plain = run_adaptive(rho, task)
    guarded = run_triggered(rho, response, task, rule.elevation_level,
                            suspend_interval=planner.suspend_interval,
                            config=AdaptationConfig())

    header = (f"{'scheme':<22} {'cost ratio':>11} {'DPI cost':>10} "
              f"{'mis-detection':>14}")
    print(header)
    print("-" * len(header))
    for name, result in (("periodic", periodic),
                         ("volley", plain),
                         ("volley + correlation", guarded)):
        dpi = result.sampling_ratio * DPI_COST
        print(f"{name:<22} {result.sampling_ratio:>11.3f} {dpi:>10.1f} "
              f"{result.misdetection_rate:>14.4f}")

    extra = plain.sampling_ratio - guarded.sampling_ratio
    print(f"\nCorrelation triggering removed a further "
          f"{extra:.1%} of DPI sampling operations on top of "
          f"violation-likelihood adaptation.")


if __name__ == "__main__":
    main()
