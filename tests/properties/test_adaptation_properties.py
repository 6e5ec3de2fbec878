"""Hypothesis property tests over the adaptation invariants.

These drive the full sampler over arbitrary bounded traces and check the
invariants that must hold for *any* input: interval bounds, zero-allowance
degeneration, schedule validity, the accuracy bookkeeping identities, and
the coordination statistic's drained geometric mean.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accuracy import evaluate_sampling
from repro.core.adaptation import (AdaptationConfig,
                                   ViolationLikelihoodSampler)
from repro.core.soa import SoaSamplerEngine
from repro.core.task import TaskSpec
from repro.experiments.runner import run_sampler_on_trace
from test_soa_properties import CROSSOVER, _crossover

bounded_floats = st.floats(min_value=-1e5, max_value=1e5,
                           allow_nan=False, allow_infinity=False)
traces = st.lists(bounded_floats, min_size=5, max_size=400)


def drive(trace, task, config):
    sampler = ViolationLikelihoodSampler(task, config)
    t, intervals = 0, []
    n = len(trace)
    while t < n:
        decision = sampler.observe(float(trace[t]), t)
        intervals.append(decision.next_interval)
        t += max(1, decision.next_interval)
    return sampler, intervals


class TestIntervalInvariants:
    @given(trace=traces,
           err=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
           max_interval=st.integers(min_value=1, max_value=15))
    @settings(max_examples=120, deadline=None)
    def test_interval_always_within_bounds(self, trace, err, max_interval):
        task = TaskSpec(threshold=100.0, error_allowance=err,
                        max_interval=max_interval)
        config = AdaptationConfig(patience=2, min_samples=2)
        _, intervals = drive(trace, task, config)
        assert all(1 <= i <= max_interval for i in intervals)

    @given(trace=traces)
    @settings(max_examples=60, deadline=None)
    def test_zero_allowance_is_periodic(self, trace):
        task = TaskSpec(threshold=0.0, error_allowance=0.0)
        _, intervals = drive(trace, task, AdaptationConfig())
        assert all(i == 1 for i in intervals)

    @given(trace=traces,
           err=st.floats(min_value=0.001, max_value=0.2, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_bound_always_in_unit_interval(self, trace, err):
        task = TaskSpec(threshold=50.0, error_allowance=err,
                        max_interval=8)
        sampler = ViolationLikelihoodSampler(
            task, AdaptationConfig(patience=2, min_samples=2))
        t = 0
        while t < len(trace):
            decision = sampler.observe(float(trace[t]), t)
            assert 0.0 <= decision.misdetection_bound <= 1.0
            t += max(1, decision.next_interval)


class TestScheduleInvariants:
    @given(trace=st.lists(bounded_floats, min_size=5, max_size=300),
           err=st.floats(min_value=0.0, max_value=0.3, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_schedule_strictly_increasing_and_covers_start(self, trace,
                                                           err):
        task = TaskSpec(threshold=10.0, error_allowance=err,
                        max_interval=10)
        sampler = ViolationLikelihoodSampler(
            task, AdaptationConfig(patience=2, min_samples=2))
        result = run_sampler_on_trace(np.asarray(trace), sampler, 10.0)
        indices = result.sampled_indices
        assert indices[0] == 0
        assert (np.diff(indices) >= 1).all()
        assert indices[-1] < len(trace)

    @given(trace=st.lists(bounded_floats, min_size=5, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_accuracy_identities(self, trace):
        arr = np.asarray(trace)
        threshold = float(np.median(arr))
        sampled = list(range(0, arr.size, 3))
        result = evaluate_sampling(arr, threshold, sampled)
        assert 0 <= result.detected_alerts <= result.truth_alerts
        assert 0 <= result.detected_episodes <= result.truth_episodes
        assert 0.0 <= result.misdetection_rate <= 1.0
        assert 0.0 <= result.sampling_ratio <= 1.0
        # detected + missed fractions reconcile.
        if result.truth_alerts:
            assert result.misdetection_rate == \
                1.0 - result.detected_alerts / result.truth_alerts


class TestCoordinationInvariants:
    @given(yields=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                  st.floats(min_value=1e-9, max_value=1.0,
                            allow_nan=False)),
        min_size=2, max_size=12),
        total=st.floats(min_value=1e-4, max_value=0.5, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_allocations_conserve_total_and_respect_floor(self, yields,
                                                          total):
        from repro.core.adaptation import CoordinationStats
        from repro.core.coordination import AdaptiveAllocation

        policy = AdaptiveAllocation(step=1.0, uniform_spread=0.0)
        m = len(yields)
        current = tuple(total / m for _ in range(m))
        reports = [CoordinationStats(avg_cost_reduction=r,
                                     avg_error_needed=e,
                                     observations=10)
                   for r, e in yields]
        update = policy.reallocate(current, reports, total)
        assert sum(update.allocations) <= total * (1.0 + 1e-6)
        if update.reallocated:
            assert sum(update.allocations) >= total * (1.0 - 1e-6)
            floor = total * 0.01
            assert min(update.allocations) >= floor * (1.0 - 1e-9)


# A stream in segments: flat (a zero-variance delta, so beta is exactly 0
# and e_i sits at its clamp, 1e-12, sample after sample), noise about the
# threshold's neighbourhood, or a burst across it.
segments = st.lists(st.tuples(st.sampled_from(("flat", "noise", "burst")),
                              st.integers(min_value=1, max_value=300)),
                    min_size=1, max_size=6)


class TestCoordinationProduct:
    """A period's ``avg_error_needed`` — the product of its clamped e_i
    kept in frexp form, logged once at the drain — is the geometric mean
    of the e_i: it agrees with ``exp(fsum(log e_i) / n)`` to 1e-12
    relative, and an engine row, stepped narrow or vectorised, drains
    the scalar sampler's floats."""

    ROWS = 3

    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           segments=segments,
           stats_restart=st.sampled_from((None, 6, 40)),
           estimator=st.sampled_from(("chebyshev", "gaussian")),
           drain_every=st.sampled_from((5, 64, 100_000)),
           wide=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_the_drained_mean_is_the_mean_of_the_logs(
            self, seed, segments, stats_restart, estimator, drain_every,
            wide):
        rng = np.random.default_rng(seed)
        config = AdaptationConfig(patience=2, min_samples=3,
                                  stats_restart=stats_restart,
                                  estimator=estimator)
        task = TaskSpec(threshold=100.0, error_allowance=0.05,
                        max_interval=8)
        parts = []
        for kind, length in segments:
            level = {"flat": 20.0, "noise": 90.0, "burst": 110.0}[kind]
            noise = 0.0 if kind == "flat" else 6.0
            parts.append(level + noise * rng.standard_normal(
                (self.ROWS, length)))
        trace = np.concatenate(parts, axis=1)
        samplers = [ViolationLikelihoodSampler(task, config)
                    for _ in range(self.ROWS)]
        engine = SoaSamplerEngine()
        rows = np.asarray([engine.add_task(task, config)
                           for _ in range(self.ROWS)], dtype=np.int64)
        due = [0] * self.ROWS
        logs = [[] for _ in range(self.ROWS)]

        def drain():
            reports = [sampler.drain_coordination_stats()
                       for sampler in samplers]
            assert engine.drain_coordination(rows) == reports
            for report, period in zip(reports, logs):
                if not period:
                    assert report is None
                    continue
                want = math.exp(math.fsum(period) / len(period))
                assert report.observations == len(period)
                assert abs(report.avg_error_needed - want) <= 1e-12 * want
                period.clear()

        # Crossover 0 ticks every row vectorised; under the engine's own,
        # these few rows step one by one.
        with _crossover(0 if wide else CROSSOVER):
            for step in range(trace.shape[1]):
                values = trace[:, step]
                for i, sampler in enumerate(samplers):
                    if due[i] == step:
                        decision = sampler.observe(float(values[i]), step)
                        due[i] = step + decision.next_interval
                        logs[i].append(math.log(max(
                            decision.misdetection_bound
                            / (1.0 - config.slack_ratio), 1e-12)))
                engine.run_columns(rows, np.full(self.ROWS, step), values)
                if step % drain_every == drain_every - 1:
                    drain()
        assert engine.rows_state(rows)["observations"].tolist() == [
            sampler.observations for sampler in samplers]
        drain()
