"""Tests for aggregation-time-window tasks (paper SVII extension)."""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import TaskSpec
from repro.core.windowed import (AggregateKind, WindowedTaskSpec,
                                 aggregate_trace, run_windowed_adaptive)
from repro.exceptions import ConfigurationError, TraceError
from repro.experiments.runner import run_adaptive


class TestAggregateTrace:
    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 4.0])
        out = aggregate_trace(values, 1, AggregateKind.MEAN)
        assert np.array_equal(out, values)
        assert out is not values  # caller's array is never aliased

    def test_mean(self):
        values = np.array([2.0, 4.0, 6.0, 8.0])
        out = aggregate_trace(values, 2, AggregateKind.MEAN)
        assert out.tolist() == [2.0, 3.0, 5.0, 7.0]

    def test_sum(self):
        values = np.array([1.0, 1.0, 1.0, 1.0])
        out = aggregate_trace(values, 3, AggregateKind.SUM)
        assert out.tolist() == [1.0, 2.0, 3.0, 3.0]

    def test_max_min(self):
        values = np.array([1.0, 5.0, 2.0, 0.0, 3.0])
        assert aggregate_trace(values, 3, AggregateKind.MAX).tolist() == \
            [1.0, 5.0, 5.0, 5.0, 3.0]
        assert aggregate_trace(values, 3, AggregateKind.MIN).tolist() == \
            [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_leading_edge_partial_window(self):
        values = np.array([10.0, 0.0])
        out = aggregate_trace(values, 5, AggregateKind.MEAN)
        assert out[0] == 10.0
        assert out[1] == 5.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            aggregate_trace(np.ones(3), 0)
        with pytest.raises(TraceError):
            aggregate_trace(np.array([]), 2)

    @given(window=st.integers(min_value=1, max_value=20),
           data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False),
                         min_size=1, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_naive_mean(self, window, data):
        values = np.asarray(data)
        out = aggregate_trace(values, window, AggregateKind.MEAN)
        for t in range(values.size):
            lo = max(0, t - window + 1)
            assert out[t] == pytest.approx(values[lo:t + 1].mean(),
                                           rel=1e-9, abs=1e-6)

    @given(window=st.integers(min_value=1, max_value=20),
           data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False),
                         min_size=1, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_naive_max(self, window, data):
        values = np.asarray(data)
        out = aggregate_trace(values, window, AggregateKind.MAX)
        for t in range(values.size):
            lo = max(0, t - window + 1)
            assert out[t] == values[lo:t + 1].max()

    @given(window=st.integers(min_value=1, max_value=70),
           kind=st.sampled_from(AggregateKind),
           data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False),
                         min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_property_is_the_window_reduced_oldest_first(self, window, kind,
                                                         data):
        """Bit for bit what the live service reads, windows longer than
        the stream included: a sum added from the oldest, a zero
        extremum ``+0.0``."""
        values = np.asarray(data)
        out = aggregate_trace(values, window, kind)
        for t in range(values.size):
            held = data[max(0, t - window + 1):t + 1]
            if kind in (AggregateKind.MAX, AggregateKind.MIN):
                expected = (max if kind is AggregateKind.MAX
                            else min)(held) + 0.0
            else:
                expected = functools.reduce(operator.add, held, -0.0)
                if kind is AggregateKind.MEAN:
                    expected /= len(held)
            assert out[t] == expected and (
                math.copysign(1.0, out[t]) == math.copysign(1.0, expected))


class TestWindowedTaskSpec:
    def test_validation(self):
        task = TaskSpec(threshold=1.0, error_allowance=0.01)
        with pytest.raises(ConfigurationError):
            WindowedTaskSpec(task=task, window=0)

    def test_offline_windows_have_no_ring_bound(self):
        """Only a live task keeps a ring (``core.soa.MAX_WINDOW``);
        offline analysis takes any window."""
        spec = WindowedTaskSpec(
            task=TaskSpec(threshold=1e9, error_allowance=0.01),
            window=100_000, kind=AggregateKind.SUM)
        result = run_windowed_adaptive(np.ones(50), spec)
        assert result.aggregated.tolist() == list(map(float, range(1, 51)))


class TestRunWindowedAdaptive:
    def test_aggregation_smooths_and_saves(self, rng):
        # A noisy stream whose 20-step mean is much smoother: the windowed
        # task should sample less than the instantaneous task at the same
        # allowance.
        raw = 50.0 + rng.normal(0.0, 5.0, 20_000)
        threshold_raw = float(np.percentile(raw, 99.6))
        instant = run_adaptive(raw, TaskSpec(threshold=threshold_raw,
                                             error_allowance=0.01,
                                             max_interval=10))

        aggregated = aggregate_trace(raw, 20, AggregateKind.MEAN)
        threshold_win = float(np.percentile(aggregated, 99.6))
        spec = WindowedTaskSpec(
            task=TaskSpec(threshold=threshold_win, error_allowance=0.01,
                          max_interval=10),
            window=20)
        windowed = run_windowed_adaptive(raw, spec)
        assert windowed.sampling_ratio < instant.sampling_ratio

    def test_detects_sustained_violation(self, rng):
        raw = 10.0 + rng.normal(0.0, 0.5, 5000)
        raw[3000:3100] = 60.0  # sustained burst
        spec = WindowedTaskSpec(
            task=TaskSpec(threshold=30.0, error_allowance=0.01,
                          max_interval=10),
            window=10)
        result = run_windowed_adaptive(raw, spec)
        assert result.accuracy.truth_alerts > 0
        assert result.misdetection_rate <= 0.2
        assert result.aggregated.size == raw.size

    def test_window_one_equals_instant_task(self, bursty_trace):
        task = TaskSpec(threshold=100.0, error_allowance=0.01,
                        max_interval=10)
        instant = run_adaptive(bursty_trace, task)
        windowed = run_windowed_adaptive(
            bursty_trace, WindowedTaskSpec(task=task, window=1))
        assert np.array_equal(instant.sampled_indices,
                              windowed.sampled_indices)
