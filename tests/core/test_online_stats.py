"""Unit and property tests for the online delta statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online_stats import OnlineStatistics, WindowedStatistics
from repro.exceptions import ConfigurationError


class TestOnlineStatistics:
    def test_empty_state(self):
        stats = OnlineStatistics()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.std == 0.0

    def test_single_observation(self):
        stats = OnlineStatistics()
        stats.update(5.0)
        assert stats.count == 1
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    def test_matches_numpy_population_moments(self, rng):
        data = rng.normal(3.0, 2.0, 400)
        stats = OnlineStatistics(restart_after=None)
        for x in data:
            stats.update(float(x))
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data)))
        assert stats.std == pytest.approx(float(np.std(data)))

    def test_restart_after_threshold(self):
        stats = OnlineStatistics(restart_after=100, min_fresh=5)
        for i in range(101):
            stats.update(float(i % 7))
        assert stats.restarts == 1
        assert stats.count == 0
        assert stats.total_count == 101

    def test_stale_estimates_served_after_restart(self):
        stats = OnlineStatistics(restart_after=50, min_fresh=10)
        for _ in range(51):
            stats.update(4.0)
        # Freshly restarted: stale mean still served.
        assert stats.count == 0
        assert stats.mean == pytest.approx(4.0)
        assert stats.effective_count == 51
        # A couple of fresh samples do not yet displace the stale value.
        stats.update(100.0)
        assert stats.mean == pytest.approx(4.0)
        # After min_fresh samples the fresh statistics take over.
        for _ in range(9):
            stats.update(100.0)
        assert stats.mean == pytest.approx(100.0)
        assert stats.effective_count == 10

    def test_reset_clears_everything(self):
        stats = OnlineStatistics(restart_after=10)
        for _ in range(25):
            stats.update(1.0)
        stats.reset()
        assert stats.count == 0
        assert stats.total_count == 0
        assert stats.mean == 0.0

    def test_rejects_non_finite(self):
        stats = OnlineStatistics()
        with pytest.raises(ValueError):
            stats.update(float("nan"))
        with pytest.raises(ValueError):
            stats.update(float("inf"))

    def test_an_overflowing_variance_restarts_without_the_observation(self):
        """A finite delta whose update overflows the variance cannot be
        held: the statistics restart without it, keeping what they held
        as the stale estimate, and stay finite; the next one is the
        first fresh sample."""
        stats = OnlineStatistics(min_fresh=2)
        stats.update(1.7e308)
        stats.update(-1.7e308)
        assert stats.restarts == 1
        assert (stats.count, stats.total_count) == (0, 2)
        assert (stats.mean, stats.variance) == (1.7e308, 0.0)  # stale
        for _ in range(2):
            stats.update(-1.0)
        assert (stats.restarts, stats.count) == (1, 2)
        assert (stats.mean, stats.variance) == (-1.0, 0.0)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            OnlineStatistics(restart_after=1)
        with pytest.raises(ConfigurationError):
            OnlineStatistics(min_fresh=0)

    def test_variance_never_negative(self):
        stats = OnlineStatistics(restart_after=None)
        # Nearly identical values provoke floating-point cancellation.
        for _ in range(1000):
            stats.update(1e9 + 1e-7)
        assert stats.variance >= 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_reference(self, data):
        stats = OnlineStatistics(restart_after=None)
        for x in data:
            stats.update(x)
        assert math.isclose(stats.mean, float(np.mean(data)),
                            rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(stats.variance, float(np.var(data)),
                            rel_tol=1e-6, abs_tol=1e-3)


class TestWindowedStatistics:
    def test_window_eviction(self):
        stats = WindowedStatistics(window=3)
        for x in (1.0, 2.0, 3.0, 4.0):
            stats.update(x)
        assert stats.count == 3
        assert stats.mean == pytest.approx(3.0)

    def test_matches_numpy_over_window(self, rng):
        data = rng.normal(0.0, 1.0, 100)
        stats = WindowedStatistics(window=32)
        for x in data:
            stats.update(float(x))
        tail = data[-32:]
        assert stats.mean == pytest.approx(float(np.mean(tail)))
        assert stats.variance == pytest.approx(float(np.var(tail)),
                                               abs=1e-9)

    def test_empty_window(self):
        stats = WindowedStatistics(window=4)
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_reset(self):
        stats = WindowedStatistics(window=4)
        stats.update(10.0)
        stats.reset()
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            WindowedStatistics(window=1)

    def test_rejects_non_finite(self):
        stats = WindowedStatistics(window=4)
        with pytest.raises(ValueError):
            stats.update(float("nan"))
