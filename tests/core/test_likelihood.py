"""Unit and property tests for violation-likelihood estimation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.likelihood import (cantelli_upper_bound,
                                   max_admissible_interval,
                                   misdetection_bound,
                                   misdetection_bound_fused,
                                   step_violation_bound)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
positive_std = st.floats(min_value=1e-6, max_value=1e4,
                         allow_nan=False, allow_infinity=False)


class TestCantelli:
    def test_vacuous_for_non_positive_k(self):
        assert cantelli_upper_bound(0.0) == 1.0
        assert cantelli_upper_bound(-3.0) == 1.0

    def test_known_values(self):
        assert cantelli_upper_bound(1.0) == pytest.approx(0.5)
        assert cantelli_upper_bound(3.0) == pytest.approx(0.1)

    def test_decreasing_in_k(self):
        ks = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        bounds = [cantelli_upper_bound(k) for k in ks]
        assert bounds == sorted(bounds, reverse=True)


class TestStepViolationBound:
    def test_far_below_threshold_is_small(self):
        bound = step_violation_bound(value=0.0, threshold=100.0,
                                     mean=0.0, std=1.0, steps=1)
        assert bound == pytest.approx(1.0 / (1.0 + 100.0 ** 2))

    def test_above_threshold_is_one(self):
        assert step_violation_bound(150.0, 100.0, 0.0, 1.0, 1) == 1.0

    def test_zero_std_deterministic(self):
        # Extrapolation stays below the threshold: impossible to violate.
        assert step_violation_bound(0.0, 10.0, 1.0, 0.0, 5) == 0.0
        # Extrapolation reaches the threshold: certain under the model.
        assert step_violation_bound(0.0, 10.0, 1.0, 0.0, 10) == 1.0

    def test_positive_drift_raises_bound(self):
        no_drift = step_violation_bound(0.0, 50.0, 0.0, 2.0, 5)
        drift = step_violation_bound(0.0, 50.0, 5.0, 2.0, 5)
        assert drift > no_drift

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            step_violation_bound(0.0, 1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            step_violation_bound(0.0, 1.0, 0.0, -1.0, 1)

    @given(value=finite, threshold=finite, mean=finite, std=positive_std,
           steps=st.integers(min_value=1, max_value=50))
    @settings(max_examples=150, deadline=None)
    def test_property_in_unit_interval(self, value, threshold, mean, std,
                                       steps):
        bound = step_violation_bound(value, threshold, mean, std, steps)
        assert 0.0 <= bound <= 1.0

    @given(value=finite, threshold=finite, mean=finite, std=positive_std)
    @settings(max_examples=100, deadline=None)
    def test_property_more_steps_not_tighter_without_drift(
            self, value, threshold, mean, std):
        # With zero drift the uncertainty only grows with horizon.
        b1 = step_violation_bound(value, threshold, 0.0, std, 1)
        b5 = step_violation_bound(value, threshold, 0.0, std, 5)
        assert b5 >= b1 - 1e-12


class TestMisdetectionBound:
    def test_increases_with_interval(self):
        bounds = [misdetection_bound(0.0, 50.0, 0.0, 2.0, i)
                  for i in range(1, 11)]
        for earlier, later in zip(bounds, bounds[1:]):
            assert later >= earlier

    def test_interval_one_equals_step_bound(self):
        b = misdetection_bound(0.0, 50.0, 0.5, 2.0, 1)
        s = step_violation_bound(0.0, 50.0, 0.5, 2.0, 1)
        assert b == pytest.approx(s)

    def test_certain_when_any_step_is_certain(self):
        # Drift carries the value over the threshold within the interval.
        assert misdetection_bound(0.0, 10.0, 2.0, 0.0, 10) == 1.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            misdetection_bound(0.0, 1.0, 0.0, 1.0, 0)

    @given(value=finite, threshold=finite, mean=finite, std=positive_std,
           interval=st.integers(min_value=1, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_property_in_unit_interval_and_monotone(self, value, threshold,
                                                    mean, std, interval):
        bound = misdetection_bound(value, threshold, mean, std, interval)
        assert 0.0 <= bound <= 1.0
        if interval > 1:
            smaller = misdetection_bound(value, threshold, mean, std,
                                         interval - 1)
            assert bound >= smaller - 1e-12

    @given(std=positive_std, interval=st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_property_farther_threshold_never_larger(self, std, interval):
        near = misdetection_bound(0.0, 10.0, 0.0, std, interval)
        far = misdetection_bound(0.0, 1000.0, 0.0, std, interval)
        assert far <= near + 1e-12


class TestFusedKernels:
    """The fused kernel must be bit-for-bit equal to the reference."""

    @given(value=finite, threshold=finite, mean=finite, std=positive_std,
           interval=st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_chebyshev_fused_bit_equal(self, value, threshold, mean, std,
                                       interval):
        reference = misdetection_bound(value, threshold, mean, std, interval)
        fused = misdetection_bound_fused(value, threshold, mean, std,
                                         interval)
        assert fused == reference  # exact, not approx

    @given(value=finite, threshold=finite, mean=finite,
           interval=st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_zero_std_bit_equal(self, value, threshold, mean, interval):
        assert misdetection_bound_fused(value, threshold, mean, 0.0,
                                        interval) == \
            misdetection_bound(value, threshold, mean, 0.0, interval)

    def test_fused_rejects_bad_args(self):
        with pytest.raises(ValueError):
            misdetection_bound_fused(0.0, 1.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            misdetection_bound_fused(0.0, 1.0, 0.0, -1.0, 1)


class TestMaxAdmissibleInterval:
    def _oracle(self, value, threshold, mean, std, err, max_interval):
        """Largest I with beta(I) <= err by exhaustive point queries."""
        best = 0
        for i in range(1, max_interval + 1):
            if misdetection_bound(value, threshold, mean, std, i) <= err:
                best = i
        return best

    @given(value=finite, threshold=finite, mean=finite, std=positive_std,
           err=st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
           max_interval=st.integers(min_value=1, max_value=15))
    @settings(max_examples=200, deadline=None)
    def test_matches_probing_oracle(self, value, threshold, mean, std, err,
                                    max_interval):
        got = max_admissible_interval(value, threshold, mean, std, err,
                                      max_interval)
        assert got == self._oracle(value, threshold, mean, std, err,
                                   max_interval)

    @given(value=finite, threshold=finite, mean=finite, err=st.floats(
        min_value=0.0, max_value=0.999, allow_nan=False),
        max_interval=st.integers(min_value=1, max_value=15))
    @settings(max_examples=100, deadline=None)
    def test_matches_probing_oracle_zero_std(self, value, threshold, mean,
                                             err, max_interval):
        got = max_admissible_interval(value, threshold, mean, 0.0, err,
                                      max_interval)
        assert got == self._oracle(value, threshold, mean, 0.0, err,
                                   max_interval)

    def test_violating_value_returns_zero(self):
        assert max_admissible_interval(5.0, 5.0, 0.0, 1.0, 0.1, 10) == 0
        assert max_admissible_interval(9.0, 5.0, 0.0, 1.0, 0.1, 10) == 0

    def test_err_one_admits_everything_up_to_cap(self):
        assert max_admissible_interval(0.0, 10.0, 0.0, 1.0, 1.0, 7) == 7
        with pytest.raises(ValueError):
            max_admissible_interval(0.0, 10.0, 0.0, 1.0, 1.0, None)

    def test_unbounded_deterministic_trace_raises(self):
        # std == 0, non-positive drift: never violates, no finite answer.
        with pytest.raises(ValueError):
            max_admissible_interval(0.0, 10.0, -1.0, 0.0, 0.1, None)

    def test_unbounded_with_drift_is_finite(self):
        # std == 0, positive drift: crossing at gap0/mean.
        got = max_admissible_interval(0.0, 10.0, 2.0, 0.0, 0.1, None)
        assert got == 4  # gap0 - 5*2 = 0, not > 0 -> last admissible is 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            max_admissible_interval(0.0, 1.0, 0.0, -1.0, 0.1, 10)
        with pytest.raises(ValueError):
            max_admissible_interval(0.0, 1.0, 0.0, 1.0, 1.5, 10)
        with pytest.raises(ValueError):
            max_admissible_interval(0.0, 1.0, 0.0, 1.0, 0.1, 0)
