"""Tests for the shared value types."""

from __future__ import annotations

import pytest

from repro.types import Alert, GlobalPoll, Sample, ThresholdDirection


class TestThresholdDirection:
    def test_upper_violated(self):
        assert ThresholdDirection.UPPER.violated(11.0, 10.0)
        assert not ThresholdDirection.UPPER.violated(10.0, 10.0)
        assert not ThresholdDirection.UPPER.violated(9.0, 10.0)

    def test_lower_violated(self):
        assert ThresholdDirection.LOWER.violated(9.0, 10.0)
        assert not ThresholdDirection.LOWER.violated(10.0, 10.0)
        assert not ThresholdDirection.LOWER.violated(11.0, 10.0)

    def test_orient_round_trip(self):
        # Orientation maps lower-threshold checks onto upper-threshold
        # math: v < T  <=>  -v > -T.
        value, threshold = 7.0, 10.0
        assert (ThresholdDirection.LOWER.orient(value)
                > -threshold) == ThresholdDirection.LOWER.violated(
                    value, threshold)
        assert ThresholdDirection.UPPER.orient(value) == value


class TestRecords:
    def test_sample_immutable(self):
        sample = Sample(time_index=3, value=1.5)
        with pytest.raises(AttributeError):
            sample.value = 2.0  # type: ignore[misc]

    def test_alert_fields(self):
        alert = Alert(time_index=5, value=12.0, threshold=10.0)
        assert alert.value > alert.threshold

    def test_global_poll_fields(self):
        poll = GlobalPoll(time_index=1, values=(1.0, 2.0), total=3.0,
                          violated=False)
        assert poll.total == sum(poll.values)
