"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.exceptions import (ConfigurationError, CoordinationError,
                              CorrelationError, ReproError, TraceError)


@pytest.mark.parametrize("exc", [ConfigurationError, CoordinationError,
                                 CorrelationError, TraceError])
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    assert issubclass(exc, Exception)


def test_single_catch_at_api_boundary():
    """A caller can guard any library call with one except clause."""
    from repro.core.task import TaskSpec

    with pytest.raises(ReproError):
        TaskSpec(threshold=1.0, error_allowance=7.0)
