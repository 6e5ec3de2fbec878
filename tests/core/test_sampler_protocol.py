"""Protocol conformance: every sampler is interchangeable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (OracleSampler, PeriodicSampler,
                             RandomIntervalSampler)
from repro.core.adaptation import ViolationLikelihoodSampler
from repro.core.sampler import SamplingScheme
from repro.core.task import TaskSpec
from repro.experiments.runner import run_sampler_on_trace


def all_schemes(rng):
    task = TaskSpec(threshold=10.0, error_allowance=0.01, max_interval=5)
    values = np.zeros(50)
    return [
        ViolationLikelihoodSampler(task),
        PeriodicSampler(interval=2),
        OracleSampler(values, 10.0, heartbeat=5),
        RandomIntervalSampler(3.0, rng),
    ]


def test_every_scheme_satisfies_protocol(rng):
    for scheme in all_schemes(rng):
        assert isinstance(scheme, SamplingScheme), type(scheme)


def test_every_scheme_drives_the_runner(rng):
    values = np.zeros(50)
    for scheme in all_schemes(rng):
        result = run_sampler_on_trace(values, scheme, 10.0)
        assert result.sampled_indices[0] == 0
        assert (np.diff(result.sampled_indices) >= 1).all()


def test_decisions_report_positive_intervals(rng):
    for scheme in all_schemes(rng):
        decision = scheme.observe(0.0, 0)
        assert decision.next_interval >= 1
        assert 0.0 <= decision.misdetection_bound <= 1.0


def test_oracle_supports_lower_direction():
    from repro.types import ThresholdDirection

    values = np.full(30, 5.0)
    values[20] = -1.0
    oracle = OracleSampler(values, 0.0,
                           direction=ThresholdDirection.LOWER)
    result = run_sampler_on_trace(values, oracle, 0.0,
                                  ThresholdDirection.LOWER)
    assert result.misdetection_rate == 0.0
    assert 20 in result.sampled_indices
    assert result.accuracy.samples_taken <= 3


def test_protocol_rejects_non_samplers():
    class NotASampler:
        pass

    assert not isinstance(NotASampler(), SamplingScheme)
