"""Tests for the datacenter-level multi-task experiment."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.multitask import multitask_experiment


class TestMultitaskExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return multitask_experiment(num_vms=2, horizon=12_000)

    def test_planner_finds_rules(self, result):
        # The designed correlation (response leads rho) must be found on
        # every VM's profile window.
        assert result.rules_planned == result.num_vms

    def test_plan_reduces_weighted_cost(self, result):
        assert result.planned_cost < result.plain_cost
        assert 0.0 < result.planned_cost < 1.0

    def test_accuracy_within_budget(self, result):
        # The guard idles only while the trigger sits below a level above
        # its noise, and its arm edge resumes full rate: no violation the
        # plain schedule catches is lost.
        assert result.planned_misdetection <= result.plain_misdetection

    def test_report_renders(self, result):
        text = result.report()
        assert "Multi-task" in text
        assert "correlation plan" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            multitask_experiment(num_vms=0)
        with pytest.raises(ConfigurationError):
            multitask_experiment(num_vms=1, profile_fraction=0.01)
