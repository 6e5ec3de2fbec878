"""Tests for declarative service configuration."""

from __future__ import annotations

import json

import pytest

from repro.config import (register_task_from_config, service_from_config,
                          task_from_config)
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.types import ThresholdDirection

GOOD = {
    "defaults": {"error_allowance": 0.02, "max_interval": 8},
    "tasks": [
        {"name": "ddos", "threshold": 1000.0},
        {"name": "response", "threshold": 120.0,
         "error_allowance": 0.005},
        {"name": "cpu-1min", "threshold": 85.0, "window": 12,
         "aggregate": "mean"},
        {"name": "free-mem", "threshold": 512.0, "direction": "lower"},
    ],
    "triggers": [
        {"target": "ddos", "trigger": "response",
         "elevation_level": 60.0, "suspend_interval": 10},
    ],
}


class TestTaskFromConfig:
    def test_defaults_applied(self):
        spec = task_from_config({"name": "t", "threshold": 5.0},
                                {"error_allowance": 0.03})
        assert spec.error_allowance == 0.03
        assert spec.name == "t"

    def test_entry_overrides_defaults(self):
        spec = task_from_config(
            {"name": "t", "threshold": 5.0, "error_allowance": 0.001},
            {"error_allowance": 0.03})
        assert spec.error_allowance == 0.001

    def test_direction_parsed(self):
        spec = task_from_config(
            {"name": "t", "threshold": 5.0, "direction": "lower"})
        assert spec.direction is ThresholdDirection.LOWER

    @pytest.mark.parametrize("entry", [
        {"threshold": 5.0},                       # no name
        {"name": "t"},                            # no threshold
        {"name": "t", "threshold": 1.0, "typo": 1},
        {"name": "t", "threshold": 1.0, "direction": "sideways"},
        "not-a-dict",
    ])
    def test_rejects_bad_entries(self, entry):
        with pytest.raises(ConfigurationError):
            task_from_config(entry)  # type: ignore[arg-type]


class TestServiceFromConfig:
    def test_full_wiring(self):
        service = service_from_config(GOOD)
        assert set(service.task_names) == {"ddos", "response", "cpu-1min",
                                           "free-mem"}
        # The trigger is live: a cold response metric idles the ddos task.
        service.offer("response", 5.0, 0)
        service.offer("ddos", 1.0, 0)
        assert service.next_due("ddos") == 10

    def test_json_round_trip(self):
        service = service_from_config(json.loads(json.dumps(GOOD)))
        assert len(service.task_names) == 4

    def test_windowed_task_configured(self):
        service = service_from_config(GOOD)
        # A single spike does not alert a 12-step mean task.
        service.offer("cpu-1min", 90.0, 0)
        service.offer("cpu-1min", 10.0, 1)
        assert service.alerts("cpu-1min")[0:1]  # first point mean is 90

    @pytest.mark.parametrize("config", [
        {},                                           # no tasks
        {"tasks": []},
        {"tasks": [{"name": "a", "threshold": 1.0}], "extra": 1},
        {"defaults": {"typo": 1},
         "tasks": [{"name": "a", "threshold": 1.0}]},
        {"tasks": [{"name": "a", "threshold": 1.0}],
         "triggers": [{"target": "a", "trigger": "missing",
                       "elevation_level": 1.0}]},
        {"tasks": [{"name": "a", "threshold": 1.0}],
         "triggers": [{"target": "a"}]},
        "nope",
    ])
    def test_rejects_bad_configs(self, config):
        with pytest.raises(ConfigurationError):
            service_from_config(config)  # type: ignore[arg-type]

    def test_trigger_plans_install_debounced_guards(self):
        # The config root the servers' apply_config takes: a plan guards
        # b on a, and a watches with the plan's debounce.
        service = service_from_config({
            "tasks": [{"name": "a", "threshold": 10.0},
                      {"name": "b", "threshold": 10.0}],
            "trigger_plans": [{"target": "b", "trigger": "a",
                               "elevation_level": 5.0, "min_hold": 3}]})
        assert service.trigger_status("b")["trigger"] == "a"
        assert service.trigger_status("a")["watch"]["min_hold"] == 3

    @pytest.mark.parametrize("plan", [
        {"target": "b", "trigger": "missing", "elevation_level": 1.0},
        {"target": "b", "trigger": "a"},
        {"target": "b", "trigger": "a", "elevation_level": 1.0, "typo": 1},
        "nope",
    ])
    def test_bad_trigger_plans_rejected(self, plan):
        with pytest.raises(ConfigurationError):
            service_from_config({
                "tasks": [{"name": "a", "threshold": 10.0},
                          {"name": "b", "threshold": 10.0}],
                "trigger_plans": [plan]})

    def test_duplicate_names_rejected(self):
        config = {"tasks": [{"name": "a", "threshold": 1.0},
                            {"name": "a", "threshold": 2.0}]}
        with pytest.raises(ConfigurationError):
            service_from_config(config)


class TestTypedTaskEntries:
    """Config validation for sketch-backed task types (fail-closed)."""

    def test_quantile_task_configured(self):
        service = service_from_config({"tasks": [
            {"name": "p99", "threshold": 80.0, "type": "quantile",
             "quantile": 0.99, "sketch_window": 32,
             "relative_error": 0.02}]})
        assert service.task_type("p99") == "quantile"

    def test_entropy_task_defaults_to_lower_direction(self):
        service = service_from_config({"tasks": [
            {"name": "flow", "threshold": 2.0, "type": "entropy",
             "entropy_window": 16, "bin_width": 4.0}]})
        assert service.task_type("flow") == "entropy"
        # Entropy predicates are drop-below unless overridden.
        service.offer("flow", 1.0, 0)
        assert service.alerts("flow")  # one cold symbol: entropy 0 < 2

    @pytest.mark.parametrize("entry", [
        # Unknown type.
        {"name": "t", "threshold": 1.0, "type": "histogram"},
        # Quantile kind without the required quantile key.
        {"name": "t", "threshold": 1.0, "type": "quantile"},
        # Typed keys on the wrong kind.
        {"name": "t", "threshold": 1.0, "quantile": 0.99},
        {"name": "t", "threshold": 1.0, "type": "entropy",
         "quantile": 0.99},
        {"name": "t", "threshold": 1.0, "type": "quantile",
         "quantile": 0.99, "bin_width": 2.0},
        {"name": "t", "threshold": 1.0, "sketch_window": 8},
        {"name": "t", "threshold": 1.0, "entropy_window": 8},
        # Aggregation windows apply to scalar tasks only.
        {"name": "t", "threshold": 1.0, "type": "quantile",
         "quantile": 0.99, "window": 4},
        {"name": "t", "threshold": 1.0, "type": "entropy",
         "aggregate": "mean"},
    ])
    def test_rejects_inconsistent_typed_entries(self, entry):
        with pytest.raises(ConfigurationError):
            service_from_config({"tasks": [entry]})

    def test_register_helper_is_the_single_dispatch_point(self):
        service = MonitoringService(AdaptationConfig())
        for entry in (
                {"name": "v", "threshold": 10.0},
                {"name": "q", "threshold": 80.0, "type": "quantile",
                 "quantile": 0.9},
                {"name": "h", "threshold": 2.0, "type": "entropy"}):
            spec = register_task_from_config(service, entry)
            assert spec.name == entry["name"]
        assert service.task_type_counts() \
            == {"value": 1, "quantile": 1, "entropy": 1}
