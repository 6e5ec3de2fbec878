"""Docs-vs-code consistency: docs/API.md may not name missing symbols.

Every backticked identifier in the API reference that looks like a public
symbol must exist in the package it is documented under; otherwise docs
and code have drifted.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
import repro.analysis
import repro.baselines
import repro.core
import repro.datacenter
import repro.exceptions
import repro.cluster
import repro.config
import repro.experiments
import repro.runtime
import repro.runtime.frontend
import repro.scenarios
import repro.simulation
import repro.telemetry
import repro.testkit
import repro.testkit.scenarios
import repro.triggers
import repro.workloads
from repro.experiments import (delay, figures, monetary, multitask,
                               reliability)

API_MD = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"

NAMESPACES = [repro, repro.core, repro.experiments, repro.workloads,
              repro.datacenter, repro.simulation, repro.baselines,
              repro.analysis, repro.exceptions, repro.config,
              repro.runtime, repro.runtime.frontend, repro.scenarios,
              repro.telemetry,
              repro.cluster, repro.triggers,
              repro.testkit, repro.testkit.scenarios,
              figures, monetary, delay, multitask, reliability]


def documented_symbols() -> set[str]:
    text = API_MD.read_text()
    # Backticked CamelCase classes and snake_case callables, first token
    # before any "(" or ".".
    raw = re.findall(r"`([A-Za-z_][A-Za-z0-9_./]*)", text)
    symbols = set()
    for item in raw:
        head = item.split("(")[0].split(".")[0].split("/")[0]
        if head and (head[0].isupper() or "_" in head):
            symbols.add(head)
    return symbols


IGNORED = {
    # config/file/env tokens, not Python symbols
    "REPRO_SCALE", "REPRO_WORKERS", "REPRO_CACHE_DIR", "PYTHONHASHSEED",
    "error_allowance", "local_thresholds", "max_interval",
    "trace_hook", "message_loss_rate", "except_ReproError",
    "default_interval", "add_task", "add_trigger", "generate_with_volume",
    "sampling_ratio", "dom0_utilization_stats", "monitor_accuracy",
    "monetary_bill", "schedule_every", "run_until",
    # runtime wire ops / methods / CLI artifacts, not module attributes
    "register_task", "remove_task", "offer_batch", "task_info",
    "serve_forever",
    # testkit FaultPlan/FaultSpec methods, not module attributes
    "frame_fault", "duplicate_offer", "force_shed", "shard_fault",
    "checkpoint_fault", "crash_steps", "to_dict", "from_dict",
    "fault_hook", "checkpoint_armed",
    # telemetry config keys, metric-name prefixes, instrument/trace
    # methods and math tokens, not module attributes
    "http_port", "trace_capacity", "selfmon_interval", "relative_error",
    "dump_jsonl", "volley_selfmon_", "volley_sampler_",
    "interval_adapted", "allowance_reallocated", "checkpoint_written",
    # scenario CLI artifacts and Timeline/compiled methods, not module
    # attributes
    "BENCH_scenarios", "phase_spans", "fault_spec", "fault_seed",
    "phase_spread", "ramp_steps", "entropy_shift", "random_walk",
    # cluster config keys, placement fields and the worker-op prefix,
    # not module attributes
    "worker_endpoints", "worker_id", "shard_id", "w_",
    # binary-protocol / SoA-engine methods, not module attributes
    "offer_columns", "soa_row_for", "run_columns", "observe_one",
    "drain_coordination", "drain_coordination_stats",
    "row_state_dict", "rows_state", "load_rows_state", "add_tasks",
    "state_dict", "sampler_state_columns", "sampler_state_dict",
    # the snapshot format's constants and reader (repro.service,
    # .runtime.checkpoint, .core.soa), not package attributes
    "SNAPSHOT_VERSION", "CHECKPOINT_VERSION", "SAMPLER_STATE",
    "snapshot_task_names",
    "mark_row", "set_floor", "resume_full_rate", "next_due", "event_",
    "viol_", "alert_count", "set_alert_count_sink", "emit_block",
    "ts_monotonic", "next_seq", "alerts_fired",
    # typed-task substrate/service methods, config keys, Timeline fields
    # and math tokens (p_q(X), P(X > T), add_*_task), not module
    # attributes
    "add_", "P", "p_q", "bin_width", "entropy_window", "sketch_window",
    "sketch_factory", "plant_sketch_factory", "quantile_value",
    "from_state_dict", "task_type", "task_estimate", "task_type_counts",
    "task_params",
    # trigger-channel wire ops, plan fields and service/client/miner/
    # planner methods, not module attributes
    "trigger_install", "trigger_arm", "trigger_disarm", "trigger_state",
    "trigger_plans", "trigger_status", "trigger_suspensions",
    "trigger_accounting", "install_trigger_plan", "add_trigger_watch",
    "add_remote_trigger", "set_trigger_armed", "set_trigger_sink",
    "drain_trigger_events", "suspend_interval", "min_hold",
    "disarm_level", "from_rule", "ingest_trace", "to_plans",
    "probe_cost_saved", "share_levels",
    # wire front end: the backend seam, host/coordinator methods and
    # config keys, not module attributes
    "task_shard", "_shard_call", "_submit_columns",
    "shard_call", "submit_columns", "install_shard", "handle_request",
    "apply_config", "max_batch", "try_enqueue_columns", "apply_columns",
    "handle_shard_offer", "_checkpoint_state", "checkpoint_age",
    "service_config", "checkpoint_path", "runtime_dir",
    "checkpoint_failed", "volley_checkpoint_", "w_snapshot_shard",
    "w_restore_shard", "w_shutdown",
}


def test_api_reference_file_exists():
    assert API_MD.exists()


@pytest.mark.parametrize("symbol", sorted(documented_symbols() - IGNORED))
def test_documented_symbol_exists(symbol):
    found = any(hasattr(ns, symbol) for ns in NAMESPACES)
    assert found, f"docs/API.md documents missing symbol {symbol!r}"


@pytest.mark.parametrize("config_cls", [repro.config.RuntimeConfig,
                                        repro.config.ClusterConfig])
def test_config_rows_list_the_dataclass_fields(config_cls):
    """The config rows are not re-typed by hand and left to drift: each
    must name exactly the dataclass's fields, in order."""
    import dataclasses

    signature = ", ".join(f.name for f in dataclasses.fields(config_cls))
    assert f"`{config_cls.__name__}({signature})`" in API_MD.read_text()
