"""CLI flag / config-file merging for both server entry points.

A flag given on the command line replaces its field; every field *not*
named on the command line keeps the config file's value. The cluster CLI
used to rebuild the config from a hand-kept field list that omitted
``protocol``, so ``{"protocol": 1}`` plus any flag silently came up at
protocol 2 — the merge is now ``dataclasses.replace`` over the parsed
section, which cannot forget a field.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster import __main__ as cluster_cli
from repro.config import ClusterConfig, RuntimeConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ConfigurationError
from repro.runtime import server as runtime_cli
from repro.runtime.frontend import load_config_file

# A non-default value for every field a config file can set.
CLUSTER_SECTION = {
    "workers": 3, "shards": 7, "backend": "inproc", "host": "127.0.0.2",
    "port": 9701, "http_port": 9791, "queue_depth": 77, "max_batch": 99,
    "buffer_depth": 1234, "heartbeat_interval": 0.25,
    "heartbeat_misses": 5, "heartbeat_timeout": 1.5,
    "connections_per_worker": 3, "checkpoint_path": "/tmp/c.ckpt",
    "checkpoint_interval": 12.5, "shed_retry_ms": 17,
    "trace_capacity": 321, "runtime_dir": "/tmp/rt", "protocol": 1,
}
RUNTIME_SECTION = {
    "shards": 3, "queue_depth": 77, "max_batch": 99, "host": "127.0.0.2",
    "port": 9701, "unix_socket": "/tmp/r.sock",
    "checkpoint_path": "/tmp/r.ckpt", "checkpoint_interval": 12.5,
    "shed_retry_ms": 17, "http_port": 9791, "trace_capacity": 321,
    "selfmon_interval": 0.5, "protocol": 1,
}


def test_cluster_cli_keeps_the_config_files_protocol():
    args = cluster_cli._build_parser().parse_args(["--port", "0"])
    config = cluster_cli._cluster_config(args, {"protocol": 1})
    assert config.protocol == 1
    assert config.port == 0


@pytest.mark.parametrize("cli, build, section, config_cls", [
    (cluster_cli, "_cluster_config", CLUSTER_SECTION, ClusterConfig),
    (runtime_cli, "_runtime_config", RUNTIME_SECTION, RuntimeConfig),
])
def test_one_flag_overrides_one_field_and_no_other(cli, build, section,
                                                   config_cls):
    assert set(section) == {f.name for f in dataclasses.fields(config_cls)} \
        - {"worker_endpoints"}, "the section must set every file-settable field"
    from_file = config_cls.from_dict(section)
    args = cli._build_parser().parse_args(["--max-batch", "5"])
    merged = getattr(cli, build)(args, section)
    assert merged == dataclasses.replace(from_file, max_batch=5)
    no_flags = cli._build_parser().parse_args([])
    assert getattr(cli, build)(no_flags, section) == from_file


def test_renamed_flags_reach_their_fields():
    args = runtime_cli._build_parser().parse_args(
        ["--unix", "/tmp/x.sock", "--checkpoint", "/tmp/x.ckpt"])
    config = runtime_cli._runtime_config(args, {})
    assert str(config.unix_socket) == "/tmp/x.sock"
    assert str(config.checkpoint_path) == "/tmp/x.ckpt"
    args = cluster_cli._build_parser().parse_args(
        ["--checkpoint", "/tmp/y.ckpt", "--backend", "inproc"])
    config = cluster_cli._cluster_config(args, {})
    assert str(config.checkpoint_path) == "/tmp/y.ckpt"


def test_worker_endpoints_imply_tcp_backend_and_worker_count():
    args = cluster_cli._build_parser().parse_args(
        ["--worker-endpoint", "h1:1", "--worker-endpoint", "h2:2"])
    config = cluster_cli._cluster_config(args, {})
    assert config.backend == "tcp" and config.workers == 2
    assert config.worker_endpoints == ("h1:1", "h2:2")


def test_config_file_splits_into_section_adaptation_and_service(tmp_path):
    path = tmp_path / "volley.json"
    path.write_text(json.dumps({
        "cluster": {"workers": 3}, "adaptation": {"patience": 7},
        "defaults": {"max_interval": 4},
        "tasks": [{"name": "t", "threshold": 1.0}]}))
    section, adaptation, service = load_config_file(path, "cluster")
    assert section == {"workers": 3}
    assert adaptation == AdaptationConfig(patience=7)
    assert service == {"defaults": {"max_interval": 4},
                       "tasks": [{"name": "t", "threshold": 1.0}]}
    assert load_config_file(None, "cluster") == ({}, None, {})


def test_config_file_fails_closed(tmp_path):
    path = tmp_path / "volley.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_config_file(path, "runtime")
    path.write_text(json.dumps({"adaptation": {"no_such_knob": 1}}))
    with pytest.raises(ConfigurationError, match="bad adaptation section"):
        load_config_file(path, "runtime")
