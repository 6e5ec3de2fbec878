"""CLI flag / config-file merging for both server entry points.

A flag given on the command line replaces its field; every field *not*
named on the command line keeps the config file's value. The cluster CLI
once rebuilt the config from a hand-kept field list that forgot a field
— the merge is now ``dataclasses.replace`` over the parsed section,
which cannot forget one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import pytest

from repro.cluster import __main__ as cluster_cli
from repro.cluster.server import ClusterServer
from repro.config import ClusterConfig, RuntimeConfig
from repro.core.adaptation import AdaptationConfig
from repro.exceptions import ConfigurationError
from repro.runtime import server as runtime_cli
from repro.runtime.frontend import load_config_file
from repro.runtime.server import RuntimeServer

# A non-default value for every field a config file can set.
CLUSTER_SECTION = {
    "workers": 3, "shards": 7, "backend": "inproc", "host": "127.0.0.2",
    "port": 9701, "http_port": 9791, "queue_depth": 77, "max_batch": 99,
    "heartbeat_interval": 0.25, "heartbeat_misses": 5,
    "heartbeat_timeout": 1.5, "checkpoint_path": "/tmp/c.ckpt",
    "checkpoint_interval": 12.5, "trace_capacity": 321,
    "runtime_dir": "/tmp/rt",
}
RUNTIME_SECTION = {
    "shards": 3, "queue_depth": 77, "max_batch": 99, "host": "127.0.0.2",
    "port": 9701, "unix_socket": "/tmp/r.sock",
    "checkpoint_path": "/tmp/r.ckpt", "checkpoint_interval": 12.5,
    "http_port": 9791, "trace_capacity": 321, "selfmon_interval": 0.5,
}


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


def test_one_config_file_with_both_sections_starts_both_servers(tmp_path):
    """Both servers take the same ``--config`` file: each reads its own
    section, and the other's is not service config."""
    path = tmp_path / "volley.json"
    path.write_text(json.dumps({
        "runtime": {"shards": 2, "port": 0},
        "cluster": {"backend": "inproc", "workers": 1, "shards": 2,
                    "port": 0},
        "defaults": {"max_interval": 4},
        "tasks": [{"name": "t", "threshold": 1.0}]}))

    async def registered(server):
        await server.start()
        try:
            return sorted(server.task_shard), server.defaults
        finally:
            await server.shutdown()

    args = runtime_cli._build_parser().parse_args(["--config", str(path)])
    section, adaptation, service = load_config_file(args.config, "runtime")
    runtime = RuntimeServer(runtime_cli._runtime_config(args, section),
                            service_config=service, adaptation=adaptation)
    args = cluster_cli._build_parser().parse_args(["--config", str(path)])
    section, adaptation, service = load_config_file(args.config, "cluster")
    cluster = ClusterServer(cluster_cli._cluster_config(args, section),
                            adaptation=adaptation, service_config=service)
    for server in (runtime, cluster):
        assert asyncio.run(registered(server)) == (["t"],
                                                   {"max_interval": 4})


def test_config_file_fails_closed(tmp_path):
    path = tmp_path / "volley.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_config_file(path, "runtime")
    path.write_text(json.dumps({"adaptation": {"no_such_knob": 1}}))
    with pytest.raises(ConfigurationError, match="bad adaptation section"):
        load_config_file(path, "runtime")


# -- one section parser: keys and types come from the dataclass fields ---

MALFORMED = [
    (RuntimeConfig, "runtime", {"port": None}),
    (RuntimeConfig, "runtime", {"shards": "four"}),
    (ClusterConfig, "cluster", {"heartbeat_interval": None}),
    (ClusterConfig, "cluster", {"workers": "two"}),
    (ClusterConfig, "cluster", {"worker_endpoints": 5}),
]


@pytest.mark.parametrize("config_cls, section, entry", MALFORMED)
def test_malformed_section_values_fail_closed(config_cls, section, entry):
    key, = entry
    with pytest.raises(ConfigurationError,
                       match=f"{section} section.*{key}"):
        config_cls.from_dict(entry)


def test_null_is_accepted_exactly_where_the_type_allows_it():
    assert RuntimeConfig.from_dict(
        {"http_port": None, "selfmon_interval": None, "unix_socket": None,
         "checkpoint_path": None}) == RuntimeConfig()
    assert ClusterConfig.from_dict(
        {"shards": None, "http_port": None, "checkpoint_path": None,
         "runtime_dir": None}) == ClusterConfig()


# A well-typed JSON value per annotation (one every range check admits),
# and one of the wrong type.
_SAMPLES = {
    "int": (2, "two"), "int | None": (2, "two"),
    "float": (1.5, "soon"), "float | None": (1.5, "soon"),
    "str": ("127.0.0.2", 5),
    "pathlib.Path | None": ("/tmp/x", 5),
    "tuple[str, ...]": (["h1:1", "h2:2"], 5),
}


@pytest.mark.parametrize("config_cls", [RuntimeConfig, ClusterConfig])
def test_every_field_loads_and_fails_closed_by_its_type(config_cls):
    for field in dataclasses.fields(config_cls):
        good, bad = _SAMPLES[field.type]
        if field.name in ("backend", "worker_endpoints"):
            # The one cross-field rule: endpoints belong to (only) tcp.
            loaded = config_cls.from_dict({
                "backend": "tcp", "worker_endpoints": ["h1:1", "h2:2"]})
            assert loaded.worker_endpoints == ("h1:1", "h2:2")
        else:
            loaded = config_cls.from_dict({field.name: good})
            assert getattr(loaded, field.name) == type(
                getattr(loaded, field.name))(good)
        # A float field takes any JSON number; nothing takes a bool.
        for wrong in (bad, True):
            with pytest.raises(ConfigurationError, match=field.name):
                config_cls.from_dict({field.name: wrong})
    with pytest.raises(ConfigurationError, match="unknown key"):
        config_cls.from_dict({"no_such_knob": 1})
    assert config_cls.from_dict({"checkpoint_interval": 30}) \
        .checkpoint_interval == 30.0


@pytest.mark.parametrize("config_cls", [RuntimeConfig, ClusterConfig])
def test_a_new_field_is_loadable_with_no_other_edit(config_cls):
    @dataclasses.dataclass(frozen=True, slots=True)
    class Extended(config_cls):
        linger_ms: int | None = 7

    assert Extended.from_dict({"linger_ms": 9, "max_batch": 5}) == \
        Extended(linger_ms=9, max_batch=5)
    assert Extended.from_dict({"linger_ms": None}).linger_ms is None
    with pytest.raises(ConfigurationError, match="linger_ms"):
        Extended.from_dict({"linger_ms": "long"})
    with pytest.raises(ConfigurationError, match="unknown key"):
        config_cls.from_dict({"linger_ms": 9})


# -- the CLI runner: a config error is one line and exit code 1 ----------

CLIS = [(runtime_cli, "runtime"), (cluster_cli, "cluster")]


@pytest.mark.parametrize("cli, section", CLIS)
def test_bad_config_file_exits_1_with_a_one_line_error(cli, section,
                                                       tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({section: {"port": "eighty"}}))
    assert cli.main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[{section}] error: {section} section")
    assert "'port'" in err and err.count("\n") == 1
    path.write_text(json.dumps({section: ["port", 80]}))
    assert cli.main(["--config", str(path)]) == 1
    assert "must be a dict" in capsys.readouterr().err


def _signal_at_once(monkeypatch):
    """Make every executable behave as if SIGTERM arrived the moment it
    started waiting for one."""
    async def signalled(done, on_signal):
        on_signal()
        await done.wait()

    from repro.cluster import worker
    from repro.runtime import frontend
    monkeypatch.setattr(frontend, "until_signalled", signalled)
    monkeypatch.setattr(worker, "until_signalled", signalled)


@pytest.mark.parametrize("main, flags, keys", [
    (runtime_cli.main, ["--port", "0", "--shards", "2"],
     {"port", "unix", "http_port", "pid"}),
    (cluster_cli.main, ["--port", "0", "--backend", "inproc",
                        "--heartbeat-interval", "3600"],
     {"port", "http_port", "pid", "workers"}),
    (None, ["--worker-id", "w0", "--port", "0"],
     {"pid", "worker_id", "unix", "port"}),
], ids=["runtime", "cluster", "worker"])
def test_ready_file_is_whole_when_it_appears(main, flags, keys, tmp_path,
                                             monkeypatch):
    if main is None:
        from repro.cluster.worker import main
    _signal_at_once(monkeypatch)
    ready = tmp_path / "ready.json"
    assert main([*flags, "--ready-file", str(ready)]) == 0
    payload = json.loads(ready.read_text())
    assert set(payload) == keys and payload["port"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["ready.json"]
