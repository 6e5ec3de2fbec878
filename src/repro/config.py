"""Declarative task configuration for the monitoring service.

Deployments describe their monitoring tasks in config files, not code.
:func:`service_from_config` builds a fully wired
:class:`~repro.service.MonitoringService` from a plain dict (load it from
JSON/YAML/TOML with whatever the deployment uses)::

    {
      "defaults": {"error_allowance": 0.01, "max_interval": 10},
      "tasks": [
        {"name": "ddos", "threshold": 1000.0},
        {"name": "response", "threshold": 120.0},
        {"name": "cpu-1min", "threshold": 85.0,
         "window": 12, "aggregate": "mean"},
        {"name": "free-mem", "threshold": 512.0, "direction": "lower"}
      ],
      "triggers": [
        {"target": "ddos", "trigger": "response",
         "elevation_level": 60.0, "suspend_interval": 10}
      ],
      "trigger_plans": [
        {"target": "free-mem", "trigger": "cpu-1min",
         "elevation_level": 70.0, "hysteresis": 0.1, "min_hold": 5}
      ]
    }

Every trigger pair is a :class:`~repro.triggers.plan.TriggerPlan`:
a ``triggers`` entry is the undebounced plan of its pair (hysteresis 0,
hold 0), a ``trigger_plans`` entry is written out in full, and
:func:`config_trigger_plans` reads both for every surface. Either
server's config root is this one.

Unknown keys are rejected loudly — a typo in a monitoring config should
fail deployment, not silently monitor the wrong thing.
"""

from __future__ import annotations

import dataclasses
import pathlib
import types
import typing
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.adaptation import AdaptationConfig
from repro.core.substrates import (DEFAULT_ENTROPY_WINDOW,
                                   DEFAULT_SKETCH_WINDOW, TASK_PARAMS,
                                   TASK_TYPES)
from repro.core.task import TaskSpec
from repro.core.windowed import AggregateKind
from repro.exceptions import ConfigurationError
from repro.service import MonitoringService
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR
from repro.triggers.plan import TriggerPlan
from repro.types import ThresholdDirection

__all__ = ["ClusterConfig", "RuntimeConfig", "ServerConfig",
           "check_task_params", "config_trigger_plans",
           "register_task_from_config",
           "service_from_config", "task_from_config", "trigger_pair_plan"]


def _coerce(hint: Any, value: Any) -> Any:
    """``value`` as a field annotated ``hint`` holds it, else ``TypeError``.

    JSON-typed and lossless: an ``int`` field takes an integer, a
    ``float`` field any number, a ``str`` or ``Path`` field a string, a
    tuple field a list of its element type, and ``None`` passes only
    where the annotation admits it.
    """
    options = (typing.get_args(hint) if isinstance(hint, types.UnionType)
               else (hint,))
    if value is None and type(None) in options:
        return None
    kind, = (option for option in options if option is not type(None))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typing.get_origin(kind) is tuple:
        if isinstance(value, (list, tuple)):
            element = typing.get_args(kind)[0]
            return tuple(_coerce(element, item) for item in value)
    elif kind is float:
        if number:
            return float(value)
    elif kind is int:
        if number and isinstance(value, int):
            return value
    elif kind in (str, pathlib.Path) and isinstance(value, str):
        return kind(value)
    raise TypeError  # the caller names the section, key and value


def _from_section(cls: Any, entry: Any, section: str) -> Any:
    """Build config dataclass ``cls`` from a config file's ``section``.

    The allowed keys and each key's type come from the dataclass fields,
    so a new field is loadable with no list to keep in step. Unknown
    keys, nulls and mis-typed values fail closed; the range checks are
    the dataclass's own ``__post_init__``.
    """
    where = f"{section} section"
    if not isinstance(entry, Mapping):
        raise ConfigurationError(f"{where} must be a dict, got {entry!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _reject_unknown(dict(entry), set(fields), where)
    hints = typing.get_type_hints(cls)
    kwargs: dict[str, Any] = {}
    for key, value in entry.items():
        try:
            kwargs[key] = _coerce(hints[key], value)
        except (TypeError, OverflowError):  # 10**400 fits no float
            raise ConfigurationError(
                f"{where}: {key!r} must be {fields[key].type}, "
                f"got {value!r}") from None
    return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """The knobs both servers share, declared and checked once.

    Attributes:
        host / port: TCP listen address (``port=0`` picks a free port).
        http_port: telemetry HTTP endpoint (``/metrics`` + ``/healthz`` +
            ``/trace``); ``None`` (the default) disables it, ``0`` picks a
            free port. Binds on ``host``.
        queue_depth: bounded per-shard ingest queue, in batches. A full
            queue triggers backpressure: further batches for that shard are
            shed with an explicit reply, never queued unboundedly.
        max_batch: maximum updates accepted per ``offer_batch`` frame.
        checkpoint_path: where periodic + shutdown checkpoints are
            written; ``None`` disables checkpointing.
        checkpoint_interval: seconds between periodic checkpoints.
        trace_capacity: decision-trace ring buffer size in events.
    """

    host: str = "127.0.0.1"
    port: int = 0
    http_port: int | None = None
    queue_depth: int = 1024
    max_batch: int = 8192
    checkpoint_path: pathlib.Path | None = None
    checkpoint_interval: float = 30.0
    trace_capacity: int = 4096

    def __post_init__(self) -> None:
        for attr in ("queue_depth", "max_batch", "trace_capacity"):
            if getattr(self, attr) < 1:
                raise ConfigurationError(
                    f"{attr} must be >= 1, got {getattr(self, attr)}")
        if self.checkpoint_interval <= 0:
            raise ConfigurationError(
                f"checkpoint_interval must be > 0, got "
                f"{self.checkpoint_interval}")


@dataclass(frozen=True, slots=True)
class RuntimeConfig(ServerConfig):
    """Deployment knobs for the live-ingestion runtime (``repro.runtime``),
    beside the shared :class:`ServerConfig` ones.

    Attributes:
        shards: number of independent shard workers; tasks are routed to
            shards by a stable hash of the task name.
        unix_socket: optional unix-domain socket path to (also) listen on.
        selfmon_interval: seconds between self-monitoring polls (the
            runtime's own gauges monitored as Volley tasks); ``None``
            (the default) disables self-monitoring.
    """

    shards: int = 4
    unix_socket: pathlib.Path | None = None
    selfmon_interval: float | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        ServerConfig.__post_init__(self)
        if self.selfmon_interval is not None and self.selfmon_interval <= 0:
            raise ConfigurationError(
                f"selfmon_interval must be > 0, got {self.selfmon_interval}")

    @classmethod
    def from_dict(cls, entry: Mapping[str, Any]) -> "RuntimeConfig":
        """Build from a config file's ``runtime`` section (fail closed)."""
        return _from_section(cls, entry, "runtime")


_CLUSTER_BACKENDS = ("inproc", "subprocess", "tcp")


@dataclass(frozen=True, slots=True)
class ClusterConfig(ServerConfig):
    """Deployment knobs for the multi-process cluster (``repro.cluster``),
    beside the shared :class:`ServerConfig` ones (there ``host`` /
    ``port`` / ``http_port`` are the routing tier's, ``queue_depth`` is
    each worker's per-shard queue and ``checkpoint_path`` holds the
    placement table beside every shard snapshot).

    Attributes:
        workers: worker processes (or in-proc hosts) the coordinator
            places shards on. For the ``tcp`` backend this is derived
            from ``worker_endpoints`` and must not disagree with it.
        shards: global shard count; defaults to ``max(4, 2 * workers)``
            so re-placement and migration always have somewhere to go.
            Placement starts round-robin (shard ``i`` on worker
            ``i % workers``) and then evolves through migrations.
        backend: ``inproc`` (hosts in the router process, zero-copy),
            ``subprocess`` (one process per worker over a unix socket),
            or ``tcp`` (externally started workers at
            ``worker_endpoints``).
        worker_endpoints: ``host:port`` strings for the ``tcp`` backend.
        heartbeat_interval: seconds between coordinator heartbeats.
        heartbeat_misses: consecutive missed heartbeats before a worker
            is declared dead and its shards re-placed.
        heartbeat_timeout: per-heartbeat reply timeout in seconds.
        runtime_dir: directory for worker unix sockets and ready files
            (``subprocess`` backend); ``None`` uses a fresh temp dir.
    """

    workers: int = 2
    shards: int | None = None
    backend: str = "subprocess"
    worker_endpoints: tuple[str, ...] = ()
    heartbeat_interval: float = 0.5
    heartbeat_misses: int = 3
    heartbeat_timeout: float = 2.0
    runtime_dir: pathlib.Path | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.backend not in _CLUSTER_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {list(_CLUSTER_BACKENDS)}, "
                f"got {self.backend!r}")
        if self.backend == "tcp":
            if not self.worker_endpoints:
                raise ConfigurationError(
                    "tcp backend needs worker_endpoints")
            if len(self.worker_endpoints) != self.workers:
                raise ConfigurationError(
                    f"{self.workers} workers but "
                    f"{len(self.worker_endpoints)} worker_endpoints")
        elif self.worker_endpoints:
            raise ConfigurationError(
                f"worker_endpoints only apply to the tcp backend, "
                f"not {self.backend!r}")
        if self.shards is not None and self.shards < self.workers:
            raise ConfigurationError(
                f"shards ({self.shards}) must be >= workers "
                f"({self.workers}); a worker with no shard serves nothing")
        ServerConfig.__post_init__(self)
        if self.heartbeat_misses < 1:
            raise ConfigurationError(
                f"heartbeat_misses must be >= 1, got {self.heartbeat_misses}")
        for attr in ("heartbeat_interval", "heartbeat_timeout"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(
                    f"{attr} must be > 0, got {getattr(self, attr)}")

    @property
    def n_shards(self) -> int:
        """The resolved global shard count."""
        return self.shards if self.shards is not None \
            else max(4, 2 * self.workers)

    @classmethod
    def from_dict(cls, entry: Mapping[str, Any]) -> "ClusterConfig":
        """Build from a config file's ``cluster`` section (fail closed)."""
        return _from_section(cls, entry, "cluster")


_COMMON_TASK_KEYS = {"name", "threshold", "error_allowance",
                     "default_interval", "max_interval", "direction", "type"}
_TASK_KEYS = _COMMON_TASK_KEYS.union(*TASK_PARAMS.values())
_TRIGGER_KEYS = {"target", "trigger", "elevation_level",
                 "suspend_interval"}
_TOP_KEYS = {"defaults", "tasks", "triggers", "trigger_plans"}
_DEFAULT_KEYS = {"error_allowance", "default_interval", "max_interval",
                 "direction"}


def _reject_unknown(entry: dict[str, Any], allowed: set[str],
                    where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; "
            f"allowed: {sorted(allowed)}")


def _direction(raw: str) -> ThresholdDirection:
    try:
        return ThresholdDirection(raw)
    except ValueError:
        raise ConfigurationError(
            f"direction must be 'upper' or 'lower', got {raw!r}") from None


def _aggregate(raw: str) -> AggregateKind:
    try:
        return AggregateKind(raw)
    except ValueError:
        raise ConfigurationError(
            f"aggregate must be one of "
            f"{[k.value for k in AggregateKind]}, got {raw!r}") from None


def check_task_params(kind: str, params: Iterable[str], where: str,
                      ) -> None:
    """Refuse a task of type ``kind`` given a parameter key its type
    does not take (:data:`~repro.core.substrates.TASK_PARAMS`), or a
    quantile task without its ``quantile`` — the rule a config entry and
    a scenario timeline share. ``where`` names the task in the error."""
    if kind not in TASK_TYPES:
        raise ConfigurationError(
            f"unknown task type {kind!r} in {where} "
            f"(expected one of {TASK_TYPES})")
    params = set(params)
    misplaced = params - set(TASK_PARAMS[kind])
    if misplaced:
        raise ConfigurationError(
            f"key(s) {sorted(misplaced)} in {where} do not apply to "
            f"type {kind!r}")
    if kind == "quantile" and "quantile" not in params:
        raise ConfigurationError(f"quantile task {where} needs 'quantile'")


def _task_kind(entry: dict[str, Any]) -> str:
    """A task entry's ``type``, once its keys are checked against it."""
    kind = str(entry.get("type", "value"))
    check_task_params(kind, set(entry) - _COMMON_TASK_KEYS,
                      f"task {entry.get('name', '?')!r}")
    return kind


def task_from_config(entry: dict[str, Any],
                     defaults: dict[str, Any] | None = None) -> TaskSpec:
    """Build one :class:`TaskSpec` from a config entry.

    For ``type: quantile`` / ``type: entropy`` entries the returned spec
    carries the entry's *raw* threshold and is metadata (routing, trace
    annotations); the service derives the sampler-facing spec at
    registration — use :func:`register_task_from_config` to actually
    register any entry type.

    Args:
        entry: task dict; requires ``name`` and ``threshold``; other keys
            fall back to ``defaults`` then the TaskSpec defaults.
        defaults: the config's ``defaults`` section.
    """
    return _parse_task(entry, defaults)[0]


def _parse_task(entry: dict[str, Any], defaults: dict[str, Any] | None,
                ) -> tuple[TaskSpec, str]:
    """:func:`task_from_config`'s spec and the entry's checked type:
    the entry's keys are checked once."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"task entry must be a dict, got {entry!r}")
    _reject_unknown(entry, _TASK_KEYS, f"task {entry.get('name', '?')!r}")
    kind = _task_kind(entry)
    defaults = defaults or {}
    for key in ("name", "threshold"):
        if key not in entry:
            raise ConfigurationError(f"task entry missing {key!r}: {entry}")

    def pick(key: str, fallback: Any) -> Any:
        return entry.get(key, defaults.get(key, fallback))

    return TaskSpec(
        threshold=float(entry["threshold"]),
        error_allowance=float(pick("error_allowance", 0.01)),
        default_interval=float(pick("default_interval", 1.0)),
        max_interval=int(pick("max_interval", 10)),
        direction=_direction(str(pick("direction", "upper"))),
        name=str(entry["name"]),
    ), kind


def register_task_from_config(service: MonitoringService,
                              entry: dict[str, Any],
                              defaults: dict[str, Any] | None = None,
                              *, on_alert: Any = None,
                              config: AdaptationConfig | None = None,
                              ) -> TaskSpec:
    """Parse one task config entry and register it on ``service``.

    The single dispatch point for all task types — the in-process
    service builder, the runtime server's ``register_task`` op and the
    cluster shard host all register through here, so a config entry
    means the same thing on every deployment surface. Returns the
    (raw-threshold) spec, whose name/threshold the callers use for
    routing and trace annotations.

    Entropy entries that specify no ``direction`` (neither inline nor in
    ``defaults``) register as drop-below tasks — the natural polarity of
    an entropy-collapse predicate.
    """
    spec, kind = _parse_task(entry, defaults)
    if kind == "value":
        window = int(entry.get("window", 1))
        aggregate = _aggregate(str(entry.get("aggregate", "mean")))
        service.add_task(spec.name, spec, on_alert=on_alert,
                         window=window, window_kind=aggregate,
                         config=config)
        return spec
    if kind == "quantile":
        service.add_quantile_task(
            spec.name, threshold=spec.threshold,
            quantile=float(entry["quantile"]),
            error_allowance=spec.error_allowance,
            default_interval=spec.default_interval,
            max_interval=spec.max_interval,
            direction=spec.direction,
            sketch_window=int(entry.get("sketch_window",
                                        DEFAULT_SKETCH_WINDOW)),
            relative_error=float(entry.get("relative_error",
                                           DEFAULT_RELATIVE_ERROR)),
            on_alert=on_alert, config=config)
        return spec
    direction = spec.direction
    if "direction" not in entry and "direction" not in (defaults or {}):
        direction = ThresholdDirection.LOWER
    service.add_entropy_task(
        spec.name, threshold=spec.threshold,
        error_allowance=spec.error_allowance,
        default_interval=spec.default_interval,
        max_interval=spec.max_interval,
        direction=direction,
        entropy_window=int(entry.get("entropy_window",
                                     DEFAULT_ENTROPY_WINDOW)),
        bin_width=float(entry.get("bin_width", 1.0)),
        on_alert=on_alert, config=config)
    return spec


def _service_defaults(config: Any, top_keys: set[str]) -> dict[str, Any]:
    """Check a service config's root (a dict of ``top_keys`` only) and
    its ``defaults`` section, failing closed; returns the defaults."""
    if not isinstance(config, dict):
        raise ConfigurationError(f"config must be a dict, got {config!r}")
    _reject_unknown(config, top_keys, "config root")
    defaults = config.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigurationError("'defaults' must be a dict")
    _reject_unknown(defaults, _DEFAULT_KEYS, "defaults")
    return defaults


def trigger_pair_plan(entry: Any) -> TriggerPlan:
    """A trigger pair — a ``triggers`` entry, or an ``add_trigger``
    request's fields — as the plan it is: hysteresis 0, hold 0."""
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"trigger entry must be a dict, got {entry!r}")
    _reject_unknown(entry, _TRIGGER_KEYS, "trigger entry")
    return TriggerPlan.from_dict({**entry, "hysteresis": 0.0, "min_hold": 0})


def config_trigger_plans(config: Mapping[str, Any]) -> list[TriggerPlan]:
    """Every trigger pair of a service config as the plan it installs:
    the ``triggers`` entries (:func:`trigger_pair_plan`), then the
    ``trigger_plans`` entries. Fails closed on either."""
    plans = [trigger_pair_plan(entry)
             for entry in config.get("triggers", [])]
    for entry in config.get("trigger_plans", []):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"trigger plan entry must be a dict, got {entry!r}")
        plans.append(TriggerPlan.from_dict(entry))
    return plans


def service_from_config(config: dict[str, Any],
                        adaptation: AdaptationConfig | None = None,
                        ) -> MonitoringService:
    """Build a wired :class:`MonitoringService` from a config dict.

    Raises :class:`~repro.exceptions.ConfigurationError` on any unknown
    key, missing field, duplicate task name, or dangling trigger
    reference — configs fail closed.
    """
    defaults = _service_defaults(config, _TOP_KEYS)
    tasks = config.get("tasks", [])
    if not tasks:
        raise ConfigurationError("config defines no tasks")

    service = MonitoringService(adaptation)
    for entry in tasks:
        register_task_from_config(service, entry, defaults)

    for plan in config_trigger_plans(config):
        for name in (plan.target, plan.trigger):
            if name not in service.task_names:
                raise ConfigurationError(
                    f"trigger plan names unknown task {name!r}: "
                    f"{plan.to_dict()}")
        service.install_trigger_plan(plan)
    return service
