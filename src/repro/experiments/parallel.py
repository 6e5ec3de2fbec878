"""Parallel sweep execution with deterministic seeding and result caching.

Figure drivers (DESIGN.md S25) describe their parameter grids as lists of
pure, picklable :class:`SweepJob`\\ s and hand them to :func:`run_sweep`,
which

* fans the jobs out over a :class:`concurrent.futures.ProcessPoolExecutor`
  (worker count from the ``workers`` argument, the ``REPRO_WORKERS``
  environment variable, or ``os.cpu_count()``, in that order), with a
  guaranteed in-process serial path at ``workers=1``;
* keeps results bit-for-bit independent of worker count and completion
  order: a job owns all of its randomness, derived from a stable
  ``(seed, job key)`` hash via
  :class:`repro.simulation.randomness.RandomStreams` (see
  :func:`job_streams`) — nothing is shared between jobs;
* optionally caches each completed cell on disk (:class:`SweepCache`)
  keyed by a content hash of the full job spec (:func:`job_key`), so an
  interrupted or re-run sweep only recomputes cells whose spec changed.

Cache entries are keyed by everything that determines a cell's value —
the driver function, workload parameters, task spec, adaptation config,
seed and scale-derived sizes — so a cache can never serve a stale result
for a changed spec: a changed spec *is* a different key.

A job may be a whole figure: a Fig. 5 / Fig. 7 panel and the Fig. 8
grid are one job each, stepping all their runs as engine rows in one
lockstep (DESIGN.md S27). The pool therefore fans out only sweeps made
of several jobs (Fig. 6's allowances), and the cache stores a panel as
one entry.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.config import ExecutionConfig
from repro.exceptions import ConfigurationError
from repro.simulation.randomness import RandomStreams

__all__ = [
    "CACHE_VERSION",
    "SweepJob",
    "SweepStats",
    "SweepCache",
    "job_key",
    "job_streams",
    "resolve_workers",
    "run_sweep",
    "default_cache_dir",
]

#: bump to invalidate every existing on-disk cache entry (key derivation
#: or result semantics changed)
CACHE_VERSION = 1


@dataclass(frozen=True, slots=True)
class SweepJob:
    """One pure, picklable cell of a parameter sweep.

    Attributes:
        func: a module-level callable (pickled by reference, so it must be
            importable in worker processes); must be a pure function of
            its keyword arguments.
        kwargs: the call's keyword arguments as a sorted item tuple —
            the hashable job spec.
        label: human-readable tag for reports (not part of the identity).
    """

    func: Callable[..., Any]
    kwargs: tuple[tuple[str, Any], ...]
    label: str = ""

    @classmethod
    def call(cls, func: Callable[..., Any], label: str = "",
             **kwargs: Any) -> "SweepJob":
        """Build a job for ``func(**kwargs)``."""
        return cls(func=func, kwargs=tuple(sorted(kwargs.items())),
                   label=label)

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.func(**dict(self.kwargs))


def _canonical(value: Any) -> Any:
    """A JSON-serialisable canonical form, injective on distinct values.

    Every supported type gets its own tag so values of different types
    can never collide (``1`` vs ``1.0`` vs ``True`` vs ``"1"``); floats
    go through ``repr`` (shortest round-trip form), which is stable
    across processes and platforms.
    """
    if value is None:
        return ["null"]
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__module__, type(value).__qualname__,
                value.name]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, str):
        return ["str", value]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return ["ndarray", str(data.dtype), list(data.shape),
                hashlib.sha256(data.tobytes()).hexdigest()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [[f.name, _canonical(getattr(value, f.name))]
                  for f in dataclasses.fields(value)]
        return ["dataclass", type(value).__module__,
                type(value).__qualname__, fields]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(v) for v in value]]
    if isinstance(value, dict):
        items = sorted((json.dumps(_canonical(k)), _canonical(v))
                       for k, v in value.items())
        return ["map", [[k, v] for k, v in items]]
    raise ConfigurationError(
        f"cannot hash a {type(value).__name__} in a sweep job spec; "
        f"use primitives, tuples, dataclasses or numpy arrays")


def job_key(job: SweepJob) -> str:
    """Stable content hash of a job's full spec (hex, 64 chars).

    The key covers the cache version, the function's import path and
    every keyword argument, so any change to the spec — workload
    parameters, task spec, adaptation config, seed, scale-derived
    sizes — yields a different key. It is independent of process,
    platform and ``PYTHONHASHSEED``.
    """
    spec = ["sweep-job", CACHE_VERSION, job.func.__module__,
            job.func.__qualname__, _canonical(dict(job.kwargs))]
    encoded = json.dumps(spec, separators=(",", ":"), sort_keys=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def job_streams(seed: int, job: SweepJob) -> RandomStreams:
    """Per-job random streams derived from a ``(seed, job key)`` hash.

    Two jobs with distinct specs get statistically independent streams;
    the same ``(seed, job)`` pair always gets identical streams, no
    matter which worker runs it or in which order — the basis of the
    worker-count-independence guarantee.
    """
    return RandomStreams(seed).derive("sweep-job", job_key(job))


def default_cache_dir() -> pathlib.Path:
    """The sweep cache location: ``REPRO_CACHE_DIR`` or the XDG cache."""
    configured = ExecutionConfig.from_env().cache_dir
    if configured is not None:
        return configured
    base = os.environ.get("XDG_CACHE_HOME")
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "sweeps"


class SweepCache:
    """On-disk cache of completed sweep-cell results.

    One pickle file per job key. Loads are forgiving — a missing,
    truncated or corrupted entry is a cache miss, never an error — while
    stores are atomic (write to a temp file, then ``os.replace``) so a
    killed run can only ever leave complete entries behind.

    Args:
        directory: cache root; created lazily on the first store.
    """

    def __init__(self, directory: str | os.PathLike[str]):
        self._directory = pathlib.Path(directory)

    @property
    def directory(self) -> pathlib.Path:
        """The cache root."""
        return self._directory

    def path(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self._directory / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)`` — any unreadable entry is a miss."""
        try:
            with open(self.path(key), "rb") as fh:
                payload = pickle.load(fh)
            if (not isinstance(payload, dict)
                    or payload.get("version") != CACHE_VERSION
                    or payload.get("key") != key):
                return False, None
            return True, payload["value"]
        except Exception:
            return False, None

    def store(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``."""
        target = self.path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": CACHE_VERSION, "key": key, "value": value}
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not self._directory.exists():
            return removed
        for entry in sorted(self._directory.glob("*/*.pkl")):
            entry.unlink()
            removed += 1
        return removed


@dataclass(frozen=True, slots=True)
class SweepStats:
    """Execution summary of one :func:`run_sweep` call.

    Attributes:
        jobs: total cells in the sweep.
        cache_hits / cache_misses: cells served from / missing in the
            cache (with no cache every cell is a miss).
        workers: resolved worker count.
        wall_seconds: end-to-end sweep duration.
        cell_seconds: per-computed-cell wall time, in job order
            (cached cells are excluded).
    """

    jobs: int
    cache_hits: int
    cache_misses: int
    workers: int
    wall_seconds: float
    cell_seconds: tuple[float, ...]

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the cache (0.0 with no jobs)."""
        return self.cache_hits / self.jobs if self.jobs else 0.0

    def report(self) -> str:
        """One-line human-readable summary."""
        from repro.experiments.reporting import format_sweep_stats
        return format_sweep_stats(self)


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the worker count: argument, ``REPRO_WORKERS``, CPU count.

    Raises :class:`~repro.exceptions.ConfigurationError` for a
    non-positive or unparsable setting.
    """
    if workers is None:
        workers = ExecutionConfig.from_env().workers
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def execute_job(job: SweepJob) -> tuple[Any, float]:
    """Run one job, returning ``(result, wall seconds)``.

    Module-level so worker processes can unpickle a reference to it.
    """
    start = time.perf_counter()
    value = job.run()
    return value, time.perf_counter() - start


def run_sweep(jobs: Iterable[SweepJob], *, workers: int | None = None,
              cache: SweepCache | None = None,
              ) -> tuple[list[Any], SweepStats]:
    """Execute a sweep, in parallel where it helps.

    Results come back in job order regardless of completion order. Cache
    hits skip execution entirely; misses are stored as soon as their
    worker finishes, so an interrupted sweep resumes where it died.

    Args:
        jobs: the sweep cells.
        workers: pool size; ``None`` defers to ``REPRO_WORKERS`` then
            ``os.cpu_count()``. ``1`` guarantees in-process execution
            (no pool, no subprocess).
        cache: completed-cell store, or ``None`` to always recompute.

    Returns:
        ``(results, stats)`` with one result per job.
    """
    job_list = list(jobs)
    worker_count = resolve_workers(workers)
    started = time.perf_counter()
    results: list[Any] = [None] * len(job_list)
    seconds: dict[int, float] = {}
    hits = 0

    pending: list[tuple[int, SweepJob, str]] = []
    for index, job in enumerate(job_list):
        key = job_key(job)
        if cache is not None:
            hit, value = cache.load(key)
            if hit:
                results[index] = value
                hits += 1
                continue
        pending.append((index, job, key))

    if worker_count == 1 or len(pending) <= 1:
        for index, job, key in pending:
            value, elapsed = execute_job(job)
            results[index] = value
            seconds[index] = elapsed
            if cache is not None:
                cache.store(key, value)
    elif pending:
        pool_size = min(worker_count, len(pending))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = {pool.submit(execute_job, job): (index, key)
                       for index, job, key in pending}
            for future in as_completed(futures):
                index, key = futures[future]
                value, elapsed = future.result()
                results[index] = value
                seconds[index] = elapsed
                if cache is not None:
                    cache.store(key, value)

    stats = SweepStats(
        jobs=len(job_list), cache_hits=hits, cache_misses=len(pending),
        workers=worker_count,
        wall_seconds=time.perf_counter() - started,
        cell_seconds=tuple(seconds[i] for i in sorted(seconds)))
    return results, stats
