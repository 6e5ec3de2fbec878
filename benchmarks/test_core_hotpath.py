"""Core hot-path benchmarks: offline drivers vs. reference (DESIGN.md S27).

Times two layers — a Fig. 5-sized ``run_lockstep`` panel and the
vectorized scorer — and reports each timing beside its reference's;
what it *asserts* is that each produces exactly what its reference
(each run's scalar ``observe`` through ``run_sampler_on_trace``, the
seed's set-based scorer kept below) produces. It asserts nothing about
speed.

The count guards at the bottom hold the hosted-shard hot path to its
*shape* instead — calls that must not happen, counted, not timed: the
regressions a later refactor would reintroduce without any test turning
red (an O(buckets) walk per due quantile offer, a sketch materialised
per alert, a sort per step-major batch or per merged host tick, a whole
tick's event columns concatenated where only its flagged offers are
kept, a β matrix as tall as a tick's widest interval (held to traced
peak bytes), a scalar sampler built beside an
engine row, a libm ``log`` per row of a wide tick, a last-seen pair
dragging its batch off the tick, an ``Alert`` object, a trace call or a
trace event dict per alert on a hosted shard or in its restore, a JSON
object per task in a snapshot, a walk over every task by a snapshot no
control op preceded, a decimal number per task in a checkpoint file, a
container a task does not use (a window buffer, an alert list; held to
traced bytes per task), a row-by-row engine write in a restore, a numpy
scalar per column read or write of a narrow tick or a by-name offer, a
column copied on its way into a checkpoint file; held to traced peak
bytes; numpy's ``np.flatnonzero`` wrapper on the offer path, a histogram
record per shard batch).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import time
import tracemalloc
from typing import Any

import numpy as np

from repro import service as service_module
from repro.cluster.hosting import WorkerHost
from repro.cluster.routing import route
from repro.config import RuntimeConfig
from repro.core.accuracy import alert_episodes, truth_alert_indices
from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import OnlineStatistics
from repro.core.soa import SoaSamplerEngine
from repro.core.substrates import QuantileEstimator
from repro.core.task import TaskSpec
from repro.experiments.runner import (run_adaptive, run_lockstep,
                                      run_sampler_on_trace)
from repro.runtime.checkpoint import state_fingerprint, write_checkpoint
from repro.runtime.client import AsyncRuntimeClient
from repro.runtime.server import RuntimeServer
from repro.runtime.shard import ColumnBatch, ShardWorker
from repro.service import MonitoringService
from repro.telemetry import trace as trace_module
from repro.telemetry.histogram import LogHistogram
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.thresholds import (PAPER_ERROR_ALLOWANCES,
                                        PAPER_SELECTIVITIES,
                                        threshold_for_selectivity)

N = 50_000
SEED = 7


def synthetic_trace(points: int, seed: int) -> np.ndarray:
    """A deterministic mean-reverting trace with bursts: a quiet noisy
    band the sampler can stretch its interval over, plus sparse bursts
    that force resets, as in the paper's traffic-difference streams."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, points)
    walk = np.empty(points)
    level = 0.0
    phi = 0.98
    for i in range(points):
        level = phi * level + noise[i]
        walk[i] = level
    bursts = np.zeros(points)
    n_bursts = max(points // 50_000, 1)
    starts = rng.integers(0, max(points - 200, 1), n_bursts)
    for s in starts:
        width = int(rng.integers(20, 200))
        bursts[s:s + width] += rng.uniform(8.0, 20.0)
    return walk + bursts


def _evaluate_sampling_legacy(values: np.ndarray, threshold: float,
                              sampled_indices: np.ndarray) -> dict[str, Any]:
    """The seed's set-based scorer, kept verbatim as the reference."""
    arr = np.asarray(values, dtype=float)
    truth = truth_alert_indices(arr, threshold)
    sampled = np.unique(np.asarray(sampled_indices, dtype=int))
    sampled_set = set(int(i) for i in sampled)
    detected = np.array([i for i in truth if int(i) in sampled_set],
                        dtype=int)
    episodes = alert_episodes(truth)
    detected_eps = 0
    delays: list[int] = []
    for start, end in episodes:
        hit = next((i for i in range(start, end + 1) if i in sampled_set),
                   None)
        if hit is not None:
            detected_eps += 1
            delays.append(hit - start)
    n_truth = int(truth.size)
    return {
        "truth_alerts": n_truth,
        "detected_alerts": int(detected.size),
        "misdetection_rate": (0.0 if n_truth == 0
                              else 1.0 - detected.size / n_truth),
        "truth_episodes": len(episodes),
        "detected_episodes": detected_eps,
        "mean_detection_delay": float(np.mean(delays)) if delays else 0.0,
    }


def _bench_task(trace: np.ndarray) -> TaskSpec:
    threshold = float(np.quantile(trace, 0.99))
    return TaskSpec(threshold=threshold, error_allowance=0.05,
                    max_interval=10, name="bench-hotpath")


def test_run_lockstep_vs_reference(benchmark, report):
    """A Fig. 5-sized panel — 6 streams x 35 (k, err) cells, 210 runs of
    10 000 steps — as one lockstep against the reference loop: each run's
    own scalar sampler through ``run_sampler_on_trace``."""
    traces = [synthetic_trace(10_000, SEED + i) for i in range(6)]
    tasks = [TaskSpec(threshold=threshold_for_selectivity(trace, k),
                      error_allowance=err, max_interval=10)
             for k in PAPER_SELECTIVITIES for err in PAPER_ERROR_ALLOWANCES
             for trace in traces]
    runs = traces * (len(tasks) // len(traces))
    config = AdaptationConfig()

    lockstep = benchmark.pedantic(
        lambda: run_lockstep(runs, tasks, config), rounds=1, iterations=1)
    started = time.perf_counter()
    reference = [run_sampler_on_trace(
        trace, ViolationLikelihoodSampler(task, config), task.threshold,
        task.direction) for trace, task in zip(runs, tasks)]
    reference_s = time.perf_counter() - started
    for got, want in zip(lockstep, reference):
        assert np.array_equal(got.sampled_indices, want.sampled_indices)
        assert np.array_equal(got.intervals, want.intervals)
        assert got.accuracy == want.accuracy

    if benchmark.stats is not None:  # None under --benchmark-disable
        report(f"run_lockstep: {len(tasks)} runs x 10,000 steps in "
               f"{benchmark.stats['mean']:.2f} s; reference loop "
               f"{reference_s:.2f} s")


def test_evaluate_sampling_vectorized(benchmark, report):
    """Vectorized scorer vs. the seed's set-based scorer."""
    from repro.core.accuracy import evaluate_sampling

    trace = synthetic_trace(N, SEED)
    task = _bench_task(trace)
    sampled = run_adaptive(trace, task).sampled_indices

    result = benchmark(
        lambda: evaluate_sampling(trace, task.threshold, sampled))
    legacy = _evaluate_sampling_legacy(trace, task.threshold, sampled)
    assert legacy["truth_alerts"] == result.truth_alerts
    assert legacy["detected_alerts"] == result.detected_alerts
    assert legacy["detected_episodes"] == result.detected_episodes
    assert legacy["misdetection_rate"] == result.misdetection_rate
    assert legacy["mean_detection_delay"] == result.mean_detection_delay

    if benchmark.stats is not None:  # None under --benchmark-disable
        report(f"evaluate_sampling: {benchmark.stats['mean'] * 1e3:.2f} ms "
               f"for {N:,} points / {sampled.size:,} samples")


def _counted(monkeypatch, owner: Any, name: str) -> list[int]:
    """Count calls to ``owner.name`` from here on (the call still runs)."""
    calls: list[int] = []
    wrapped = getattr(owner, name)

    def counting(*args: Any, **kwargs: Any) -> Any:
        calls.append(1)
        return wrapped(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_watched_exceedance_walks_no_bucket(monkeypatch):
    """10 000 interleaved updates and queries, ~78 rotations: after its
    first query ``exceedance(value_threshold)`` reads two counters."""
    values = synthetic_trace(10_000, SEED) + 50.0
    threshold = float(np.quantile(values, 0.99))
    estimator = QuantileEstimator(0.99)
    midpoints = _counted(monkeypatch, LogHistogram, "_bucket_value")
    estimator.update(float(values[0]))
    estimator.exceedance(threshold)
    walked = len(midpoints)
    assert walked > 0                   # the first query finds the cut-off
    above = 0
    for value in values[1:].tolist():
        estimator.update(value)
        above += estimator.exceedance(threshold) > 0.0
    assert len(midpoints) == walked
    assert 0 < above < len(values) - 1  # the tail came and went


def test_quantile_value_materialises_no_sketch(monkeypatch):
    """``quantile_value`` walks the two sketches where they are: the only
    sketches ever built are the rotations' (one per ``window`` updates)."""
    values = synthetic_trace(10_000, SEED) + 50.0
    estimator = QuantileEstimator(0.99, window=100)
    built = _counted(monkeypatch, LogHistogram, "__init__")
    for value in values.tolist():
        estimator.update(value)
        assert estimator.quantile_value() > 0.0
    assert len(built) == len(values) // 100


def test_step_major_batch_ticks_without_a_sort(monkeypatch):
    """A 4 x 1024 step-major batch — what ``bench/``'s bulk, typed-mix
    and cluster workloads send a shard — is four slices, never sorted.
    Four such batches, one per shard of a host, merge into four ticks
    whose rows fill the host engine's block: each tick's positions are
    placed by row, never sorted either."""
    engine = SoaSamplerEngine()
    task = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)
    for _ in range(1024):
        engine.add_task(task)
    rows = np.tile(np.arange(1024, dtype=np.int64), 4)
    values = np.random.default_rng(SEED).normal(50.0, 5.0, 4 * 1024)
    sorts = _counted(monkeypatch, np, "argsort")
    for frame in range(8):
        steps = np.repeat(np.arange(4 * frame, 4 * frame + 4,
                                    dtype=np.int64), 1024)
        result = engine.run_columns(rows, steps, values)
        assert result.applied == 4 * 1024
    assert not sorts
    host, (host_sorts, ticks) = _host_pass(
        monkeypatch, (np, "argsort"), (SoaSamplerEngine, "_observe_tick"))
    assert sum(worker.applied for worker in host.shards.values()) == 4096
    assert len(ticks) == 4 and not host_sorts


def test_a_wide_tick_takes_no_log(monkeypatch):
    """A 1 024-row tick folds each row's needed error into its
    coordination product by a multiply and ``np.frexp``: ``math.log``
    runs zero times there, where it ran once per row. It runs at the
    drain, once per row that observed."""
    engine = SoaSamplerEngine()
    task = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)
    for _ in range(1024):
        engine.add_task(task)
    rows = np.arange(1024, dtype=np.int64)
    values = np.random.default_rng(SEED).normal(90.0, 4.0, (16, 1024))
    logs = _counted(monkeypatch, math, "log")
    ticks = _counted(monkeypatch, SoaSamplerEngine, "_observe_tick")
    consumed = sum(engine.run_columns(rows, np.full(1024, step),
                                      values[step]).consumed
                   for step in range(16))
    assert consumed >= 16 * 1024 // 2 and len(ticks) == 16
    assert not logs
    assert len(engine.drain_coordination(rows)) == len(logs) == 1024


def _engine_service(tasks: int) -> MonitoringService:
    service = MonitoringService(soa=True)
    for i in range(tasks):
        service.add_task(f"t{i:04d}", TaskSpec(
            threshold=100.0, error_allowance=0.01, max_interval=10))
    return service


def _warm(tasks: int) -> MonitoringService:
    service = _engine_service(tasks)
    rows = np.arange(tasks, dtype=np.int64)
    for step in range(8):
        service.offer_columns(rows, np.full(tasks, step),
                              np.full(tasks, 50.0))
    return service


def test_engine_service_builds_no_scalar_twin(monkeypatch):
    """Registering 1024 tasks on, and restoring a 1024-task snapshot
    into, an engine service builds no scalar sampler or statistics
    object: a fresh row per task registered; a restore's rows allocated
    in one call and the snapshot's sampler columns loaded in one,
    nothing row by row and nothing dumped back."""
    snapshot = _warm(1024).snapshot()
    built = (_counted(monkeypatch, ViolationLikelihoodSampler, "__init__")
             + _counted(monkeypatch, OnlineStatistics, "__init__"))
    loads = _counted(monkeypatch, SoaSamplerEngine, "load_rows_state")
    bulk = _counted(monkeypatch, SoaSamplerEngine, "add_tasks")
    by_row = (_counted(monkeypatch, SoaSamplerEngine, "add_task"),
              _counted(monkeypatch, SoaSamplerEngine, "row_state_dict"))
    dumps = _counted(monkeypatch, SoaSamplerEngine, "rows_state")
    fresh = _engine_service(1024)
    assert len(by_row[0]) == 1024 and not loads and not bulk
    by_row[0].clear()
    restored = MonitoringService.restore(snapshot, soa=True)
    assert len(loads) == len(bulk) == 1
    assert not built and not dumps and not any(by_row)
    assert all(state.sampler is None for service in (fresh, restored)
               for state in service._tasks.values())
    assert state_fingerprint(restored.snapshot()) == state_fingerprint(
        snapshot) and len(dumps) == 1


def _typed_fleet(tasks: int) -> MonitoringService:
    """``tasks`` engine tasks: every 4th quantile, every 8th entropy,
    every 4th windowed, two guarded (one disarmed) on a watched plain
    trigger, the rest plain; a few offers in."""
    service = MonitoringService(soa=True)
    for i in range(tasks):
        name = f"t{i:04d}"
        if i % 4 == 1:
            service.add_quantile_task(name, threshold=100.0, quantile=0.9)
        elif i % 8 == 2:
            service.add_entropy_task(name, threshold=1.0)
        elif i % 4 == 3:
            service.add_task(name, TaskSpec(threshold=100.0,
                                            error_allowance=0.01), window=4)
        else:
            service.add_task(name, TaskSpec(threshold=100.0,
                                            error_allowance=0.01))
    for target in ("t0004", "t0008"):
        service.add_remote_trigger(target, "t0000", 60.0, suspend_interval=7)
    service.add_trigger_watch("t0000", 60.0)
    service.set_trigger_armed("t0008", False)
    rows = np.arange(tasks, dtype=np.int64)
    for step in range(8):
        service.offer_columns(rows, np.full(tasks, step),
                              np.full(tasks, 50.0 + step))
    return service


def test_a_restore_takes_its_tasks_in_bulk(monkeypatch):
    """Restoring a 1 024-task plain engine fleet does no per-row
    registration work — no ``mark_row``, ``set_floor`` or window: a plain
    task's fresh row already holds what it needs — and grows the engine
    at most once. A typed fleet marks exactly its derived (quantile and
    entropy) rows, floors exactly its guarded ones, and gives its
    windowed rows their rings in one call."""
    plain = _warm(1024).snapshot()
    typed = _typed_fleet(1024)
    derived = typed.soa_engine.derived_rows
    mixed = typed.snapshot()
    marks = _counted(monkeypatch, SoaSamplerEngine, "mark_row")
    floors = _counted(monkeypatch, SoaSamplerEngine, "set_floor")
    grows = _counted(monkeypatch, SoaSamplerEngine, "_grow")
    windows = _counted(monkeypatch, SoaSamplerEngine, "set_windows")
    restored = MonitoringService.restore(plain, soa=True)
    assert not marks and not floors and not windows
    assert len(grows) <= 1
    assert state_fingerprint(restored.snapshot()) == state_fingerprint(plain)
    grows.clear()
    restored = MonitoringService.restore(mixed, soa=True)
    assert derived == 256 + 128 and len(grows) <= 1
    assert len(windows) == 1
    assert np.count_nonzero(restored.soa_engine.window) == 256
    # The derived rows, and the watched trigger.
    assert len(marks) == derived + 1 and len(floors) == 2
    assert restored.soa_engine.derived_rows == derived
    assert restored.soa_engine.floor[:1024].tolist() == (
        typed.soa_engine.floor[:1024].tolist())
    assert state_fingerprint(restored.snapshot()) == state_fingerprint(mixed)


def test_a_snapshot_holds_nothing_per_task():
    """The number of JSON objects in a plain engine service's snapshot
    does not depend on how many tasks it has (64 or 1024): what every
    task has is columns, and a plain task has nothing else."""
    small, large = (json.dumps(_warm(tasks).snapshot(),
                               default=np.ndarray.tolist)
                    for tasks in (64, 1024))
    assert small.count("{") == large.count("{") < 24
    assert large.count("[") == small.count("[")
    assert len(large) > 12 * len(small)


# What registering one plain task on an engine service may allocate,
# traced, as the test below registers them: measured at 600 B on CPython
# 3.11 / numpy 2.4 (the engine row, the TaskState, dict and list
# entries), with ~20 % headroom. It was 1 480 B while every TaskState
# held an empty window deque and an empty alert list.
_PLAIN_TASK_BYTES = 720


def test_a_plain_task_holds_only_what_it_uses():
    """Registering 4 096 plain tasks on an engine service stays under
    ``_PLAIN_TASK_BYTES`` a task, traced: a task holds a window list only
    on a scalar service, once a windowed task takes an offer, and an
    alert list only on a scalar service — before and after a restore."""
    tasks = 4096
    specs = [TaskSpec(threshold=100.0, error_allowance=0.01,
                      max_interval=10) for _ in range(tasks)]
    names = [f"t{i:04d}" for i in range(tasks)]
    service = MonitoringService(soa=True)
    gc.collect()
    tracemalloc.start()
    try:
        for name, spec in zip(names, specs):
            service.add_task(name, spec)
        gc.collect()
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traced / tasks < _PLAIN_TASK_BYTES
    assert all(field.default_factory is dataclasses.MISSING
               for field in dataclasses.fields(service_module.TaskState))
    service.add_task("w", specs[0], window=4)
    scalar = MonitoringService()
    for holder in (service, scalar):
        holder.add_task("plain", specs[0])
        holder.add_task("windowed", specs[0], window=4)
    for holder in (service, scalar):
        holder.offer("windowed", 50.0, 0)
        copy = MonitoringService.restore(holder.snapshot(),
                                         soa=holder is service)
        for owner in (holder, copy):
            plain, windowed = (owner._tasks[name]
                               for name in ("plain", "windowed"))
            assert not hasattr(plain, "__dict__")
            assert plain._window is None
            assert owner.snapshot()["sparse"]["window_values"][
                "value"].tolist() == [50.0]
            if owner._soa is None:
                assert list(windowed._window) == [(0, 50.0)]
                assert plain.alerts == [] and windowed.alerts == []
            else:
                assert windowed._window is None
                assert plain.alerts is None and windowed.alerts is None
    assert service._tasks["t0000"].alerts is None


def _numbers(node: Any) -> int:
    """How many int and float leaves a parsed JSON document holds."""
    if isinstance(node, dict):
        return sum(_numbers(item) for item in node.values())
    if isinstance(node, list):
        return sum(_numbers(item) for item in node)
    return type(node) in (int, float)


def test_a_checkpoint_spells_no_number_per_task(tmp_path):
    """The file-level twin of the snapshot guard: the JSON head of an
    engine shard's checkpoint holds as many numbers for 1 024 tasks as
    for 64 — every per-task number is in the raw column section."""
    counts = []
    for tasks in (64, 1024):
        path = tmp_path / f"{tasks}.ckpt"
        write_checkpoint(path, {"shard_count": 1,
                                "shards": [_warm(tasks).snapshot()]})
        raw = path.read_bytes()
        counts.append(_numbers(json.loads(raw[:raw.index(b"\n")])))
    assert counts[0] == counts[1]


def test_a_typed_checkpoint_spells_no_number_per_task(tmp_path):
    """The typed twin: the JSON head of a mixed engine fleet's checkpoint
    holds as many numbers and as many objects for 1 024 tasks as for
    256 — quantile sketches (every one sealed by then, with buckets
    either side of zero), entropy rings and window buffers are columns
    in the raw section like everything else. At 256 tasks every column
    whose length grows with the fleet already has ``_MIN_PACKED``
    elements; the two guards and the one watcher stay JSON at both."""
    counts = []
    for tasks in (256, 1024):
        service = _typed_fleet(tasks)
        rows = np.arange(tasks, dtype=np.int64)
        for step in range(8, 8 + 132):  # past the sketch window of 128
            service.offer_columns(rows, np.full(tasks, step),
                                  np.random.default_rng(step).normal(
                                      20.0, 40.0, tasks))
        snapshot = service.snapshot()
        assert snapshot["sparse"]["quantile"]["has_sealed"].all()
        assert snapshot["sparse"]["quantile"]["sealed"]["neg_length"].any()
        path = tmp_path / f"{tasks}.ckpt"
        write_checkpoint(path, {"shard_count": 1, "shards": [snapshot]})
        raw = path.read_bytes()
        head = raw[:raw.index(b"\n")]
        counts.append((_numbers(json.loads(head)), head.count(b"{")))
    assert counts[0] == counts[1]


def test_a_checkpoint_copies_no_column(tmp_path):
    """A checkpoint writes each column from its own buffer: one
    ``write_checkpoint`` of a 4 096-task engine document holding over
    1 MB of alert history peaks, traced, below its JSON head's length
    plus 256 KB. The copying writer it replaced (each column
    ``tobytes()``-ed, joined into one body, the trailer appended to a
    second) peaked at three times the column section."""
    tasks = 4096
    service = _engine_service(tasks)
    rows = np.arange(tasks, dtype=np.int64)
    for step in range(12):  # every task alerts at every step
        service.offer_columns(rows, np.full(tasks, step),
                              np.full(tasks, 105.0))
    document = {"shard_count": 1, "shards": [service.snapshot()]}
    assert sum(column.nbytes for column in
               document["shards"][0]["alerts"].values()) > 1 << 20
    path = tmp_path / "hot.ckpt"
    gc.collect()
    tracemalloc.start()
    try:
        write_checkpoint(path, document)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    raw = path.read_bytes()
    head = raw.index(b"\n")
    assert len(raw) - head > 1 << 20
    assert peak < head + (256 << 10)


def test_a_warm_snapshot_walks_no_task(monkeypatch, tmp_path):
    """A snapshot builds its registration columns (names, specs,
    configs, window and guard settings) once per registration change: a
    second snapshot of a 1 024-task engine service with only offers in
    between builds them zero times, and one after each of the four
    control ops that can change them builds them exactly once. A warm
    snapshot, a cold one (a restore's first) and the same document as
    lists all write the same checkpoint bytes."""
    service = _warm(1024)
    built = _counted(monkeypatch, service_module, "_distinct")
    first = service.snapshot()
    assert len(built) == 1
    rows = np.arange(1024, dtype=np.int64)
    service.offer_columns(rows, np.full(1024, 8), np.full(1024, 97.0))
    warm = service.snapshot()
    assert len(built) == 1
    assert state_fingerprint(warm) != state_fingerprint(first)
    for change in (
            lambda: service.add_task("late", TaskSpec(threshold=100.0,
                                                      error_allowance=0.01)),
            lambda: service.remove_task("t0003"),
            lambda: service.add_remote_trigger("t0010", "far", 50.0),
            lambda: service.add_trigger_watch("t0020", 60.0)):
        built.clear()
        change()
        service.snapshot()
        service.snapshot()
        assert len(built) == 1
    written = []
    for document in (warm, MonitoringService.restore(warm, soa=True)
                     .snapshot(), json.loads(json.dumps(
                         warm, default=np.ndarray.tolist))):
        path = tmp_path / f"{len(written)}.ckpt"
        write_checkpoint(path, {"shard_count": 1, "shards": [document]})
        written.append(path.read_bytes())
    assert written[0] == written[1] == written[2]


def test_an_unchanged_shard_hands_back_its_document(monkeypatch):
    """A second snapshot of a 1 024-task typed engine fleet with no op
    in between is the very document the first built: no engine gather
    (``rows_state``) and no sparse group read (``_sparse_group``). One
    ``offer_columns`` in between builds it again, once."""
    service = _typed_fleet(1024)
    gathers = _counted(monkeypatch, SoaSamplerEngine, "rows_state")
    groups = _counted(monkeypatch, MonitoringService, "_sparse_group")
    first = service.snapshot()
    assert len(gathers) == 1 and groups
    gathers.clear()
    groups.clear()
    assert service.snapshot() is first
    assert not gathers and not groups
    rows = np.arange(1024, dtype=np.int64)
    service.offer_columns(rows, np.full(1024, 8), np.full(1024, 97.0))
    again = service.snapshot()
    assert again is not first and len(gathers) == 1 and groups
    assert state_fingerprint(again) != state_fingerprint(first)
    assert service.snapshot() is again and len(gathers) == 1


def test_a_local_pair_rides_the_tick(monkeypatch):
    """A 4 x 1024 step-major batch on a service that also holds one
    local ``add_trigger`` pair and one installed plan, with a sink that
    only logs: every offer of every frame reaches ``run_columns``, one
    call per watch-cut segment, and no row needs re-resolving by name —
    the service routes both triggers' edges itself."""
    service = _engine_service(1024)
    service.add_trigger("t0007", "t0400", elevation_level=50.0)
    service.add_trigger_watch("t0100", 50.0, hysteresis=0.0, min_hold=0)
    service.add_remote_trigger("t0900", "t0100", 50.0)
    edges: list[dict] = []
    service.set_trigger_sink(edges.append)
    segments = _counted(monkeypatch, service, "_apply_columns")
    resolved = _counted(monkeypatch, service, "_rows_of")
    ticked: list[int] = []
    run_columns = SoaSamplerEngine.run_columns
    monkeypatch.setattr(SoaSamplerEngine, "run_columns", lambda *args: (
        ticked.append(len(args[1])), run_columns(*args))[1])
    rows = np.tile(np.arange(1024, dtype=np.int64), 4)
    names = [f"t{i:04d}" for i in rows.tolist()]
    rng = np.random.default_rng(SEED)
    for frame in range(8):
        steps = np.repeat(np.arange(4 * frame, 4 * frame + 4,
                                    dtype=np.int64), 1024)
        values = rng.normal(50.0, 5.0, 4 * 1024)
        before = sum(ticked)
        applied, _, rejected, _ = service.offer_columns(rows, steps, values,
                                                        names)
        assert (applied, rejected) == (4 * 1024, 0)
        assert sum(ticked) - before == 4 * 1024
    assert len(ticked) == len(segments) > 16     # the edges did cut
    assert not resolved
    for target in ("t0007", "t0900"):
        assert service.trigger_suspensions(target) > 0
    assert len(edges) > 16


def _host_pass(monkeypatch, *counted: tuple[Any, str],
               ) -> tuple[WorkerHost, list[list[int]]]:
    """One host pass: a step-major frame of 4 steps over 1 024 tasks,
    routed to four shards of one host, queued as four shard batches and
    drained in one pass, with each ``(owner, name)`` of ``counted``
    counted from the enqueue on; the host and the counts."""
    tasks, shards, steps = 1024, 4, 4
    names = [f"t{i:04d}" for i in range(tasks)]
    shard_of = [route(name, shards) for name in names]

    async def scenario() -> tuple[WorkerHost, list[list[int]]]:
        host = WorkerHost("w0")
        host.start()
        for sid in range(shards):
            host.install_shard(sid)
        for name, sid in zip(names, shard_of):
            host.shards[sid].service.add_task(name, TaskSpec(
                threshold=100.0, error_allowance=0.01, max_interval=10))
        batches = []
        for sid in range(shards):
            service = host.shards[sid].service
            rows = np.asarray([service.soa_row_for(name) for name, home
                               in zip(names, shard_of) if home == sid])
            batches.append((sid, ColumnBatch(
                np.tile(rows, steps), np.repeat(np.arange(steps), len(rows)),
                np.full(steps * len(rows), 50.0))))
        counts = [_counted(monkeypatch, owner, name)
                  for owner, name in counted]
        assert host.enqueue(batches) == (steps * tasks, 0, 0)
        await host.handle({"op": "w_drain"})
        await host.close()
        return host, counts

    return asyncio.run(scenario())


def test_a_host_pass_ticks_once_per_step(monkeypatch):
    """A step-major frame of 4 steps over 1 024 tasks routed to four
    shards of one host: the host's drain loop takes the four shard
    batches in one pass, whose engine ticks once per step — four
    ``_observe_tick`` calls, not one per shard per step (sixteen)."""
    host, (ticks,) = _host_pass(monkeypatch,
                                (SoaSamplerEngine, "_observe_tick"))
    assert sum(worker.applied for worker in host.shards.values()) == 4096
    assert len(ticks) == 4


def test_a_hot_batch_gathers_only_its_flagged_offers(monkeypatch):
    """A ``bulk-hot``-shaped batch — 4 steps x 1 024 tasks at N(94, 4)
    against a threshold of 100, every row due every step — flags a few
    of each tick's offers. Each tick keeps only those: the batch
    concatenates one row and one interval per consumed offer and the
    six event columns of its flagged offers, never a whole tick's."""
    engine = SoaSamplerEngine()
    task = TaskSpec(threshold=100.0, error_allowance=0.01, max_interval=10)
    for _ in range(1024):
        engine.add_task(task)
    rows = np.tile(np.arange(1024, dtype=np.int64), 4)
    rng = np.random.default_rng(SEED)
    for frame in range(8):
        steps = np.repeat(np.arange(4 * frame, 4 * frame + 4,
                                    dtype=np.int64), 1024)
        values = rng.normal(94.0, 4.0, 4 * 1024)
        if frame == 7:
            joined: list[int] = []
            concatenate = np.concatenate

            def counting(arrays: Any, *args: Any, **kwargs: Any) -> Any:
                out = concatenate(arrays, *args, **kwargs)
                joined.append(len(out))
                return out
            monkeypatch.setattr(np, "concatenate", counting)
        result = engine.run_columns(rows, steps, values)
    flagged = len(result.event_rows)
    assert result.consumed == 4 * 1024
    assert 0 < len(result.viol_rows) <= flagged < 1024
    assert sum(joined) == 2 * result.consumed + 6 * flagged


def test_a_quiet_tick_builds_a_cell_per_own_step():
    """A ``bulk-quiet``-shaped tick — 1 536 rows whose intervals follow
    a quiet run's mix, a quarter of the widest interval on average —
    builds one β cell per look-ahead step of each row's own interval:
    the kernel's traced peak stays under ten float64 columns of
    ``interval.sum()`` cells, where a matrix as tall as the widest
    interval (``interval.max() * rows`` cells) would not."""
    rng = np.random.default_rng(SEED)
    rows = 1536
    # Rows per interval 1 .. 10 over a quiet run's ticks.
    mix = np.array([923, 850, 401, 193, 120, 81, 59, 43, 34, 95], float)
    interval = rng.choice(np.arange(1, 11), rows,
                          p=mix / mix.sum()).astype(np.int64)
    args = (rng.uniform(5.0, 60.0, rows), rng.normal(0.0, 0.5, rows),
            rng.uniform(0.5, 9.0, rows), interval, np.ones(rows, bool))
    cells = int(interval.sum())
    assert 3 * cells < int(interval.max()) * rows
    SoaSamplerEngine._kernel(*args)
    tracemalloc.start()
    try:
        beta = SoaSamplerEngine._kernel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(beta) == rows
    assert peak < 10 * 8 * cells


def _counted_alerts(monkeypatch) -> list[int]:
    """Count the ``Alert`` objects ``repro.service`` builds from here on
    (a subclass in the module's name; equal to the originals)."""
    built: list[int] = []

    class CountedAlert(service_module.Alert):
        __slots__ = ()

        def __new__(cls, *args: Any, **kwargs: Any) -> "CountedAlert":
            built.append(1)
            return super().__new__(cls)
    monkeypatch.setattr(service_module, "Alert", CountedAlert)
    return built


def test_a_hosted_shards_alerts_stay_columns(monkeypatch):
    """1024 tasks, every offer of every batch violating, on a shard as
    ``WorkerHost`` installs it (trace attached, alert-count sink, nobody's
    ``on_alert``): no ``Alert`` is built, the trace takes one block per
    ``_apply_columns`` and no ``emit``, and no event dict exists — until
    somebody reads."""
    host = WorkerHost("w0")
    worker = host.install_shard(0)
    service = worker.service
    for i in range(1024):
        service.add_task(f"t{i:04d}", TaskSpec(
            threshold=100.0, error_allowance=0.01, max_interval=10))
    built = _counted_alerts(monkeypatch)
    segments = _counted(monkeypatch, service, "_apply_columns")
    blocks = _counted(monkeypatch, host.trace, "emit_block")
    singles = _counted(monkeypatch, host.trace, "emit")
    dicts = _counted(monkeypatch, trace_module, "_event")
    rows = np.arange(1024, dtype=np.int64)
    for step in range(8):
        worker.apply_columns(ColumnBatch(rows, np.full(1024, step),
                                         np.full(1024, 150.0)))
    assert worker.applied == worker.alerts_fired == 8 * 1024
    assert len(blocks) == len(segments) == 8 and not singles
    assert not dicts and not any(type(entry) is dict
                                 for entry in host.trace._ring)
    assert service.alert_count("t0007") == 8
    assert service.snapshot()["task"]["alerts"][7] == 8
    assert not built
    assert len(service.alerts("t0007")) == 8 == len(built)
    events = host.trace.drain()
    assert len(events) == host.trace.capacity <= len(dicts)
    assert {event["kind"] for event in events} == {"violation"}


def test_restore_builds_alerts_only_for_the_scalar_oracle(monkeypatch):
    """A snapshot carrying 20 000 alerts goes into an engine service's
    columns without one ``Alert``; restored scalar, it is exactly 20 000."""
    source = _engine_service(100)
    rows = np.arange(100, dtype=np.int64)
    for step in range(200):
        source.offer_columns(rows, np.full(100, step), np.full(100, 150.0))
    snapshot = source.snapshot()
    assert sum(snapshot["task"]["alerts"]) == 20_000
    built = _counted_alerts(monkeypatch)
    on_rows = MonitoringService.restore(snapshot, soa=True)
    assert not built
    taken = state_fingerprint(snapshot)
    assert state_fingerprint(on_rows.snapshot()) == taken and not built
    scalar = MonitoringService.restore(snapshot, soa=False)
    assert len(built) == 20_000
    assert state_fingerprint(scalar.snapshot()) == taken
    assert len(built) == 20_000


def test_a_narrow_tick_indexes_no_column(monkeypatch):
    """A 16-row tick, stepped row by row, and by-name offers reach the
    engine's columns through its views and whole-array operations only:
    no column is indexed by an integer, which makes a numpy scalar."""
    service = _warm(64)
    engine = service.soa_engine
    indexed: list[Any] = []

    class CountedColumn(np.ndarray):
        def __getitem__(self, key: Any) -> Any:
            if isinstance(key, (int, np.integer)):
                indexed.append(key)
            return super().__getitem__(key)

        def __setitem__(self, key: Any, value: Any) -> None:
            if isinstance(key, (int, np.integer)):
                indexed.append(key)
            super().__setitem__(key, value)
    for name in engine._COLUMNS:
        monkeypatch.setattr(engine, name,
                            getattr(engine, name).view(CountedColumn))
    engine._bind_views()
    narrow = _counted(monkeypatch, engine, "_observe_narrow")
    rows = np.arange(0, 32, 2, dtype=np.int64)
    values = np.where(rows % 4 == 0, 150.0, 50.0)   # half of them alert
    applied, consumed, rejected, _ = service.offer_columns(
        rows, np.full(16, 40), values)
    assert (applied, consumed, rejected) == (16, 16, 0) and narrow
    assert service.offer_fast("t0001", 150.0, 41) == 1
    assert service.offer("t0003", 50.0, 41).violation is False
    readers = (service.next_due, service.samples_taken, service.interval,
               service.observations, service.alert_count,
               service.trigger_suspensions)
    assert all(type(read("t0001")) is int for read in readers)
    assert not indexed
    engine.views.mean[0] = 1.5          # the views alias the columns
    assert engine.mean[:1].tolist() == [1.5]


def test_a_narrow_batch_pays_no_wrapper_and_no_record(monkeypatch):
    """A 16-offer shard batch, the narrow batch a per-node agent's
    64-offer frame becomes: ``apply_columns`` finds its indices through
    ``ndarray.nonzero``, never the ``np.flatnonzero`` wrapper, and hands
    its intervals to the histogram as one count column, which the
    sketch absorbs when it is read — no ``LogHistogram.record`` per
    batch."""
    worker = ShardWorker(0, _warm(64), 16)
    worker.interval_hist = hist = MetricsRegistry().histogram("interval")
    wrapped = _counted(monkeypatch, np, "flatnonzero")
    records = _counted(monkeypatch, LogHistogram, "record")
    rows = np.arange(0, 64, 4, dtype=np.int64)
    rng = np.random.default_rng(SEED)
    for step in range(8, 72):
        worker.apply_columns(ColumnBatch(rows, np.full(16, step),
                                         rng.normal(50.0, 5.0, 16)))
    assert worker.applied == 64 * 16 and worker.consumed > 64
    assert not wrapped and not records
    assert hist.get()["count"] == worker.consumed and records


def test_a_typed_batch_pays_no_index_wrapper(monkeypatch):
    """A step-major batch over windowed, quantile, entropy, guarded and
    watched rows takes ``offer_columns`` with no ``np.flatnonzero``."""
    service = _typed_fleet(256)
    wrapped = _counted(monkeypatch, np, "flatnonzero")
    rows = np.tile(np.arange(256, dtype=np.int64), 4)
    rng = np.random.default_rng(SEED)
    for frame in range(2, 10):
        steps = np.repeat(np.arange(4 * frame, 4 * frame + 4,
                                    dtype=np.int64), 256)
        applied, _, rejected, _ = service.offer_columns(
            rows, steps, rng.normal(55.0, 8.0, 4 * 256))
        assert (applied, rejected) == (4 * 256, 0)
    assert not wrapped


def test_a_binary_frame_pays_no_index_wrapper(monkeypatch):
    """A binary offer frame through the front end — the step check, an
    unknown slot, the per-shard split and the shards' apply — calls no
    ``np.flatnonzero``."""
    async def scenario() -> tuple[Any, Any]:
        server = RuntimeServer(RuntimeConfig(port=0, shards=2))
        await server.start()
        client = AsyncRuntimeClient(port=server.tcp_port)
        try:
            await client.negotiate()
            names = [f"t{i:02d}" for i in range(16)]
            for name in names:
                await client.register_task(name, 100.0,
                                           error_allowance=0.05)
            await client.intern([*names, "ghost"])
            wrapped = _counted(monkeypatch, np, "flatnonzero")
            reply = await client.offer_columns(
                list(range(17)), [0] * 17, [50.0] * 17)
            await server.drain()
            return reply, wrapped
        finally:
            await client.close()
            await server.shutdown()
    reply, wrapped = asyncio.run(scenario())
    assert (reply.accepted, reply.rejected) == (16, 1)
    assert not wrapped
