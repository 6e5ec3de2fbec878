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
per alert, a sort per step-major batch, a scalar sampler built beside an
engine row, a last-seen pair dragging its batch off the tick, an
``Alert`` object, a trace call or a trace event dict per alert on a
hosted shard or in its restore, a JSON object per task in a snapshot, a
decimal number per task in a checkpoint file, a row-by-row engine write
in a restore).
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

from repro import service as service_module
from repro.cluster.hosting import WorkerHost
from repro.core.accuracy import alert_episodes, truth_alert_indices
from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.online_stats import OnlineStatistics
from repro.core.soa import SoaSamplerEngine
from repro.core.substrates import QuantileEstimator
from repro.core.task import TaskSpec
from repro.experiments.runner import (run_adaptive, run_lockstep,
                                      run_sampler_on_trace)
from repro.runtime.checkpoint import write_checkpoint
from repro.runtime.shard import ColumnBatch
from repro.service import MonitoringService
from repro.telemetry import trace as trace_module
from repro.telemetry.histogram import LogHistogram
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
    and cluster workloads send a shard — is four slices, never sorted."""
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
    assert restored.snapshot() == snapshot and len(dumps) == 1


def test_a_snapshot_holds_nothing_per_task():
    """The number of JSON objects in a plain engine service's snapshot
    does not depend on how many tasks it has (64 or 1024): what every
    task has is columns, and a plain task has nothing else."""
    small, large = (json.dumps(_warm(tasks).snapshot())
                    for tasks in (64, 1024))
    assert small.count("{") == large.count("{") < 24
    assert large.count("[") == small.count("[")
    assert len(large) > 12 * len(small)


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


def test_a_local_pair_rides_the_tick(monkeypatch):
    """A 4 x 1024 step-major batch on a service that also holds one
    local ``add_trigger`` pair and one installed plan, with no sink
    attached: one ``run_columns`` call per watch-cut segment, every one
    of them with an empty ``fallback``, and nothing is stepped by name —
    the service routes both triggers' edges itself."""
    service = _engine_service(1024)
    service.add_trigger("t0007", "t0400", elevation_level=50.0)
    service.add_trigger_watch("t0100", 50.0, hysteresis=0.0, min_hold=0)
    service.add_remote_trigger("t0900", "t0100", 50.0)
    segments = _counted(monkeypatch, service, "_apply_columns")
    by_name = _counted(monkeypatch, service, "_offer_soa")
    fallbacks: list[int] = []
    run_columns = SoaSamplerEngine.run_columns
    monkeypatch.setattr(SoaSamplerEngine, "run_columns", lambda *args: (
        result := run_columns(*args),
        fallbacks.append(len(result.fallback)))[0])
    rows = np.tile(np.arange(1024, dtype=np.int64), 4)
    names = [f"t{i:04d}" for i in rows.tolist()]
    rng = np.random.default_rng(SEED)
    for frame in range(8):
        steps = np.repeat(np.arange(4 * frame, 4 * frame + 4,
                                    dtype=np.int64), 1024)
        values = rng.normal(50.0, 5.0, 4 * 1024)
        applied, _, rejected, _ = service.offer_columns(rows, steps, values,
                                                        names)
        assert (applied, rejected) == (4 * 1024, 0)
    assert len(fallbacks) == len(segments) > 16     # the edges did cut
    assert not any(fallbacks) and not by_name
    for target in ("t0007", "t0900"):
        assert service.trigger_suspensions(target) > 0
    assert len(service.drain_trigger_events()) > 16


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
    assert on_rows.snapshot() == snapshot and not built
    scalar = MonitoringService.restore(snapshot, soa=False)
    assert len(built) == 20_000
    assert scalar.snapshot() == snapshot and len(built) == 20_000
