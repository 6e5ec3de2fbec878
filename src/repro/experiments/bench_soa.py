"""Scalar-vs-SoA equivalence benchmark (``python -m repro.experiments.bench_soa``).

Drives the same multi-task offer stream through two
:class:`~repro.service.MonitoringService` instances — one stepping every
offer through the scalar :class:`~repro.core.adaptation
.ViolationLikelihoodSampler` path, one batching through the columnar
:class:`~repro.core.soa.SoaSamplerEngine` — and verifies the bit-equivalence
contract of DESIGN.md S31 end to end: identical snapshots (every sampler
state_dict float included), identical per-task alert sequences, identical
sampling counters. Both estimators (``chebyshev`` and ``gaussian``) are
checked; the default stream is 1M+ points so the Welford accumulators pass
through growth, violation streaks, restarts and stale-serving regimes.

The report also carries throughput for each path, which is the honest way
to state the SoA speedup: the columnar engine's win is amortising the
per-offer Python interpreter cost across thousands of rows per tick. How
much of that survives small batches — a per-node agent's few dozen
metrics a step — is the ``ns_per_offer`` profile by batch size; its
``small_batch_ratio`` (cost per offer at batch 16 over batch 1024) is a
ratio of two timings from one process, so it can be gated
(``--max-small-batch-ratio``) where absolute speed cannot.

Exit code 1 when any estimator diverges or the ratio gate fails — the CI
core-hotpath job runs this at the default batch and at ``--batch 16``
(ticks of at most 16 due rows, either side of the engine's row-by-row
crossover) as the equivalence gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.task import TaskSpec
from repro.service import MonitoringService

__all__ = ["equivalence_report", "main", "run_equivalence"]

_THRESHOLD = 100.0

ESTIMATORS = ("chebyshev", "gaussian")

_PROFILE_BATCHES = (16, 64, 1024)
_PROFILE_SHAPE = (1024, 800, 192)   # tasks, warm-up steps, timed steps


def _build_service(tasks: int, estimator: str, soa: bool,
                   max_interval: int, kinds: bool = False,
                   ) -> MonitoringService:
    """``tasks`` plain tasks; with ``kinds``, of every eight one each is
    windowed, quantile and entropy and one pair is a watched trigger and
    the task it guards, edges routed in-service as they fire."""
    config = AdaptationConfig(estimator=estimator)
    service = MonitoringService(config, soa=soa)
    guards: dict[str, str] = {}
    for i in range(tasks):
        name = f"soa-{i:04d}"
        kind = i % 8 if kinds else 0
        if kind == 3:
            service.add_quantile_task(name, threshold=_THRESHOLD,
                                      quantile=0.9, sketch_window=64,
                                      max_interval=max_interval)
        elif kind == 4:
            service.add_entropy_task(name, threshold=4.0,
                                     entropy_window=32, bin_width=4.0,
                                     max_interval=max_interval)
        else:
            service.add_task(
                name, TaskSpec(threshold=_THRESHOLD, error_allowance=0.01,
                               max_interval=max_interval, name=name),
                window=4 if kind == 2 else 1)
        if kind == 5:
            service.add_trigger_watch(name, 95.0, min_hold=3)
        elif kind == 6:
            guards[f"soa-{i - 1:04d}"] = name
            service.add_remote_trigger(name, f"soa-{i - 1:04d}", 95.0,
                                       suspend_interval=5)
    if guards:
        service.set_trigger_sink(lambda event: service.set_trigger_armed(
            guards[event["trigger"]], event["op"] == "arm"))
    return service


def _alert_log(service: MonitoringService) -> dict[str, list[tuple]]:
    return {name: [(a.time_index, a.value, a.threshold)
                   for a in service.alerts(name)]
            for name in service.task_names}


def _task_counters(service: MonitoringService) -> dict[str, tuple]:
    return {name: (service.samples_taken(name), service.interval(name),
                   service.next_due(name), service.observations(name))
            for name in service.task_names}


def _drive_columns(service: MonitoringService, rows: np.ndarray,
                   steps: np.ndarray, values: np.ndarray,
                   batch: int) -> tuple[int, float]:
    """Feed the stream as ``batch``-sized columns: (applied, seconds)."""
    started = time.perf_counter()
    applied = 0
    for lo in range(0, len(rows), batch):
        hi = lo + batch
        a, _, rejected, _ = service.offer_columns(
            rows[lo:hi], steps[lo:hi], values[lo:hi], names=None)
        applied += a
        if rejected:
            raise AssertionError(
                f"columnar path rejected {rejected} offers")
    return applied, time.perf_counter() - started


def run_equivalence(points: int, tasks: int, estimator: str,
                    batch: int = 4096, seed: int = 7,
                    max_interval: int = 10,
                    kinds: bool = False) -> dict[str, Any]:
    """One estimator's bit-identity check + throughput numbers
    (``kinds``: over :func:`_build_service`'s mixed population).

    The stream is round-robin over ``tasks`` with heavy gaussian noise
    hovering below the threshold, so interval growth, violations and
    resets all occur. The scalar service consumes it offer-by-offer
    (:meth:`~repro.service.MonitoringService.offer_fast`); the SoA service
    consumes it as ``batch``-sized columns
    (:meth:`~repro.service.MonitoringService.offer_columns`).
    """
    if tasks < 1 or points < tasks:
        raise ValueError(f"need points >= tasks >= 1, got "
                         f"{points=} {tasks=}")
    rng = np.random.default_rng(seed)
    values = rng.normal(80.0, 18.0, points)
    names = [f"soa-{i:04d}" for i in range(tasks)]

    scalar = _build_service(tasks, estimator, soa=False,
                            max_interval=max_interval, kinds=kinds)
    vector = _build_service(tasks, estimator, soa=True,
                            max_interval=max_interval, kinds=kinds)

    # Scalar path: one interpreter round-trip per offer.
    started = time.perf_counter()
    value_list = values.tolist()
    for i, value in enumerate(value_list):
        scalar.offer_fast(names[i % tasks], value, i // tasks)
    scalar_elapsed = time.perf_counter() - started

    # Columnar path: the same stream as (row, step, value) columns. Rows
    # resolve once up front, exactly as the server's intern table does.
    rows_by_task = np.asarray([vector.soa_row_for(n) for n in names],
                              dtype=np.int64)
    positions = np.arange(points, dtype=np.int64)
    applied, soa_elapsed = _drive_columns(
        vector, rows_by_task[positions % tasks], positions // tasks, values,
        batch)

    snapshots_equal = scalar.snapshot() == vector.snapshot()
    alerts_equal = _alert_log(scalar) == _alert_log(vector)
    counters_equal = _task_counters(scalar) == _task_counters(vector)
    return {
        "estimator": estimator,
        "points": points,
        "tasks": tasks,
        "batch": batch,
        "applied": applied,
        "identical": bool(snapshots_equal and alerts_equal
                          and counters_equal),
        "snapshots_equal": snapshots_equal,
        "alerts_equal": alerts_equal,
        "counters_equal": counters_equal,
        "alerts": sum(len(log) for log in _alert_log(vector).values()),
        "scalar_points_per_sec": (round(points / scalar_elapsed)
                                  if scalar_elapsed else 0),
        "soa_points_per_sec": (round(points / soa_elapsed)
                               if soa_elapsed else 0),
        "soa_speedup": (round(scalar_elapsed / soa_elapsed, 2)
                        if soa_elapsed else 0.0),
    }


def _batch_cost_profile(batch: int, seed: int = 7) -> dict[str, float]:
    """SoA-path cost per offer (ns) by batch size, default estimator.

    The traffic the ratio is about is a fleet at rest, not the
    equivalence stream's permanent alarm: 1024 tasks whose noise is
    scaled to their headroom (gap/sd from 25 to 250, so sustained
    intervals range from 1 to the cap and about a third of offers are
    due), warmed to steady state in large batches, untimed. Every batch
    size — 16, 64 and 1024 offers a call, plus the run's own ``batch`` —
    then continues the same stream from the same restored snapshot.
    """
    tasks, warm_steps, timed_steps = _PROFILE_SHAPE
    rng = np.random.default_rng(seed)
    sd = 40.0 / rng.permutation(np.geomspace(25.0, 250.0, tasks))
    positions = np.arange((warm_steps + timed_steps) * tasks,
                          dtype=np.int64)
    steps = positions // tasks
    values = 60.0 + rng.normal(0.0, 1.0, len(positions)) * sd[
        positions % tasks]
    service = _build_service(tasks, ESTIMATORS[0], soa=True,
                             max_interval=10)
    rows = np.asarray([service.soa_row_for(name)
                       for name in service.task_names],
                      dtype=np.int64)[positions % tasks]
    warm = warm_steps * tasks
    _drive_columns(service, rows[:warm], steps[:warm], values[:warm], 4096)
    snapshot = service.snapshot()
    profile = {}
    for size in sorted({*_PROFILE_BATCHES, batch}):
        service = MonitoringService.restore(snapshot, soa=True)
        _, elapsed = _drive_columns(service, rows[warm:], steps[warm:],
                                    values[warm:], size)
        profile[str(size)] = round(elapsed / (len(rows) - warm) * 1e9, 1)
    return profile


def equivalence_report(points: int = 1_000_000, tasks: int = 1024,
                       batch: int = 4096, seed: int = 7) -> dict[str, Any]:
    """Both estimators' equivalence runs plus a combined verdict.

    This is the block the load generator's ``--protocol-sweep`` embeds in
    ``BENCH_runtime.json``.
    """
    runs = [run_equivalence(points, tasks, estimator, batch=batch,
                            seed=seed) for estimator in ESTIMATORS]
    # Windowed, quantile, entropy, guarded and watched rows ride the same
    # tick: one more run, over tasks of every kind.
    every_kind = run_equivalence(points, tasks, ESTIMATORS[0], batch=batch,
                                 seed=seed, kinds=True)
    profile = _batch_cost_profile(batch, seed=seed)
    return {
        "points": points,
        "tasks": tasks,
        "identical": (all(run["identical"] for run in runs)
                      and every_kind["identical"]),
        "estimators": {run["estimator"]: run for run in runs},
        "every_kind": every_kind,
        "ns_per_offer": profile,
        "small_batch_ratio": round(profile["16"] / profile["1024"], 2),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench_soa",
        description="Verify the SoA sampler engine is bit-identical to "
                    "the scalar sampler over a large stream and report "
                    "the throughput of both paths.")
    parser.add_argument("--points", type=int, default=1_000_000,
                        help="stream length per estimator (default 1M)")
    parser.add_argument("--tasks", type=int, default=1024,
                        help="concurrent tasks (default 1024)")
    parser.add_argument("--batch", type=int, default=4096,
                        help="columnar batch size (default 4096)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-small-batch-ratio", type=float, default=None,
                        help="fail when ns/offer at batch 16 exceeds this "
                             "many times ns/offer at batch 1024")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (``python -m repro.experiments.bench_soa``)."""
    args = _build_parser().parse_args(argv)
    report = equivalence_report(points=args.points, tasks=args.tasks,
                                batch=args.batch, seed=args.seed)
    for estimator, run in report["estimators"].items():
        verdict = "bit-identical" if run["identical"] else "DIVERGED"
        print(f"[bench-soa] {estimator}: {verdict} over "
              f"{run['points']} points / {run['tasks']} tasks; "
              f"scalar {run['scalar_points_per_sec']}/s, "
              f"soa {run['soa_points_per_sec']}/s "
              f"({run['soa_speedup']}x); alerts={run['alerts']}",
              flush=True)
    run = report["every_kind"]
    print(f"[bench-soa] every task kind ({run['estimator']}): "
          f"{'bit-identical' if run['identical'] else 'DIVERGED'}; scalar "
          f"{run['scalar_points_per_sec']}/s, soa "
          f"{run['soa_points_per_sec']}/s ({run['soa_speedup']}x); "
          f"alerts={run['alerts']}", flush=True)
    ratio = report["small_batch_ratio"]
    print("[bench-soa] ns/offer by batch: "
          + ", ".join(f"{size}: {ns}" for size, ns
                      in report["ns_per_offer"].items())
          + f"; batch 16 costs {ratio}x batch 1024", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"[bench-soa] -> {args.out}", flush=True)
    if not report["identical"]:
        print("[bench-soa] FAIL: SoA engine diverged from the scalar "
              "sampler", file=sys.stderr, flush=True)
        return 1
    limit = args.max_small_batch_ratio
    if limit is not None and ratio > limit:
        print(f"[bench-soa] FAIL: small-batch ratio {ratio} > {limit}",
              file=sys.stderr, flush=True)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
