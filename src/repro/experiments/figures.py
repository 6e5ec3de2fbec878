"""Per-figure experiment drivers (paper SV-B; DESIGN.md S6).

One function per evaluation figure:

* :func:`fig5` (with domain ``"network"``, ``"system"``,
  ``"application"``) — monitoring-overhead saving vs. error allowance and
  alert selectivity (Figs. 5(a)-(c));
* :func:`fig6` — Dom0 CPU utilisation distribution vs. error allowance;
* :func:`fig7` — actual mis-detection rate vs. error allowance (system
  tasks);
* :func:`fig8` — distributed coordination: cost vs. Zipf skew of local
  violation rates, adaptive vs. even allocation.

All drivers honour the ``REPRO_SCALE`` environment variable (a float
multiplier on stream counts and horizons) so the same code runs at laptop
scale by default and approaches the paper's 800-VM scale when asked.

Every driver expresses its sweep as pure, picklable
:class:`~repro.experiments.parallel.SweepJob`\\ s and executes them
through :func:`~repro.experiments.parallel.run_sweep`, so the same call
runs serially (``workers=1``), fans out over a process pool
(``workers=N`` / ``REPRO_WORKERS``), and can resume from an on-disk
result cache — with bit-for-bit identical numbers in every mode, because
each job regenerates its own randomness from the master seed.

A Fig. 5 / Fig. 7 panel and the whole Fig. 8 grid are one job each: their
runs are independent samplers on one aligned grid, so they step together
as engine rows (DESIGN.md S27) —
:func:`~repro.experiments.runner.run_lockstep` for a panel's
(stream, k, err) runs, the distributed batch driver for Fig. 8's
(repeat, skew, policy) tasks — with every schedule identical to driving
each sampler's reference ``observe`` alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import AdaptiveAllocation, EvenAllocation
from repro.core.task import DistributedTaskSpec, TaskSpec
from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.exceptions import ConfigurationError
from repro.experiments.distributed import _run_batch
from repro.experiments.parallel import SweepCache, SweepJob, SweepStats, \
    run_sweep
from repro.experiments.reporting import format_matrix, format_table
from repro.experiments.runner import run_lockstep
from repro.simulation.randomness import RandomStreams
from repro.workloads.sysmetrics import SystemMetricsDataset
from repro.workloads.thresholds import (PAPER_ERROR_ALLOWANCES,
                                        PAPER_SELECTIVITIES,
                                        threshold_for_selectivity,
                                        thresholds_for_violation_rates)
from repro.workloads.traffic import TrafficDifferenceGenerator
from repro.workloads.weblogs import WebWorkloadGenerator
from repro.workloads.zipf import zipf_hotspot_rates

__all__ = [
    "scale_factor",
    "SweepCell",
    "Fig5Result",
    "fig5",
    "Fig6Result",
    "fig6",
    "fig7",
    "Fig8Result",
    "fig8",
]

#: metrics sampled by the system-level sweep (one per stream, round-robin)
SYSTEM_SWEEP_METRICS = ("cpu_user_pct", "load_1m", "net_rx_kbps",
                        "disk_await_ms", "mem_used_pct", "rpc_latency_ms")

#: object ranks monitored by the application-level sweep
APPLICATION_SWEEP_RANKS = (5, 10, 20, 40, 80, 160)


def scale_factor() -> float:
    """The ``REPRO_SCALE`` multiplier (>= 1.0; default 1.0)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad REPRO_SCALE {raw!r}") from exc
    return max(value, 1.0)


@dataclass(frozen=True, slots=True)
class SweepCell:
    """One (selectivity, error allowance) cell of a Fig. 5 sweep.

    Values are averages over the sweep's streams.
    """

    selectivity: float
    error_allowance: float
    sampling_ratio: float
    misdetection_rate: float
    truth_alerts: int


@dataclass(frozen=True, slots=True)
class Fig5Result:
    """Full sweep result for one monitoring domain."""

    domain: str
    selectivities: tuple[float, ...]
    error_allowances: tuple[float, ...]
    cells: tuple[SweepCell, ...]
    streams: int
    horizon: int
    sweep_stats: SweepStats | None = None

    def cell(self, selectivity: float, error: float) -> SweepCell:
        """Look up one cell."""
        for c in self.cells:
            if c.selectivity == selectivity and c.error_allowance == error:
                return c
        raise KeyError((selectivity, error))

    def ratio_matrix(self) -> dict[tuple[object, object], float]:
        """``{(k, err): mean sampling ratio}`` for reporting."""
        return {(c.selectivity, c.error_allowance): c.sampling_ratio
                for c in self.cells}

    def misdetection_matrix(self) -> dict[tuple[object, object], float]:
        """``{(k, err): mean mis-detection rate}`` for reporting."""
        return {(c.selectivity, c.error_allowance): c.misdetection_rate
                for c in self.cells}

    def report(self) -> str:
        """Paper-style text rendering of the sampling-ratio matrix."""
        return format_matrix(
            "k%", self.selectivities, "err", self.error_allowances,
            self.ratio_matrix(),
            title=(f"Fig.5 ({self.domain}): Volley/periodic sampling ratio "
                   f"({self.streams} streams x {self.horizon} steps)"))

    def to_rows(self) -> tuple[list[str], list[list[object]]]:
        """``(headers, rows)`` for CSV export — one row per sweep cell."""
        headers = ["selectivity_percent", "error_allowance",
                   "sampling_ratio", "misdetection_rate", "truth_alerts"]
        rows: list[list[object]] = [
            [c.selectivity, c.error_allowance, c.sampling_ratio,
             c.misdetection_rate, c.truth_alerts]
            for c in self.cells
        ]
        return headers, rows


def _domain_streams(domain: str, num_streams: int, horizon: int,
                    seed: int) -> list[np.ndarray]:
    """Generate the metric streams for one Fig. 5 domain."""
    streams = RandomStreams(seed)
    traces: list[np.ndarray] = []
    if domain == "network":
        for i in range(num_streams):
            rng = streams.stream("fig5-network", i)
            gen = TrafficDifferenceGenerator(
                phase=float(rng.uniform(0.0, 1.0)),
                diurnal_period=max(horizon // 2, 2))
            traces.append(gen.generate(horizon, rng))
    elif domain == "system":
        dataset = SystemMetricsDataset(num_nodes=max(num_streams, 1),
                                       seed=seed,
                                       diurnal_period=max(horizon // 2, 2))
        for i in range(num_streams):
            metric = SYSTEM_SWEEP_METRICS[i % len(SYSTEM_SWEEP_METRICS)]
            traces.append(dataset.generate(i, metric, horizon))
    elif domain == "application":
        for i in range(num_streams):
            rng = streams.stream("fig5-application", i)
            # Keep the expected flash-crowd count (and their share of the
            # horizon) constant across scales so short sweeps see the
            # same bursty regime as long ones.
            gen = WebWorkloadGenerator(
                diurnal_period=max(horizon // 2, 2),
                flash_prob=min(1.0, 4.0 / horizon),
                flash_duration=max(10.0, horizon / 40.0))
            rank = APPLICATION_SWEEP_RANKS[i % len(APPLICATION_SWEEP_RANKS)]
            traces.append(gen.access_rate_trace(rank, horizon, rng).values)
    else:
        raise ConfigurationError(
            f"unknown domain {domain!r}; expected network/system/application")
    return traces


def _fig5_panel(*, domain: str, num_streams: int, horizon: int, seed: int,
                selectivities: tuple[float, ...],
                error_allowances: tuple[float, ...], max_interval: int,
                config: AdaptationConfig | None) -> tuple[SweepCell, ...]:
    """Compute a Fig. 5 panel's cells, ``k``-major (pure; safe in any
    worker process).

    Generates the domain's traces once from the master seed and runs every
    (k, err, stream) combination as one lockstep, so the panel depends
    only on its spec — never on which worker ran it or what ran before it
    in the same process.
    """
    traces = _domain_streams(domain, num_streams, horizon, seed)
    grid = [(k, err) for k in selectivities for err in error_allowances]
    thresholds = {k: [threshold_for_selectivity(trace, k)
                      for trace in traces] for k in selectivities}
    runs = run_lockstep(
        traces * len(grid),
        [TaskSpec(threshold=threshold, error_allowance=err,
                  max_interval=max_interval, name=f"fig5-{domain}")
         for k, err in grid for threshold in thresholds[k]],
        config, record_intervals=False)
    cells = []
    for at, (k, err) in enumerate(grid):
        cell = runs[at * len(traces):(at + 1) * len(traces)]
        cells.append(SweepCell(
            selectivity=k, error_allowance=err,
            sampling_ratio=float(np.mean([r.sampling_ratio for r in cell])),
            misdetection_rate=float(np.mean([r.misdetection_rate
                                             for r in cell])),
            truth_alerts=sum(r.accuracy.truth_alerts for r in cell)))
    return tuple(cells)


def fig5(domain: str, num_streams: int | None = None,
         horizon: int | None = None, seed: int = 0,
         selectivities: tuple[float, ...] = PAPER_SELECTIVITIES,
         error_allowances: tuple[float, ...] = PAPER_ERROR_ALLOWANCES,
         max_interval: int = 10,
         config: AdaptationConfig | None = None,
         workers: int | None = None,
         cache: SweepCache | None = None) -> Fig5Result:
    """Reproduce one panel of Fig. 5.

    For every (selectivity ``k``, error allowance) combination, runs the
    violation-likelihood sampler over each stream with a threshold at the
    ``(100-k)``-th percentile, and averages sampling ratio (cost vs.
    periodic) and mis-detection rate across streams.

    Args:
        domain: ``"network"`` (5a), ``"system"`` (5b) or
            ``"application"`` (5c).
        num_streams: monitored streams (default 6, scaled by REPRO_SCALE).
        horizon: steps per stream (default 10000, scaled by REPRO_SCALE).
        seed: master seed.
        selectivities / error_allowances: sweep axes (paper values by
            default).
        max_interval: ``Im`` in default intervals.
        config: adaptation tunables.
        workers: sweep pool size (``None`` = ``REPRO_WORKERS`` then CPU
            count; ``1`` = strictly in-process). Results are identical
            for every worker count.
        cache: completed-cell store (``None`` = always recompute).
    """
    scale = scale_factor()
    if num_streams is None:
        num_streams = int(round(6 * scale))
    if horizon is None:
        horizon = int(round(10_000 * scale))
    # Validate the domain before launching any (possibly remote) work.
    if domain not in ("network", "system", "application"):
        raise ConfigurationError(
            f"unknown domain {domain!r}; expected network/system/application")

    job = SweepJob.call(_fig5_panel, label=f"fig5-{domain}",
                        domain=domain, num_streams=num_streams,
                        horizon=horizon, seed=seed,
                        selectivities=tuple(selectivities),
                        error_allowances=tuple(error_allowances),
                        max_interval=max_interval, config=config)
    (cells,), stats = run_sweep([job], workers=workers, cache=cache)
    return Fig5Result(domain=domain, selectivities=tuple(selectivities),
                      error_allowances=tuple(error_allowances),
                      cells=cells, streams=num_streams,
                      horizon=horizon, sweep_stats=stats)


@dataclass(frozen=True, slots=True)
class Fig6Result:
    """Dom0 CPU utilisation distribution per error allowance."""

    error_allowances: tuple[float, ...]
    stats: tuple[dict[str, float], ...]
    sampling_ratios: tuple[float, ...]
    vms_per_server: int
    num_servers: int
    horizon: int
    sweep_stats: SweepStats | None = None

    def report(self) -> str:
        """Paper-style text rendering of the box-plot statistics."""
        headers = ["err", "min", "q25", "median", "q75", "max", "mean",
                   "sampling-ratio"]
        rows = []
        for err, st, ratio in zip(self.error_allowances, self.stats,
                                  self.sampling_ratios):
            rows.append([err, st["min"], st["q25"], st["median"],
                         st["q75"], st["max"], st["mean"], ratio])
        return format_table(
            headers, rows,
            title=(f"Fig.6: Dom0 CPU utilisation %, {self.num_servers} "
                   f"servers x {self.vms_per_server} VMs, "
                   f"{self.horizon} windows"))

    def to_rows(self) -> tuple[list[str], list[list[object]]]:
        """``(headers, rows)`` for CSV export — one row per allowance."""
        headers = ["error_allowance", "min", "q25", "median", "q75",
                   "max", "mean", "sampling_ratio"]
        rows: list[list[object]] = []
        for err, st, ratio in zip(self.error_allowances, self.stats,
                                  self.sampling_ratios):
            rows.append([err, st["min"], st["q25"], st["median"],
                         st["q75"], st["max"], st["mean"], ratio])
        return headers, rows


def _fig6_cell(*, error_allowance: float, num_servers: int,
               vms_per_server: int, horizon: int, selectivity: float,
               seed: int) -> tuple[dict[str, float], float]:
    """One Fig. 6 error allowance: ``(box stats, sampling ratio)``."""
    testbed = build_testbed(TestbedConfig(
        num_servers=num_servers, vms_per_server=vms_per_server,
        horizon_steps=horizon, error_allowance=error_allowance,
        selectivity_percent=selectivity, seed=seed))
    testbed.run()
    util = np.concatenate([s.dom0.utilization() for s in testbed.servers])
    box = {
        "min": float(util.min()),
        "q25": float(np.percentile(util, 25)),
        "median": float(np.percentile(util, 50)),
        "q75": float(np.percentile(util, 75)),
        "max": float(util.max()),
        "mean": float(util.mean()),
    }
    return box, testbed.sampling_ratio


def fig6(error_allowances: tuple[float, ...] = (0.0,) + PAPER_ERROR_ALLOWANCES,
         num_servers: int | None = None, vms_per_server: int = 40,
         horizon: int | None = None, selectivity: float = 0.4,
         seed: int = 0, workers: int | None = None,
         cache: SweepCache | None = None) -> Fig6Result:
    """Reproduce Fig. 6: Dom0 CPU cost of network monitoring vs. ``err``.

    Builds the per-VM-task testbed (the paper's 40 VMs per server) once
    per error allowance and aggregates the per-window Dom0 utilisation of
    every server into one distribution. ``err = 0`` degenerates to
    periodic sampling — the paper's 20-34% CPU band.
    """
    scale = scale_factor()
    if num_servers is None:
        num_servers = max(1, int(round(1 * scale)))
    if horizon is None:
        horizon = int(round(2000 * scale))

    jobs = [SweepJob.call(_fig6_cell, label=f"fig6 err={err}",
                          error_allowance=err, num_servers=num_servers,
                          vms_per_server=vms_per_server, horizon=horizon,
                          selectivity=selectivity, seed=seed)
            for err in error_allowances]
    results, sweep_stats = run_sweep(jobs, workers=workers, cache=cache)
    stats = tuple(box for box, _ in results)
    ratios = tuple(ratio for _, ratio in results)
    return Fig6Result(error_allowances=tuple(error_allowances),
                      stats=stats, sampling_ratios=ratios,
                      vms_per_server=vms_per_server,
                      num_servers=num_servers, horizon=horizon,
                      sweep_stats=sweep_stats)


def fig7(num_streams: int | None = None, horizon: int | None = None,
         seed: int = 0,
         selectivities: tuple[float, ...] = PAPER_SELECTIVITIES,
         error_allowances: tuple[float, ...] = PAPER_ERROR_ALLOWANCES,
         workers: int | None = None,
         cache: SweepCache | None = None) -> Fig5Result:
    """Reproduce Fig. 7: actual mis-detection rates, system-level tasks.

    Runs the same sweep as Fig. 5(b); the quantity of interest is the
    mis-detection matrix (use :meth:`Fig5Result.misdetection_matrix` or
    the report below). The paper's observations to check: actual rates
    sit below the specified allowance in most cells, and high-selectivity
    (small ``k``) tasks show relatively larger rates.
    """
    result = fig5("system", num_streams=num_streams, horizon=horizon,
                  seed=seed, selectivities=selectivities,
                  error_allowances=error_allowances, workers=workers,
                  cache=cache)
    return result


def fig7_report(result: Fig5Result) -> str:
    """Text rendering of Fig. 7 (mis-detection matrix)."""
    return format_matrix(
        "k%", result.selectivities, "err", result.error_allowances,
        result.misdetection_matrix(),
        title=(f"Fig.7: actual mis-detection rate (system tasks, "
               f"{result.streams} streams x {result.horizon} steps)"),
        fmt="{:.4f}")


__all__.append("fig7_report")


@dataclass(frozen=True, slots=True)
class Fig8Result:
    """Distributed-coordination sweep result."""

    skews: tuple[float, ...]
    even_ratios: tuple[float, ...]
    adaptive_ratios: tuple[float, ...]
    even_misdetection: tuple[float, ...]
    adaptive_misdetection: tuple[float, ...]
    num_monitors: int
    horizon: int
    sweep_stats: SweepStats | None = None

    def report(self) -> str:
        """Paper-style text rendering."""
        headers = ["zipf-skew", "even", "adapt", "even-miss", "adapt-miss"]
        rows = [[s, e, a, em, am] for s, e, a, em, am
                in zip(self.skews, self.even_ratios, self.adaptive_ratios,
                       self.even_misdetection, self.adaptive_misdetection)]
        return format_table(
            headers, rows,
            title=(f"Fig.8: distributed task sampling ratio vs local-"
                   f"violation skew ({self.num_monitors} monitors x "
                   f"{self.horizon} steps)"))

    def to_rows(self) -> tuple[list[str], list[list[object]]]:
        """``(headers, rows)`` for CSV export — one row per skew."""
        headers = ["zipf_skew", "even_ratio", "adaptive_ratio",
                   "even_misdetection", "adaptive_misdetection"]
        rows: list[list[object]] = [
            [s, e, a, em, am] for s, e, a, em, am
            in zip(self.skews, self.even_ratios, self.adaptive_ratios,
                   self.even_misdetection, self.adaptive_misdetection)
        ]
        return headers, rows


def _fig8_grid(*, skews: tuple[float, ...], repeats: int, seed: int,
               num_monitors: int, horizon: int, base_violation_rate: float,
               error_allowance: float, update_period: int,
               max_interval: int) -> list[tuple[float, float, float, float]]:
    """Every (repeat, skew) of Fig. 8, repeat-major, as one lockstep.

    Returns ``(even ratio, adaptive ratio, even miss, adaptive miss)``
    per (repeat, skew). Repeat ``rep``'s traces come from ``seed + rep``,
    so it sees the same streams for every skew and both policies.
    """
    tasks = []
    for rep in range(repeats):
        streams = RandomStreams(seed + rep)
        traces = []
        for i in range(num_monitors):
            rng = streams.stream("fig8-network", i)
            gen = TrafficDifferenceGenerator(
                diurnal_depth=0.0, burst_prob=0.0006, burst_hold=14)
            traces.append(gen.generate(horizon, rng))
        matrix = np.asarray(traces)
        for skew in skews:
            rates = zipf_hotspot_rates(num_monitors, skew,
                                       base_violation_rate)
            thresholds = thresholds_for_violation_rates(traces, rates)
            spec = DistributedTaskSpec(
                global_threshold=float(sum(thresholds)),
                local_thresholds=tuple(thresholds),
                error_allowance=error_allowance,
                max_interval=max_interval,
                name=f"fig8-skew-{skew}")
            tasks += [(matrix, spec, EvenAllocation()),
                      (matrix, spec, AdaptiveAllocation())]
    results = _run_batch(tasks, update_period=update_period)
    return [(even.sampling_ratio, adaptive.sampling_ratio,
             even.misdetection_rate, adaptive.misdetection_rate)
            for even, adaptive in zip(results[::2], results[1::2])]


def fig8(skews: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0),
         num_monitors: int | None = None, horizon: int | None = None,
         base_violation_rate: float = 0.2, error_allowance: float = 0.01,
         seed: int = 0, repeats: int = 3, update_period: int = 1000,
         max_interval: int = 10, workers: int | None = None,
         cache: SweepCache | None = None) -> Fig8Result:
    """Reproduce Fig. 8: adaptive vs. even error-allowance allocation.

    One distributed network task over ``num_monitors`` monitors; local
    thresholds are set so the per-monitor local violation rates follow a
    Zipf *hotspot* distribution of the given skew: the coldest monitor
    stays at ``base_violation_rate`` while hotter ranks scale up. Both
    allocation schemes run on identical traces; the y-axis is total
    sampling (incl. forced poll samples) relative to periodic sampling,
    averaged over ``repeats`` seeds.

    The traces are steady (non-diurnal) traffic-difference streams with
    sparse bursts: skewing the violation rates pushes the hottest
    monitors' thresholds down into the noise band where no feasible
    allowance helps them — the regime the paper describes ("a few
    monitors account for most local violations... the adaptive scheme can
    move error allowance from these monitors to those with higher cost
    reduction yield"). The even scheme pays for those hotspots; the
    adaptive scheme reclaims their allowance.
    """
    scale = scale_factor()
    if num_monitors is None:
        num_monitors = int(round(10 * scale))
    if horizon is None:
        horizon = int(round(20_000 * scale))

    repeats = max(repeats, 1)
    job = SweepJob.call(_fig8_grid, label="fig8", skews=tuple(skews),
                        repeats=repeats, seed=seed,
                        num_monitors=num_monitors, horizon=horizon,
                        base_violation_rate=base_violation_rate,
                        error_allowance=error_allowance,
                        update_period=update_period,
                        max_interval=max_interval)
    (results,), sweep_stats = run_sweep([job], workers=workers, cache=cache)

    # Mean over repeats of (even ratio, adaptive ratio, even miss,
    # adaptive miss), per skew.
    means = np.asarray(results).reshape(repeats, len(skews), 4).mean(axis=0)
    even, adaptive, even_miss, adaptive_miss = map(tuple, means.T.tolist())
    return Fig8Result(
        skews=tuple(skews), even_ratios=even, adaptive_ratios=adaptive,
        even_misdetection=even_miss, adaptive_misdetection=adaptive_miss,
        num_monitors=num_monitors, horizon=horizon,
        sweep_stats=sweep_stats)
