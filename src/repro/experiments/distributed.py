"""Distributed-task experiment runner (paper SIV, Fig. 8).

Simulates one distributed state monitoring task on the default-interval
grid: ``m`` monitors each run a violation-likelihood sampler over their
local stream; a local threshold crossing triggers a coordinator *global
poll* that collects the instantaneous value from every monitor (forcing a
sample on monitors that were idle at that instant) and checks the global
condition ``sum_i v_i > T``. Every updating period the coordinator drains
the monitors' yield statistics and reallocates the global error allowance
according to the configured policy.

Ground truth is the periodic-``Id`` schedule: every grid point whose sum
crosses ``T`` is a global alert; Volley detects it only if a poll happened
there and confirmed the crossing.

The monitors are engine rows, and several tasks of equal length can step
side by side in one engine (:func:`_run_batch`: Fig. 8's whole grid is
one lockstep, and so is every coordinator group of the datacenter
testbed); :func:`run_distributed_task` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import AllocationPolicy, EvenAllocation
from repro.core.soa import _NARROW_TICK_ROWS, SoaSamplerEngine
from repro.core.task import DistributedTaskSpec, spec_columns
from repro.exceptions import TraceError
from repro.types import GlobalPoll

__all__ = ["DistributedRunResult", "run_distributed_task"]

DEFAULT_UPDATE_PERIOD = 1000
"""Coordinator updating period in default intervals (paper SIV-B)."""


@dataclass(frozen=True, slots=True)
class DistributedRunResult:
    """Outcome of one distributed-task run.

    Attributes:
        total_samples: sampling operations across all monitors, including
            the forced samples taken during global polls.
        sampling_ratio: ``total_samples / (m * n)`` — cost relative to
            periodic default sampling on every monitor.
        truth_alerts: grid points where the true aggregate crossed ``T``.
        detected_alerts: truth alerts confirmed by a global poll.
        misdetection_rate: fraction of truth alerts missed.
        global_polls: number of polls performed.
        local_violations: local threshold crossings observed at sample
            points.
        messages: coordinator<->monitor messages exchanged (one report per
            local violation, plus one request and one response per monitor
            per poll).
        reallocations: allocation rounds that actually moved allowance.
        final_allocations: per-monitor error allowance at the end.
        per_monitor_samples: sampling operations per monitor.
        polls: chronological record of the global polls.
        allocation_history: allocation vector after every updating period
            (only recorded when requested; starts with the initial even
            split) — feed to
            :func:`repro.analysis.allocation_convergence`.
        dropped_reports: local-violation reports lost in transit (only
            a lossy testbed network drops any).
    """

    total_samples: int
    sampling_ratio: float
    truth_alerts: int
    detected_alerts: int
    misdetection_rate: float
    global_polls: int
    local_violations: int
    messages: int
    reallocations: int
    final_allocations: tuple[float, ...]
    per_monitor_samples: tuple[int, ...]
    polls: tuple[GlobalPoll, ...] = field(repr=False, default=())
    allocation_history: tuple[tuple[float, ...], ...] = field(
        repr=False, default=())
    dropped_reports: int = 0


def run_distributed_task(traces: list[np.ndarray] | np.ndarray,
                         spec: DistributedTaskSpec,
                         config: AdaptationConfig | None = None,
                         policy: AllocationPolicy | None = None,
                         update_period: int = DEFAULT_UPDATE_PERIOD,
                         keep_polls: bool = False,
                         keep_allocations: bool = False,
                         ) -> DistributedRunResult:
    """Run one distributed task over per-monitor traces.

    Args:
        traces: ``m`` aligned traces (list of 1-d arrays or an ``m x n``
            matrix), one per monitor.
        spec: the distributed task (global/local thresholds, allowance).
        config: adaptation tunables shared by all monitors.
        policy: error-allowance allocation policy (default: even split).
        update_period: coordinator updating period in default intervals.
        keep_polls: record every global poll in the result (memory-heavy
            for long runs; off by default).
        keep_allocations: record the allocation vector after every
            updating period for convergence analysis.

    Returns:
        A :class:`DistributedRunResult`.

    Raises:
        TraceError: the traces are not an ``m x n`` matrix for the task's
            ``m`` monitors, hold a non-finite value, or ``update_period``
            is below 1.
    """
    return _run_batch([(traces, spec, policy)], config, update_period,
                      keep_polls, keep_allocations)[0]


def _trace_matrix(traces: list[np.ndarray] | np.ndarray,
                  spec: DistributedTaskSpec) -> np.ndarray:
    matrix = np.asarray(traces, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise TraceError(
            f"expected an m x n trace matrix, got shape {matrix.shape}")
    if len(matrix) != spec.num_monitors:
        raise TraceError(
            f"{len(matrix)} traces for a task with {spec.num_monitors} "
            f"monitors")
    if not np.isfinite(matrix).all():
        raise TraceError("traces must be finite")
    return matrix


def _run_batch(tasks: Sequence[tuple[list[np.ndarray] | np.ndarray,
                                     DistributedTaskSpec,
                                     AllocationPolicy | None]],
               config: AdaptationConfig | None = None,
               update_period: int = DEFAULT_UPDATE_PERIOD,
               keep_polls: bool = False,
               keep_allocations: bool = False,
               loss: tuple[float, np.random.Generator] | None = None,
               sampled: np.ndarray | None = None,
               ) -> list[DistributedRunResult]:
    """Run ``(traces, spec, policy)`` tasks side by side in one engine.

    Every monitor of every task is one row, and each step is one tick of
    the rows due at it. A task's result is exactly what running it alone
    gives: rows never read each other, and each task's polls and
    allocation rounds touch its own rows only. The tasks must span the
    same number of steps; passing one trace matrix object for several
    tasks stores it once.

    A poll forces an off-schedule sample on its task's idle monitors: it
    makes them due at the poll step, and they join that step's tick (the
    poll is decided from the due rows' values alone). An allocation round
    reads the task's coordination statistics through
    :meth:`SoaSamplerEngine.drain_coordination` and writes the new
    allowances to its rows' ``err`` column. A tick too narrow for the
    engine's vector pass goes row by row through ``observe_one``, as
    :meth:`SoaSamplerEngine.run_columns` would, without its batch checks.

    Each local violation at a due row files one report. ``loss`` is the
    testbed's lossy network, ``(rate, rng)``: at a positive rate each
    report gets one draw, in row order within a step, and a task polls
    only if one of its reports arrives. A poll's forced samples file no
    report. ``sampled``, when given, is a ``(steps, rows)`` bool array the
    ticks mark every sample in, forced ones included.
    """
    if update_period < 1:
        raise TraceError(f"update_period must be >= 1, got {update_period}")
    matrices = [_trace_matrix(traces, spec) for traces, spec, _ in tasks]
    n = matrices[0].shape[1]
    if any(matrix.shape[1] != n for matrix in matrices):
        raise TraceError("the tasks of a batch must span the same steps")
    specs = [spec for _, spec, _ in tasks]
    policies = [EvenAllocation() if policy is None else policy
                for _, _, policy in tasks]
    allocations = [policy.initial(spec.num_monitors, spec.error_allowance)
                   for policy, spec in zip(policies, specs)]
    sizes = np.asarray([spec.num_monitors for spec in specs])
    bounds = [0, *np.cumsum(sizes).tolist()]
    owners = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
    engine = SoaSamplerEngine(bounds[-1])
    engine.add_tasks(spec_columns([spec.local_spec(i, shares[i])
                                   for spec, shares in zip(specs, allocations)
                                   for i in range(spec.num_monitors)]),
                     [config or AdaptationConfig()], [0] * bounds[-1])
    task_of = np.repeat(np.arange(len(specs)), sizes)
    local = np.concatenate([spec.local_thresholds for spec in specs])

    # Step-major values, each distinct trace matrix once (Fig. 8's
    # policies and skews share one matrix per repeat).
    distinct = list({id(matrix): matrix for matrix in matrices}.values())
    offsets = np.cumsum([0] + [len(matrix) for matrix in distinct])
    column_of = dict(zip(map(id, distinct), offsets.tolist()))
    columns = np.concatenate([matrix.T for matrix in distinct], axis=1)
    source = np.concatenate([column_of[id(matrix)] + np.arange(len(matrix))
                             for matrix in matrices])
    totals = [matrix.sum(axis=0) for matrix in matrices]
    truth = np.asarray([total > spec.global_threshold
                        for total, spec in zip(totals, specs)]).T

    reallocations = [0] * len(specs)
    allocation_logs = [[tuple(shares)] if keep_allocations else []
                       for shares in allocations]
    lossy = loss is not None and loss[0] > 0.0
    reported: list[int] = []            # the steps with a report
    hots: list[np.ndarray] = []         # their reports per task
    arrivals: list[np.ndarray] = []     # ... and those that arrived
    next_due = engine.next_due[:bounds[-1]]  # a view the ticks write
    for t in range(n):
        due = next_due <= t
        if due.any():
            values = columns[t, source]
            hot_rows = due & (values > local)
            if hot_rows.any():
                reporters = task_of[hot_rows]   # in row order
                filed = heard = np.bincount(reporters, minlength=len(specs))
                if lossy:
                    rate, rng = loss
                    kept = rng.random(len(reporters)) >= rate
                    heard = np.bincount(reporters[kept],
                                        minlength=len(specs))
                reported.append(t)
                hots.append(filed)
                arrivals.append(heard)
                # Global poll: the idle monitors of a polling task are
                # forced to sample now too (cost + fresh statistics), in
                # the same tick as the due ones.
                due |= (heard > 0)[task_of]
                next_due[due] = t
            rows = np.flatnonzero(due)
            if sampled is not None:
                sampled[t, rows] = True
            if len(rows) < _NARROW_TICK_ROWS:  # too few for a vector tick
                for row, value in zip(rows.tolist(), values[rows].tolist()):
                    engine.advance_one(row, t,
                                       engine.observe_one(row, value, t))
            else:
                engine.run_columns(rows, np.full(len(rows), t), values[rows])
        if (t + 1) % update_period == 0:
            for k, (policy, spec, rows_k) in enumerate(
                    zip(policies, specs, owners)):
                update = policy.reallocate(
                    allocations[k], engine.drain_coordination(rows_k),
                    spec.error_allowance)
                reallocations[k] += update.reallocated
                allocations[k] = update.allocations
                engine.err[rows_k] = update.allocations
                if keep_allocations:
                    allocation_logs[k].append(tuple(update.allocations))

    hot = np.asarray(hots, dtype=np.int64).reshape(len(reported), len(specs))
    arrived = np.asarray(arrivals, dtype=np.int64).reshape(hot.shape)
    polling = arrived > 0
    dropped = (hot - arrived).sum(axis=0).tolist()
    reported_at = np.asarray(reported, dtype=np.int64)
    detected = (polling & truth[reported_at]).sum(axis=0).tolist()
    results = []
    for k, (matrix, spec, rows_k) in enumerate(zip(matrices, specs, owners)):
        per_monitor = tuple(engine.samples_taken[rows_k].tolist())
        total_samples = sum(per_monitor)
        truth_alerts = int(np.count_nonzero(truth[:, k]))
        local_violations = int(hot[:, k].sum())
        polls = int(np.count_nonzero(polling[:, k]))
        results.append(DistributedRunResult(
            total_samples=total_samples,
            sampling_ratio=total_samples / float(spec.num_monitors * n),
            truth_alerts=truth_alerts,
            detected_alerts=detected[k],
            misdetection_rate=(0.0 if truth_alerts == 0
                               else 1.0 - detected[k] / truth_alerts),
            global_polls=polls,
            local_violations=local_violations,
            # One report per local violation; a request and a response
            # per monitor per poll.
            messages=local_violations + 2 * spec.num_monitors * polls,
            reallocations=reallocations[k],
            final_allocations=tuple(allocations[k]),
            per_monitor_samples=per_monitor,
            polls=tuple(GlobalPoll(time_index=t,
                                   values=tuple(matrix[:, t].tolist()),
                                   total=float(totals[k][t]),
                                   violated=bool(truth[t, k]))
                        for t in reported_at[polling[:, k]].tolist()
                        ) if keep_polls else (),
            allocation_history=tuple(allocation_logs[k]),
            dropped_reports=dropped[k],
        ))
    return results
