"""Machine-checked paper invariants (DESIGN.md S28).

Each checker returns an :class:`InvariantResult` — a JSON-able verdict
with the metrics that justify it — so the chaos scenarios, the pytest
suites, and the CI conformance report all consume the same objects. The
four invariants the harness gates every scenario on:

1. **Allowance conservation** (paper SIV): every
   :meth:`~repro.core.coordination.AllocationPolicy.reallocate` outcome
   must sum to the global error allowance with no negative shares —
   allowance may flow between monitors but never leak or appear.
2. **Mis-detection bound** (paper SIII, Cantelli): the empirical
   mis-detection rate of the adaptive sampler on seeded traces must stay
   at or below the error allowance ``err``, scored against the same
   ground truth the clairvoyant oracle baseline detects completely.
3. **Bit-identical restore**: a service snapshot must survive
   ``restore → snapshot`` with byte-identical canonical JSON — crash
   recovery may not perturb sampler state even in the last bit.
4. **No ACKed offer lost**: every update acknowledged before the last
   durable checkpoint barrier must be visible in the recovered state
   (compared as per-task applied-observation ledgers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core.adaptation import AdaptationConfig, CoordinationStats
from repro.core.coordination import AllocationPolicy, AllocationUpdate
from repro.core.substrates import QuantileEstimator
from repro.core.task import TaskSpec
from repro.experiments.runner import run_lockstep
from repro.runtime.checkpoint import state_fingerprint
from repro.service import MonitoringService, snapshot_task_names
from repro.telemetry.histogram import DEFAULT_RELATIVE_ERROR, LogHistogram
from repro.testkit.faults import stable_uniform

__all__ = [
    "InvariantResult",
    "ConservationCheckedPolicy",
    "LeakySketch",
    "check_allowance_conservation",
    "check_misdetection_bound",
    "check_no_acked_loss",
    "check_quantile_misdetection",
    "check_restore_bit_identical",
]

CONSERVATION_RTOL = 1e-9
"""Relative tolerance on ``sum(allocations) == total_error``."""


@dataclass(frozen=True, slots=True)
class InvariantResult:
    """Verdict of one invariant check.

    Attributes:
        name: stable identifier (keys the conformance report).
        passed: whether the invariant held.
        detail: one human-readable sentence (the first violation when
            ``passed`` is False).
        metrics: the numbers behind the verdict, JSON-able and
            deterministic for a given seed.
    """

    name: str
    passed: bool
    detail: str
    metrics: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form for the conformance report."""
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail, "metrics": self.metrics}


# ---------------------------------------------------------------------------
# 1. Allowance conservation


class ConservationCheckedPolicy(AllocationPolicy):
    """Wrap any allocation policy and audit every reallocation.

    Delegates :meth:`initial` and :meth:`reallocate` to the inner policy
    and records a violation whenever an outcome leaks allowance (sum
    drifts off the global total beyond :data:`CONSERVATION_RTOL`) or goes
    negative. Drop-in: monitors/coordinators built against
    :class:`~repro.core.coordination.AllocationPolicy` accept it
    unchanged.
    """

    def __init__(self, inner: AllocationPolicy):
        self.inner = inner
        self.rounds = 0
        self.violations: list[str] = []

    def initial(self, num_monitors: int, total_error: float,
                ) -> tuple[float, ...]:
        allocations = self.inner.initial(num_monitors, total_error)
        self._audit(allocations, total_error, round_label="initial")
        return allocations

    def reallocate(self, current: tuple[float, ...],
                   reports: list[CoordinationStats | None],
                   total_error: float) -> AllocationUpdate:
        update = self.inner.reallocate(current, reports, total_error)
        self.rounds += 1
        self._audit(update.allocations, total_error,
                    round_label=f"round {self.rounds}")
        return update

    def _audit(self, allocations: tuple[float, ...], total_error: float,
               round_label: str) -> None:
        total = sum(allocations)
        tolerance = CONSERVATION_RTOL * max(abs(total_error), 1.0)
        if abs(total - total_error) > tolerance:
            self.violations.append(
                f"{round_label}: allocations sum to {total!r}, "
                f"expected {total_error!r}")
        negative = [a for a in allocations if a < 0.0]
        if negative:
            self.violations.append(
                f"{round_label}: negative allocation {min(negative)!r}")


def _synthetic_report(seed: int, round_index: int, monitor: int,
                      ) -> CoordinationStats:
    """One deterministic monitor report spanning the yield regimes.

    Yields must span orders of magnitude (some monitors near their cap
    with tiny marginal gain, some at small intervals starving for
    allowance) for the reallocation arithmetic to be stressed — uniform
    yields would hit the throttle and never move allowance at all.
    """
    seam = f"conservation:{round_index}:{monitor}"
    u_cost = stable_uniform(seed, seam + ":r", 0)
    u_need = stable_uniform(seed, seam + ":e", 0)
    # r_i = 1/I - 1/(I+1) for I in [1, 100] spans [~1e-4, 0.5].
    interval = 1 + int(u_cost * 100)
    cost_reduction = 1.0 / interval - 1.0 / (interval + 1)
    # e_i log-uniform over [1e-6, 1e-1]: five orders of magnitude.
    error_needed = 10.0 ** (-6.0 + 5.0 * u_need)
    return CoordinationStats(avg_cost_reduction=cost_reduction,
                             avg_error_needed=error_needed,
                             observations=100)


def check_allowance_conservation(policy: AllocationPolicy, *, seed: int,
                                 monitors: int = 8, rounds: int = 50,
                                 total_error: float = 0.01,
                                 ) -> InvariantResult:
    """Drive ``policy`` through seeded reallocation rounds and audit each.

    Every round feeds deterministic synthetic monitor reports (yield
    regimes spanning five orders of magnitude, occasional silent
    monitors) and checks that the resulting allocations conserve the
    global allowance and never go negative.

    Args:
        policy: the allocation policy under test.
        seed: drives the synthetic report stream.
        monitors: monitors in the simulated task.
        rounds: reallocation rounds to run.
        total_error: the task's global error allowance.
    """
    checked = ConservationCheckedPolicy(policy)
    current = checked.initial(monitors, total_error)
    reallocated_rounds = 0
    for r in range(rounds):
        reports: list[CoordinationStats | None] = []
        for m in range(monitors):
            # ~5% silent monitors: the keep-current path must conserve too.
            if stable_uniform(seed, f"conservation:{r}:{m}:silent", 0) < 0.05:
                reports.append(None)
            else:
                reports.append(_synthetic_report(seed, r, m))
        update = checked.reallocate(current, reports, total_error)
        current = update.allocations
        reallocated_rounds += int(update.reallocated)
    passed = not checked.violations
    detail = ("allowance conserved across all rounds" if passed
              else checked.violations[0])
    return InvariantResult(
        name="allowance_conservation",
        passed=passed,
        detail=detail,
        metrics={
            "monitors": monitors,
            "rounds": rounds,
            "reallocated_rounds": reallocated_rounds,
            "total_error": total_error,
            "final_sum": sum(current),
            "violations": len(checked.violations),
        },
    )


# ---------------------------------------------------------------------------
# 2. Mis-detection bound vs. the oracle's ground truth


def _seeded_trace(seed: int, stream: int, horizon: int,
                  threshold: float) -> np.ndarray:
    """A quiet stream with ramped bursts crossing the threshold.

    Same shape as the repo's ``bursty_trace`` fixture: gentle noise far
    below the threshold (so intervals grow) plus ramp-up excursions above
    it (so there are truth alerts to miss). Ramps matter — the paper's
    bound assumes violations are preceded by drift the statistics can
    see, which is also what real utilisation bursts look like.
    """
    rng = np.random.default_rng(seed * 10_007 + stream)
    values = threshold * 0.1 + rng.normal(0.0, threshold * 0.005, horizon)
    bursts = max(1, horizon // 2500)
    for b in range(bursts):
        start = int((b + 0.6) * horizon / (bursts + 1))
        ramp = np.linspace(0.0, 1.0, 20)
        shape = np.concatenate([ramp, np.ones(30), ramp[::-1]])
        shape = shape * (threshold * 1.5
                         + rng.normal(0.0, threshold * 0.02, shape.size))
        stop = min(start + shape.size, horizon)
        values[start:stop] = np.maximum(values[start:stop],
                                        shape[:stop - start])
    return values


def check_misdetection_bound(*, seed: int, err: float = 0.05,
                             streams: int = 4, horizon: int = 5000,
                             max_interval: int = 10,
                             estimator: str = "chebyshev",
                             ) -> InvariantResult:
    """Empirical mis-detection of the adaptive sampler must stay <= err.

    Runs :class:`~repro.core.adaptation.ViolationLikelihoodSampler` over
    seeded bursty traces and scores it against the periodic ground truth
    — the alert set the clairvoyant oracle baseline detects in full. The
    aggregate rate (missed truth alerts / total truth alerts across all
    streams) must not exceed the configured allowance.

    Args:
        seed: drives the trace generator.
        err: the error allowance under test.
        streams: independent traces to aggregate over.
        horizon: trace length in grid steps.
        max_interval: the task's maximum sampling interval.
        estimator: ``chebyshev`` (the paper's bound) or ``gaussian``.
    """
    threshold = 100.0
    task = TaskSpec(threshold=threshold, error_allowance=err,
                    max_interval=max_interval)
    truth_total = 0
    detected_total = 0
    samples_total = 0
    steps_total = 0
    for result in run_lockstep(
            [_seeded_trace(seed, s, horizon, threshold)
             for s in range(streams)], [task] * streams,
            AdaptationConfig(estimator=estimator), record_intervals=False):
        truth_total += result.accuracy.truth_alerts
        detected_total += result.accuracy.detected_alerts
        samples_total += result.accuracy.samples_taken
        steps_total += result.accuracy.total_steps
    rate = (0.0 if truth_total == 0
            else 1.0 - detected_total / truth_total)
    passed = truth_total > 0 and rate <= err
    if truth_total == 0:
        detail = "trace generator produced no truth alerts (bad setup)"
    elif passed:
        detail = (f"mis-detection {rate:.4f} <= err {err} "
                  f"({detected_total}/{truth_total} alerts detected)")
    else:
        detail = (f"mis-detection {rate:.4f} exceeds err {err} "
                  f"({detected_total}/{truth_total} alerts detected)")
    return InvariantResult(
        name="misdetection_bound",
        passed=passed,
        detail=detail,
        metrics={
            "err": err,
            "estimator": estimator,
            "streams": streams,
            "horizon": horizon,
            "truth_alerts": truth_total,
            "detected_alerts": detected_total,
            "misdetection_rate": rate,
            "sampling_ratio": samples_total / steps_total,
        },
    )


# ---------------------------------------------------------------------------
# 2b. Quantile-task mis-detection (sketch substrate, full service path)


class LeakySketch(LogHistogram):
    """Planted mutant sketch: silently drops the tail into the zero bucket.

    Values above ``drop_above`` are counted (``count``/``total``/min/max
    all move, so the sketch looks healthy to casual inspection) but land
    in the exact-zero bucket instead of their log bucket. The tail mass —
    precisely where a quantile task's violation evidence lives — is
    starved, the exceedance statistic stays near zero through incidents,
    and :func:`check_quantile_misdetection` must fail. Planted through
    :meth:`~repro.core.substrates.QuantileEstimator.plant_sketch_factory`
    so the whole service path runs on the broken substrate.
    """

    def __init__(self, drop_above: float,
                 relative_error: float = DEFAULT_RELATIVE_ERROR):
        super().__init__(relative_error=relative_error)
        self.drop_above = float(drop_above)

    def record(self, value: float, count: int = 1) -> None:
        value = float(value)
        if value > self.drop_above:
            if count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            self.count += count
            self.total += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self.zero_count += count  # the silent leak
            return
        super().record(value, count)


def _tail_trace(seed: int, stream: int, horizon: int,
                scale: float) -> np.ndarray:
    """A heavy-tail latency stream with tail-regression episodes.

    Lognormal base (calm p99 ~= 1.79 * scale) with multiplicative
    episodes that push the whole distribution — and hence the tail —
    up by ~1.8x with short ramps on both edges: the canonical
    bad-deploy shape where the p99 predicate fires but a mean-based
    one barely moves.
    """
    rng = np.random.default_rng(seed * 20_011 + stream)
    values = scale * rng.lognormal(0.0, 0.25, horizon)
    episodes = max(1, horizon // 1500)
    for b in range(episodes):
        start = int((b + 0.55) * horizon / (episodes + 1))
        length = 160
        stop = min(start + length, horizon)
        ramp = np.linspace(1.0, 1.8, 24)
        shape = np.concatenate([
            ramp, np.full(max(0, (stop - start) - 2 * ramp.size), 1.8),
            ramp[::-1]])[:stop - start]
        values[start:stop] *= shape
    return values


def check_quantile_misdetection(*, seed: int, err: float = 0.05,
                                streams: int = 4, horizon: int = 4000,
                                quantile: float = 0.99,
                                sketch_window: int = 64,
                                max_interval: int = 10,
                                sketch_factory: Any = None,
                                ) -> InvariantResult:
    """Quantile-task mis-detection through the full service path <= err.

    Drives :meth:`~repro.service.MonitoringService.add_quantile_task`
    over seeded heavy-tail streams with planted tail regressions. Ground
    truth comes from a *healthy* full-resolution
    :class:`~repro.core.substrates.QuantileEstimator` twin (the same
    construction the scenario compiler uses), so a broken sketch planted
    via ``sketch_factory`` diverges from truth instead of redefining it
    — which is exactly how the :class:`LeakySketch` mutant is caught.

    Args:
        seed: drives the trace generator.
        err: the error allowance under test.
        streams: independent traces to aggregate over.
        horizon: trace length in grid steps.
        quantile: the tracked quantile ``q``.
        sketch_window: substrate epoch length (sketch rotation).
        max_interval: the task's maximum sampling interval.
        sketch_factory: optional zero-arg sketch constructor planted into
            the *live* task's estimator (truth keeps the healthy sketch).
    """
    threshold = 90.0  # calm p99 ~= 71.7, episode p99 ~= 129
    scale = 40.0
    derived = 1.0 - quantile
    truth_total = 0
    detected_total = 0
    samples_total = 0
    steps_total = 0
    for s in range(streams):
        trace = _tail_trace(seed, s, horizon, scale)
        reference = QuantileEstimator(quantile, window=sketch_window)
        truth_steps = []
        for i, value in enumerate(trace):
            reference.update(float(value))
            if reference.exceedance(threshold) > derived:
                truth_steps.append(i)
        service = MonitoringService(AdaptationConfig())
        name = f"tail-{s}"
        service.add_quantile_task(name, threshold=threshold,
                                  quantile=quantile, error_allowance=err,
                                  max_interval=max_interval,
                                  sketch_window=sketch_window)
        if sketch_factory is not None:
            service._state(name).substrate.plant_sketch_factory(
                sketch_factory)
        for i, value in enumerate(trace):
            service.offer(name, float(value), i)
        alert_steps = {a.time_index for a in service.alerts(name)}
        truth_total += len(truth_steps)
        detected_total += sum(1 for i in truth_steps if i in alert_steps)
        samples_total += service.samples_taken(name)
        steps_total += horizon
    rate = (0.0 if truth_total == 0
            else 1.0 - detected_total / truth_total)
    passed = truth_total > 0 and rate <= err
    if truth_total == 0:
        detail = "trace generator produced no truth alerts (bad setup)"
    elif passed:
        detail = (f"quantile mis-detection {rate:.4f} <= err {err} "
                  f"({detected_total}/{truth_total} points detected)")
    else:
        detail = (f"quantile mis-detection {rate:.4f} exceeds err {err} "
                  f"({detected_total}/{truth_total} points detected)")
    return InvariantResult(
        name="quantile_misdetection_bound",
        passed=passed,
        detail=detail,
        metrics={
            "err": err,
            "quantile": quantile,
            "streams": streams,
            "horizon": horizon,
            "sketch_window": sketch_window,
            "truth_points": truth_total,
            "detected_points": detected_total,
            "misdetection_rate": rate,
            "sampling_ratio": samples_total / steps_total,
            "planted_sketch": sketch_factory is not None,
        },
    )


# ---------------------------------------------------------------------------
# 3. Bit-identical restore


def check_restore_bit_identical(snapshot: Mapping[str, Any],
                                ) -> InvariantResult:
    """``restore(snapshot).snapshot()`` must reproduce ``snapshot`` exactly.

    The round-trip is the crash-recovery contract: a server restarted
    from a checkpoint must behave bit-identically to one that never
    stopped, which requires the serialised state to survive the
    serialise → rebuild → serialise cycle without any drift (float
    re-accumulation, field defaulting, ordering).
    """
    original = state_fingerprint(snapshot)
    try:
        rebuilt = MonitoringService.restore(dict(snapshot)).snapshot()
    except Exception as exc:  # noqa: BLE001 - verdict, not control flow
        return InvariantResult(
            name="restore_bit_identical", passed=False,
            detail=f"restore raised {type(exc).__name__}: {exc}",
            metrics={"tasks": len(snapshot_task_names(snapshot))})
    restored = state_fingerprint(rebuilt)
    passed = restored == original
    return InvariantResult(
        name="restore_bit_identical",
        passed=passed,
        detail=("snapshot survives restore bit-identically" if passed else
                f"snapshot drifted through restore "
                f"({original[:12]} -> {restored[:12]})"),
        metrics={
            "tasks": len(snapshot_task_names(snapshot)),
            "fingerprint": original,
        },
    )


# ---------------------------------------------------------------------------
# 4. No ACKed offer lost


def check_no_acked_loss(expected: Mapping[str, int],
                        actual: Mapping[str, int],
                        scope: str = "since scenario start",
                        ) -> InvariantResult:
    """Per-task applied-update ledgers must match exactly.

    Args:
        expected: updates per task that were ACKed (and not voided by a
            crash after the last durable checkpoint — the at-most-once
            contract scopes the guarantee to the checkpoint barrier).
        actual: updates per task visible in the recovered state.
        scope: human-readable description of the ledger's coverage,
            embedded in the verdict.
    """
    missing = {name: expected[name] - actual.get(name, 0)
               for name in expected if actual.get(name, 0) < expected[name]}
    extra = {name: actual[name] - expected.get(name, 0)
             for name in actual if actual[name] > expected.get(name, 0)}
    passed = not missing and not extra
    if passed:
        detail = (f"all {sum(expected.values())} ACKed updates "
                  f"accounted for ({scope})")
    elif missing:
        name = min(missing)
        detail = (f"task {name!r} lost {missing[name]} ACKed update(s) "
                  f"({scope})")
    else:
        name = min(extra)
        detail = (f"task {name!r} shows {extra[name]} more update(s) than "
                  f"were ACKed ({scope})")
    return InvariantResult(
        name="no_acked_offer_lost",
        passed=passed,
        detail=detail,
        metrics={
            "expected_total": sum(expected.values()),
            "actual_total": sum(actual.values()),
            "tasks_missing": len(missing),
            "tasks_extra": len(extra),
        },
    )
