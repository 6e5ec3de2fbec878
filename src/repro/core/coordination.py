"""Distributed sampling coordination (paper SIV).

A distributed task runs one adaptive sampler per monitor. Because a missed
*local* violation can hide a *global* violation, the sum of the monitors'
mis-detection rates must stay below the task's error allowance:
``beta_c <= sum_i beta_i <= err``. The coordinator therefore owns the
global allowance and decides each monitor's share.

Two allocation policies are provided:

* :class:`EvenAllocation` — ``err / m`` for every monitor (the "even"
  baseline of Fig. 8);
* :class:`AdaptiveAllocation` — the paper's iterative scheme: every
  updating period (1000 default intervals) each monitor reports
  ``r_i = 1/I_i - 1/(I_i + 1)`` (marginal cost reduction available from
  growing its interval; zero at the cap) and ``e_i = beta(I_i)/(1-gamma)``
  (the typical allowance that would let it grow; geometric period mean);
  the coordinator computes the yield ``y_i = r_i / e_i`` and moves the
  assignment gradually toward ``err_i = err * y_i / sum_j y_j``, so
  allowance flows to monitors where it buys the most cost reduction. Two
  throttles avoid churn: allocations are floored at ``err/100``, and no
  reallocation happens while the yields are nearly uniform. DESIGN.md S4
  records the reconstruction choices behind these formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.adaptation import CoordinationStats
from repro.exceptions import CoordinationError, ConfigurationError

__all__ = [
    "AllocationPolicy",
    "EvenAllocation",
    "AdaptiveAllocation",
    "AllocationUpdate",
]


@dataclass(frozen=True, slots=True)
class AllocationUpdate:
    """Result of one allocation round.

    Attributes:
        allocations: per-monitor error allowances (sums to the global
            allowance up to floating point).
        reallocated: False when the policy decided to keep the previous
            allocation (throttled or insufficient reports).
    """

    allocations: tuple[float, ...]
    reallocated: bool


class AllocationPolicy:
    """Base class for error-allowance allocation policies."""

    _trace: Any = None
    _trace_task: str | None = None

    def attach_trace(self, trace: Any, task: str | None = None) -> None:
        """Attach a decision trace; reallocations emit
        ``allowance_reallocated`` events (``repro.telemetry.trace``).

        Passing ``None`` detaches. The un-traced cost is one ``is None``
        check per allocation round.
        """
        self._trace = trace
        self._trace_task = task

    def _emit_reallocated(self, update: "AllocationUpdate",
                          total_error: float) -> None:
        trace = self._trace
        if trace is not None and update.reallocated:
            trace.emit("allowance_reallocated", task=self._trace_task,
                       allocations=list(update.allocations),
                       total_error=total_error)

    def initial(self, num_monitors: int, total_error: float,
                ) -> tuple[float, ...]:
        """Initial allocation before any reports: an even split.

        The paper's coordinator "first divides err evenly across all
        monitors" regardless of policy.
        """
        if num_monitors < 1:
            raise ConfigurationError(
                f"num_monitors must be >= 1, got {num_monitors}")
        share = total_error / num_monitors
        return tuple(share for _ in range(num_monitors))

    def reallocate(self, current: tuple[float, ...],
                   reports: list[CoordinationStats | None],
                   total_error: float) -> AllocationUpdate:
        """Compute the next allocation from the period's monitor reports.

        Args:
            current: allocation in force during the period.
            reports: one :class:`CoordinationStats` per monitor (``None``
                when a monitor had no samples in the period).
            total_error: the task's global error allowance.
        """
        raise NotImplementedError


class EvenAllocation(AllocationPolicy):
    """Always split the allowance evenly (Fig. 8's "even" baseline)."""

    def reallocate(self, current: tuple[float, ...],
                   reports: list[CoordinationStats | None],
                   total_error: float) -> AllocationUpdate:
        """Return the even split regardless of the reports."""
        if len(current) != len(reports):
            raise CoordinationError(
                f"{len(reports)} reports for {len(current)} monitors")
        return AllocationUpdate(
            allocations=self.initial(len(current), total_error),
            reallocated=False,
        )


class AdaptiveAllocation(AllocationPolicy):
    """The paper's yield-driven iterative allocation (SIV-B).

    Allowance flows toward monitors with the highest cost-reduction yield
    ``y_i = r_i / e_i``, with two refinements that make the scheme
    well-behaved when yields span orders of magnitude (the instantaneous
    ``beta`` bounds do — see DESIGN.md S4):

    * the yield's denominator is floored at ``min_share_fraction`` of the
      global allowance: a monitor whose typical bound is already far below
      any allocation it could receive gains nothing from more allowance,
      so its yield must not diverge;
    * allocations are floored at ``total_error * min_share_fraction``
      (paper: 1/100) and reallocation is skipped while yields are nearly
      uniform (paper's throttle).

    With those two guards the paper's proportional rule
    ``err_i = err * y_i / sum_j y_j`` moves allowance toward monitors at
    small intervals whose typical bound sits near their allocation — the
    monitors that must "absorb frequent violations" in the paper's worked
    example — and away from both hopeless monitors (``e_i`` far above any
    feasible allocation) and already-satisfied ones.

    The scheme is *iterative and gradual* (SIV-B: "an iterative scheme
    that gradually tunes the assignment"): each round moves allocations a
    fraction ``step`` of the way toward the yield-proportional target.
    Gradual movement matters — a monitor whose allowance drops suddenly
    below what sustains its current interval suffers a burst of resets
    before the next round can correct course.

    Args:
        min_share_fraction: floor, as a fraction of the global allowance,
            applied to both allocations and yield denominators.
        uniform_spread: skip reallocation when the relative yield spread
            ``(max - min) / max`` is below this value.
        step: fraction of the distance to the proportional target moved
            per updating period (1.0 jumps straight to the target).
    """

    def __init__(self, min_share_fraction: float = 0.01,
                 uniform_spread: float = 0.1, step: float = 0.15):
        if not 0.0 < min_share_fraction < 1.0:
            raise ConfigurationError(
                "min_share_fraction must be in (0, 1), got "
                f"{min_share_fraction}")
        if uniform_spread < 0.0:
            raise ConfigurationError(
                f"uniform_spread must be >= 0, got {uniform_spread}")
        if not 0.0 < step <= 1.0:
            raise ConfigurationError(
                f"step must be in (0, 1], got {step}")
        self._min_share_fraction = min_share_fraction
        self._uniform_spread = uniform_spread
        self._step = step

    def reallocate(self, current: tuple[float, ...],
                   reports: list[CoordinationStats | None],
                   total_error: float) -> AllocationUpdate:
        """Yield-proportional reallocation with floor and spread throttles."""
        if len(current) != len(reports):
            raise CoordinationError(
                f"{len(reports)} reports for {len(current)} monitors")
        m = len(current)
        if m == 1:
            return AllocationUpdate(allocations=(total_error,),
                                    reallocated=False)
        if any(r is None for r in reports):
            # A silent monitor gives no yield signal; keep the allocation.
            return AllocationUpdate(allocations=current, reallocated=False)
        if total_error <= 0.0:
            return AllocationUpdate(allocations=tuple(0.0 for _ in current),
                                    reallocated=False)

        floor = total_error * self._min_share_fraction
        yields = []
        for r in reports:
            assert r is not None
            denominator = max(r.avg_error_needed, floor)
            yields.append(max(r.avg_cost_reduction, 0.0) / denominator)

        y_max = max(yields)
        if y_max <= 0.0:
            return AllocationUpdate(allocations=current, reallocated=False)
        spread = (y_max - min(yields)) / y_max
        if spread < self._uniform_spread:
            return AllocationUpdate(allocations=current, reallocated=False)
        if floor * m >= total_error:
            # Degenerate configuration: the floors exhaust the budget.
            return AllocationUpdate(
                allocations=self.initial(m, total_error),
                reallocated=False)

        # Proportional shares with the floor enforced to a fixed point:
        # flooring one monitor shrinks the mass available to the rest,
        # which can push further monitors under the floor, so iterate
        # until the floored set stabilises (at most m rounds).
        floored: set[int] = set()
        while True:
            free = [i for i in range(m) if i not in floored]
            remaining = total_error - floor * len(floored)
            free_yield = sum(yields[i] for i in free)
            raw = [floor] * m
            for i in free:
                if free_yield > 0.0:
                    # Ratio first: yields can be denormal, and
                    # ``remaining * y`` would underflow before the divide,
                    # breaking conservation of the total allowance.
                    raw[i] = remaining * (yields[i] / free_yield)
                else:
                    raw[i] = remaining / len(free)
            newly = {i for i in free if raw[i] < floor}
            if not newly:
                break
            floored |= newly
            if len(floored) == m:
                raw = list(self.initial(m, total_error))
                break
        # Gradual movement toward the target (see class docstring).
        step = self._step
        mixed = tuple((1.0 - step) * c + step * t
                      for c, t in zip(current, raw))
        update = AllocationUpdate(allocations=mixed, reallocated=True)
        self._emit_reallocated(update, total_error)
        return update
