"""Violation-likelihood estimation (paper SIII-A, Definitions 1-2, Ineq. 1-3).

A monitoring task raises a state alert when the monitored value exceeds a
threshold ``T``. After observing ``v(t1)``, the value ``i`` default intervals
later is modelled as ``v(t1) + i * delta`` where ``delta`` is the (time
independent) per-default-interval change, with online-estimated mean ``mu``
and standard deviation ``sigma``.

The one-sided Chebyshev (Cantelli) inequality bounds the violation
likelihood at step ``i`` without any distributional assumption::

    P[v(t1) + i*delta > T] = P[delta > (T - v(t1)) / i]
                          <= 1 / (1 + k^2),   k = (T - v(t1) - i*mu) / (i*sigma)

valid for ``k > 0``; when ``k <= 0`` the bound is vacuous and we use 1.

The *mis-detection rate* of a sampling interval ``I`` (in units of the
default interval) is the probability that at least one of the ``I`` skipped
grid points violates::

    beta(I) <= 1 - prod_{i=1..I} (1 - bound_i)          (Inequality 3)

All functions here are pure and operate in the canonical upper-threshold
frame (see :meth:`repro.types.ThresholdDirection.orient` for lower
thresholds).

Kernel layer (DESIGN.md S27): the per-step functions above are the
*reference oracle* — obviously-correct, validated once per call, and kept
unchanged. :func:`misdetection_bound_fused` computes the bit-identical
Cantelli bound with the invariants hoisted out of the loop (``gap0 = T -
v``, ``i * std`` only) and the step term inlined, so one bound costs one
function call instead of ``I`` of them; the engine's vector kernel
(:mod:`repro.core.soa`) is held bit-equal to it and, for the Gaussian
estimator, to :func:`gaussian_misdetection_estimate`.
:func:`max_admissible_interval` inverts Cantelli's inequality in closed form to cap the search for the
largest admissible interval, then verifies with one incremental fused
pass — never by re-probing ``beta(I)`` per candidate.
"""

from __future__ import annotations

import math

__all__ = [
    "cantelli_upper_bound",
    "step_violation_bound",
    "misdetection_bound",
    "misdetection_bound_fused",
    "max_admissible_interval",
    "gaussian_step_violation_estimate",
    "gaussian_misdetection_estimate",
]

def cantelli_upper_bound(k: float) -> float:
    """Upper bound of ``P(X - mu >= k * sigma)`` for any distribution.

    Returns ``1 / (1 + k^2)`` for ``k > 0`` and the trivial bound 1.0 for
    ``k <= 0`` (Cantelli's inequality is one-sided and uninformative there).
    """
    if k <= 0.0:
        return 1.0
    return 1.0 / (1.0 + k * k)


def step_violation_bound(value: float, threshold: float, mean: float,
                         std: float, steps: int) -> float:
    """Bound ``P[v + steps*delta > threshold]`` via Cantelli's inequality.

    Args:
        value: current sampled value ``v(t1)``.
        threshold: violation threshold ``T``.
        mean: estimated mean of ``delta``.
        std: estimated standard deviation of ``delta`` (>= 0).
        steps: how many default intervals ahead (``i >= 1``).

    Returns:
        An upper bound in [0, 1]. Degenerate cases: with ``std == 0`` the
        change is deterministic, so the bound is 0 when the extrapolated
        value stays at or below the threshold and 1 otherwise.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if std < 0.0:
        raise ValueError(f"std must be >= 0, got {std}")
    gap = threshold - value - steps * mean
    if std == 0.0:
        return 0.0 if gap > 0.0 else 1.0
    return cantelli_upper_bound(gap / (steps * std))


def misdetection_bound(value: float, threshold: float, mean: float,
                       std: float, interval: int) -> float:
    """Upper bound of the mis-detection rate ``beta(I)`` (Inequality 3).

    The probability that a violation occurs at any of the ``interval`` grid
    points skipped before the next sample, assuming per-step changes are
    independent draws of ``delta``.

    Args:
        value: current sampled value.
        threshold: violation threshold ``T``.
        mean: estimated mean of ``delta``.
        std: estimated standard deviation of ``delta``.
        interval: candidate sampling interval ``I`` in default-interval
            units (>= 1).

    Returns:
        An upper bound on the mis-detection rate, in [0, 1].
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    survive = 1.0
    for i in range(1, interval + 1):
        bound = step_violation_bound(value, threshold, mean, std, i)
        if bound >= 1.0:
            return 1.0
        survive *= 1.0 - bound
    return 1.0 - survive


def misdetection_bound_fused(value: float, threshold: float, mean: float,
                             std: float, interval: int) -> float:
    """Fused twin of :func:`misdetection_bound` — bit-identical, one call.

    Hoists the loop invariants (``gap0 = threshold - value``), inlines the
    Cantelli term, and exits early the moment any skipped step's bound
    reaches 1 (``gap <= 0``). Every floating-point operation is performed
    in the same order and association as the reference, so the result is
    bit-for-bit equal — the equivalence suite and the core-hotpath CI job
    enforce this. Validation is hoisted to one check per *call* instead of
    one per step; argument errors raise exactly as the reference does.
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    if std < 0.0:
        raise ValueError(f"std must be >= 0, got {std}")
    gap0 = threshold - value
    if std == 0.0:
        # Deterministic drift: the per-step bound is 0 while
        # ``gap0 - i*mean > 0`` and 1 otherwise. The binding step is the
        # last one for non-negative drift and the first one otherwise.
        worst = interval if mean >= 0.0 else 1
        return 0.0 if gap0 - worst * mean > 0.0 else 1.0
    survive = 1.0
    for i in range(1, interval + 1):
        gap = gap0 - i * mean
        if gap <= 0.0:
            return 1.0  # Cantelli is vacuous (bound 1) at this step
        k = gap / (i * std)
        survive *= 1.0 - 1.0 / (1.0 + k * k)
    return 1.0 - survive


def gaussian_step_violation_estimate(value: float, threshold: float,
                                     mean: float, std: float,
                                     steps: int) -> float:
    """Estimate ``P[v + steps*delta > threshold]`` assuming Gaussian delta.

    The distribution-*dependent* counterpart of
    :func:`step_violation_bound`: exact if ``delta ~ N(mean, std^2)``,
    unsafe otherwise. Provided for the estimator ablation — it shows how
    much of the paper's conservatism comes from Chebyshev's looseness and
    what accuracy is risked by assuming normality (the paper deliberately
    "makes no such assumptions", SVI).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if std < 0.0:
        raise ValueError(f"std must be >= 0, got {std}")
    gap = threshold - value - steps * mean
    if std == 0.0:
        return 0.0 if gap > 0.0 else 1.0
    z = gap / (steps * std)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_misdetection_estimate(value: float, threshold: float,
                                   mean: float, std: float,
                                   interval: int) -> float:
    """Gaussian counterpart of :func:`misdetection_bound`.

    Same independence structure as Inequality 3, with the Cantelli bound
    replaced by the exact normal tail.
    """
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval}")
    survive = 1.0
    for i in range(1, interval + 1):
        p = gaussian_step_violation_estimate(value, threshold, mean, std, i)
        if p >= 1.0:
            return 1.0
        survive *= 1.0 - p
    return 1.0 - survive


def max_admissible_interval(value: float, threshold: float, mean: float,
                            std: float, err: float,
                            max_interval: int | None = None) -> int:
    """Largest interval ``I`` with ``beta(I) <= err``, 0 when none is.

    Replaces per-candidate probing (``misdetection_bound(..., I)`` for each
    ``I``, O(I^2) step evaluations) with a closed-form Cantelli inversion
    plus one incremental fused pass:

    Since ``beta(I) >= bound_i`` for every step ``i <= I`` (the product
    form of Inequality 3), an interval is admissible only if *every* step
    bound is at most ``err``. Inverting Cantelli, for ``std > 0``::

        1 / (1 + k_i^2) <= err   <=>   k_i >= k_err = sqrt((1-err)/err)

    and with ``k_i = (gap0 - i*mean) / (i*std)`` (``gap0 = T - v``, both
    sides multiplied by ``i*std > 0``)::

        gap0 >= i * (mean + k_err * std)

    so whenever ``mean + k_err*std > 0`` no interval beyond
    ``gap0 / (mean + k_err*std)`` can be admissible. The verification pass
    shares its survival product across candidates (cost O(answer), not
    O(answer^2)) and evaluates ``beta`` with the same float operations as
    :func:`misdetection_bound_fused`, so the returned interval agrees
    exactly with what reference point queries would select.

    Args:
        value / threshold / mean / std: as :func:`misdetection_bound`.
        err: the error allowance in [0, 1].
        max_interval: cap on the answer (the task's ``Im``). ``None`` means
            uncapped — then a configuration with no finite answer
            (``std == 0`` with non-positive drift, ``err >= 1``, or drift
            negative enough that the Cantelli inversion yields no bound)
            raises :class:`ValueError`.

    Returns:
        The largest admissible interval, clamped to ``max_interval``;
        0 when even ``I = 1`` violates the allowance.
    """
    if std < 0.0:
        raise ValueError(f"std must be >= 0, got {std}")
    if not 0.0 <= err <= 1.0:
        raise ValueError(f"err must be in [0, 1], got {err}")
    if max_interval is not None and max_interval < 1:
        raise ValueError(f"max_interval must be >= 1, got {max_interval}")

    gap0 = threshold - value
    if err >= 1.0:
        # Everything is admissible; only a cap makes the answer finite.
        if max_interval is None:
            raise ValueError("err >= 1 admits every interval; "
                             "pass max_interval")
        return max_interval
    if gap0 - mean <= 0.0:
        # Step 1 is already vacuous (its Cantelli/Gaussian argument is
        # non-positive), and every beta(I) includes step 1 in its product:
        # beta(I) = 1 > err for all I. Note gap0 <= 0 alone is NOT enough —
        # negative drift (mean < 0) can keep every step's gap positive even
        # from at/above the threshold.
        return 0
    if std == 0.0:
        # Deterministic drift: beta(I) is 0 while gap0 - I*mean > 0
        # (non-negative drift binds at the last step) and jumps to 1 after.
        if mean <= 0.0:
            if max_interval is None:
                raise ValueError("deterministic non-violating trace admits "
                                 "every interval; pass max_interval")
            return max_interval
        # Largest I with gap0 - I*mean > 0, evaluated with the same float
        # arithmetic as the reference kernels; the closed form seeds the
        # answer and the float test nudges it across any rounding edge.
        ratio = gap0 / mean
        if not math.isfinite(ratio) or (max_interval is not None
                                        and ratio > 2.0 * max_interval):
            if max_interval is None:
                raise ValueError("deterministic crossing beyond any finite "
                                 "horizon; pass max_interval")
            return max_interval
        limit = max(math.ceil(ratio) - 1, 0)
        while limit > 0 and not gap0 - limit * mean > 0.0:
            limit -= 1
        while gap0 - (limit + 1) * mean > 0.0:
            limit += 1
        return limit if max_interval is None else min(limit, max_interval)
    # err <= 0 deliberately falls through to the verification pass: every
    # stochastic step's *exact* bound is strictly positive, but the
    # kernel's computed beta can round to exactly 0.0 (huge k underflows
    # the Cantelli term out of the survival product), and those intervals
    # ARE admissible by reference point queries.

    # Closed-form cap from the Cantelli inversion. The inversion is exact
    # in real arithmetic; the kernel's computed beta can sit below the
    # exact bound by the product chain's accumulated rounding, so the
    # allowance is padded by an absolute slack that dominates that error
    # for any realistic horizon (~1e6 steps), plus +1 on the division.
    # The verification pass below uses the exact kernel float sequence,
    # so the cap only needs to be an upper bound, never tight.
    err_eff = err + 1e-9
    cap = max_interval
    if err_eff < 1.0:
        k_err = math.sqrt((1.0 - err_eff) / err_eff)
        denom = mean + k_err * std
        if denom > 0.0:
            inverted = int(gap0 / denom) + 1
            cap = inverted if cap is None else min(cap, inverted)
    if cap is None:
        # Drift so negative that no step can exceed the allowance within
        # the inversion: the numeric answer is unbounded (the survival
        # product stalls at 1.0), so a finite horizon is required.
        raise ValueError("admissible intervals are unbounded under "
                         "dominant negative drift; pass max_interval")

    best = 0
    survive = 1.0
    for i in range(1, cap + 1):
        gap = gap0 - i * mean
        if gap <= 0.0:
            break
        k = gap / (i * std)
        survive *= 1.0 - 1.0 / (1.0 + k * k)
        if 1.0 - survive > err:
            break
        best = i
    return best
