"""Hypothesis property: the engine's vectorised beta kernel is the scalar
kernels, row by row and bit for bit.

``SoaSamplerEngine._kernel`` lays one cell per look-ahead step of each
row's own interval, each row's cells contiguous, and takes every row's
survive product with one ``np.multiply.reduceat``. The property draws
ticks that mix intervals from 1 to 64, both estimators, zero-std rows and
means of either sign with the first certain step (``gap <= 0``) at the
first or the last look-ahead step, and holds every row's beta to
``misdetection_bound_fused`` (Chebyshev / Cantelli) or
``gaussian_misdetection_estimate`` (Gaussian) — the statements the scalar
sampler steps. The pin below it holds numpy's multiply reduce over a
contiguous segment to the left-to-right product the scalar loop takes,
so a numpy that vectorises that reduction fails here, by name, before it
moves a fingerprint.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.likelihood import (gaussian_misdetection_estimate,
                                   misdetection_bound_fused)
from repro.core.soa import SoaSamplerEngine

# How a drawn row places its first certain step: nowhere (a finite,
# positive gap at every step it can), at the first look-ahead step, at
# the last, or a zero-std row.
SHAPES = ("open", "first", "last", "zero-std")

row = st.tuples(
    st.integers(min_value=1, max_value=64),                 # interval
    st.booleans(),                                          # chebyshev
    st.sampled_from(SHAPES),
    st.floats(min_value=1e-3, max_value=50.0),              # |mean|
    st.booleans(),                                          # mean < 0
    st.floats(min_value=1e-6, max_value=400.0),             # var
    st.floats(min_value=0.0, max_value=300.0))              # headroom


def _gap0(shape: str, interval: int, mean: float, headroom: float) -> float:
    """``threshold - value`` for a row of ``shape``."""
    if shape == "first":
        # gap0 - mean <= 0 at step 1, whichever the sign of the mean.
        return 0.5 * mean if mean > 0.0 else 1.5 * mean
    if shape == "last" and interval > 1 and mean > 0.0:
        # Positive through step interval - 1, not positive at interval.
        return (interval - 0.5) * mean
    return headroom + interval * abs(mean) + 1.0


def _scalar_beta(gap0: float, mean: float, var: float, interval: int,
                 chebyshev: bool) -> float:
    std = math.sqrt(var)
    if std == 0.0 or chebyshev:
        # The sampler's zero-std branch is the fused kernel's, for
        # either estimator (and the Gaussian one reads the same there).
        return misdetection_bound_fused(0.0, gap0, mean, std, interval)
    return gaussian_misdetection_estimate(0.0, gap0, mean, std, interval)


@given(rows=st.lists(row, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_the_kernel_is_the_scalar_kernels_row_by_row(rows):
    gap0, means, variances, intervals, cheb = [], [], [], [], []
    for interval, chebyshev, shape, size, negative, var, headroom in rows:
        mean = -size if negative else size
        gap0.append(_gap0(shape, interval, mean, headroom))
        means.append(mean)
        variances.append(0.0 if shape == "zero-std" else var)
        intervals.append(interval)
        cheb.append(chebyshev)
    with np.errstate(all="ignore"):
        beta = SoaSamplerEngine._kernel(
            np.array(gap0), np.array(means), np.array(variances),
            np.array(intervals, dtype=np.int64), np.array(cheb))
    want = [_scalar_beta(*args) for args in zip(
        gap0, means, variances, intervals, cheb)]
    assert beta.tolist() == want
    # Bit for bit, signed zeros included.
    assert beta.view(np.int64).tolist() == np.array(want).view(
        np.int64).tolist()


def test_the_drawn_shapes_reach_both_certain_steps():
    """The shapes do what they are named for: a certain first step, and
    a last step that is the only certain one."""
    for interval in (1, 2, 64):
        for mean in (3.0, -3.0):
            gap0 = _gap0("first", interval, mean, 0.0)
            assert gap0 - mean <= 0.0
    gap0 = _gap0("last", 64, 3.0, 0.0)
    assert all(gap0 - i * 3.0 > 0.0 for i in range(1, 64))
    assert gap0 - 64 * 3.0 <= 0.0


def test_multiply_reduceat_over_a_segment_is_left_to_right():
    """``np.multiply.reduceat`` over a contiguous float64 segment is the
    product taken one factor after another from the left — for every
    length from 1 to 1 000 and a segment that starts and ends inside a
    longer array. A numpy that reorders or vectorises the reduction
    fails here."""
    rng = np.random.default_rng(20130708)
    reordered = 0
    for length in range(1, 1001):
        factors = 1.0 - rng.random(length) * rng.random()
        flat = np.concatenate((rng.random(3), factors, rng.random(2)))
        got = np.multiply.reduceat(flat, [3, 3 + length])[0]
        want = 1.0
        for factor in factors.tolist():
            want *= factor
        assert got == want, length
        backwards = 1.0
        for factor in reversed(factors.tolist()):
            backwards *= factor
        reordered += backwards != want
    # The order shows in the last bit: the pin would see a reordering.
    assert reordered > 100
