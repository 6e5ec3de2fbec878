"""Hypothesis property: the SoA engine is the scalar sampler at every
tick width, on either side of its row-by-row crossover.

Hypothesis draws the *shape* of the traffic — tick widths straddling
``_NARROW_TICK_ROWS``, step gaps, repeated rows, stale steps, where the
NaNs and infinities fall, the restart period, the estimator mix — and a
seed for the values; the ``soa_differential`` harness (tests/conftest.py)
feeds a scalar and an SoA service the same offers and holds batch
accounting, snapshots, alerts, counters and per-task trace events equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import soa as soa_mod

CROSSOVER = soa_mod._NARROW_TICK_ROWS
TASKS = 4 * CROSSOVER + 4

rounds = st.lists(
    st.tuples(
        st.sampled_from((1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1,
                         4 * CROSSOVER)),          # due rows wanted
        st.integers(min_value=1, max_value=8),     # step gap
        st.integers(min_value=0, max_value=4),     # rows offered twice
        st.integers(min_value=0, max_value=3),     # not-due extras
        st.sampled_from((None, None, None, float("nan"), float("inf"),
                         float("-inf"))),          # poison for one offer
        st.booleans()),                            # one stale step
    min_size=4, max_size=30)


@given(estimator=st.sampled_from(("chebyshev", "gaussian", "mixed")),
       stats_restart=st.sampled_from((None, 5, 9, 40)),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       rounds=rounds, churn=st.booleans())
@settings(max_examples=30, deadline=None)
def test_any_tick_width_matches_the_scalar_service(
        soa_differential, estimator, stats_restart, seed, rounds, churn):
    rng = np.random.default_rng(seed)
    pair = soa_differential(soa_differential.population(
        TASKS, estimator, stats_restart=stats_restart))
    step = 0
    for n, (width, gap, twice, extras, poison, stale) in enumerate(rounds):
        step += gap
        live = [i for i, name in enumerate(pair.names)
                if name in pair.scalar.task_names]
        due = [i for i in live if pair.scalar.due(pair.names[i], step)]
        rest = [i for i in range(TASKS) if i not in due]
        idx = [int(i) for i in rng.permutation(due)[:width]]
        idx += [int(i) for i in rng.permutation(rest)[:extras]]
        steps = [step] * len(idx)
        idx += idx[:twice]
        steps += [step + 1] * (len(idx) - len(steps))
        step += 1
        values = [pair.value(rng, i, s) for i, s in zip(idx, steps)]
        if poison is not None and values:
            values[int(rng.integers(len(values)))] = poison
        if stale and steps:
            steps[0] = max(steps[0] - 6, 0)
        if idx:
            pair.offer(idx, steps, values)
        if churn and n == len(rounds) // 2:
            for service in (pair.scalar, pair.vector):
                service.remove_task(pair.names[1])
                service.add_trigger(pair.names[4], pair.names[6],
                                    elevation_level=60.0)
    pair.check()
