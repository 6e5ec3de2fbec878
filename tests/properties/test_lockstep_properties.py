"""Property-based equivalence: lockstep engine rows vs. ``observe`` (S27).

Hypothesis draws K independent runs — ragged trace lengths, mixed
``max_interval``, allowances including 0 — under both estimators and
statistics restarts (disabled included), steps them as one
:func:`~repro.experiments.runner.run_lockstep`, and requires every row
to match the reference driver over a scalar sampler exactly: the same
sampled indices, the same intervals, the same accuracy, and a final row
state equal to the sampler's ``state_dict``. K spans both sides of the
engine's row-by-row crossover, so narrow and vectorised ticks are both
held.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptation import AdaptationConfig, ViolationLikelihoodSampler
from repro.core.task import TaskSpec
from repro.experiments.runner import (_lockstep, run_lockstep,
                                      run_sampler_on_trace)

run_st = st.tuples(st.integers(min_value=0, max_value=2**32 - 1),  # seed
                  st.integers(min_value=1, max_value=200),        # length
                  st.sampled_from([0.0, 0.01, 0.05, 0.3]),        # err
                  st.integers(min_value=1, max_value=8))          # Im
# 1..24 rows: both sides of the engine's row-by-row crossover.
runs_st = st.integers(min_value=1, max_value=24).flatmap(
    lambda k: st.lists(run_st, min_size=k, max_size=k))


def _trace(seed: int, length: int) -> np.ndarray:
    """A slow walk with sparse spikes: quiet enough for intervals to
    grow, with resets whenever a spike nears the threshold."""
    rng = np.random.default_rng(seed)
    trace = (np.cumsum(rng.normal(0.0, 1.0, length)) * 0.02
             + rng.normal(0.0, 0.05, length))
    spikes = rng.random(length) < 0.02
    trace[spikes] += rng.uniform(2.0, 8.0, int(spikes.sum()))
    return trace


class TestLockstepMatchesObserve:
    @given(runs=runs_st,
           estimator=st.sampled_from(["chebyshev", "gaussian"]),
           restart=st.one_of(st.none(), st.integers(min_value=5,
                                                    max_value=30)))
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_scalar_samplers(self, runs, estimator, restart):
        config = AdaptationConfig(estimator=estimator, patience=3,
                                  stats_restart=restart, min_samples=4)
        traces = [_trace(seed, length) for seed, length, *_ in runs]
        tasks = [TaskSpec(threshold=float(np.median(trace)) + 1.0,
                          error_allowance=err, max_interval=max_interval)
                 for trace, (_, _, err, max_interval) in zip(traces, runs)]
        got = run_lockstep(traces, tasks, config)
        engine, _, _ = _lockstep(traces, tasks, config, False)
        for row, (trace, task, result) in enumerate(zip(traces, tasks, got)):
            sampler = ViolationLikelihoodSampler(task, config)
            want = run_sampler_on_trace(trace, sampler, task.threshold)
            assert result.sampled_indices.tolist() == \
                want.sampled_indices.tolist()
            assert result.intervals.tolist() == want.intervals.tolist()
            assert result.accuracy == want.accuracy
            assert engine.row_state_dict(row) == sampler.state_dict()
