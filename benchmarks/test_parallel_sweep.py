"""Parallel sweep layer: pool fan-out vs serial, and warm-cache re-runs.

Not a paper figure — this benchmarks the execution substrate every
figure sweep now runs on (DESIGN.md S25). Three claims to watch:

* ``workers=N`` produces bit-for-bit the ``workers=1`` result (on Fig. 6,
  the sweep still made of several jobs: a Fig. 5 panel is one job);
* a warm cache turns a full sweep into pure disk reads;
* the observability surface (cache hits, per-job wall time) is real.
"""

from __future__ import annotations

import tempfile

from repro.experiments.figures import fig5, fig6
from repro.experiments.parallel import SweepCache

KWARGS = dict(num_streams=3, horizon=4000, seed=0,
              selectivities=(3.2, 0.8), error_allowances=(0.008, 0.032))
FIG6_KWARGS = dict(error_allowances=(0.0, 0.01, 0.05), num_servers=1,
                   vms_per_server=8, horizon=500, seed=0)


def test_parallel_sweep_equivalence(benchmark, report):
    parallel = benchmark.pedantic(
        lambda: fig6(workers=2, **FIG6_KWARGS), rounds=1, iterations=1)
    serial = fig6(workers=1, **FIG6_KWARGS)
    report(parallel.report())
    report(parallel.sweep_stats.report())

    # The tentpole guarantee: fan-out changes nothing about the numbers.
    assert parallel.stats == serial.stats
    assert parallel.sampling_ratios == serial.sampling_ratios
    assert parallel.sweep_stats.workers == 2
    assert parallel.sweep_stats.cache_misses == 3


def test_warm_cache_sweep(benchmark, report):
    with tempfile.TemporaryDirectory() as tmp:
        cache = SweepCache(tmp)
        cold = fig5("network", workers=1, cache=cache, **KWARGS)

        def rerun():
            return fig5("network", workers=1, cache=cache, **KWARGS)

        warm = benchmark.pedantic(rerun, rounds=1, iterations=1)
        report(warm.sweep_stats.report())

        assert warm.cells == cold.cells
        assert warm.sweep_stats.cache_hits == warm.sweep_stats.jobs == 1
        assert warm.sweep_stats.cache_misses == 0
