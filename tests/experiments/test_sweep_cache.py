"""Cache behaviour of the parallel sweep layer.

The contract: a repeated identical sweep performs *zero* recomputation,
a changed axis invalidates only the affected cells, and a corrupted or
truncated cache entry is a miss — never an error.
"""

from __future__ import annotations

import pickle

from repro.experiments.figures import fig5
from repro.experiments.parallel import (CACHE_VERSION, SweepCache, SweepJob,
                                        job_key, run_sweep)

#: recomputation counter, visible because cache tests run at ``workers=1``
#: (strictly in-process)
CALLS: list[float] = []


def _counted(*, x: float) -> float:
    CALLS.append(x)
    return x * 10.0


def _sweep(xs, cache):
    jobs = [SweepJob.call(_counted, x=float(x)) for x in xs]
    return run_sweep(jobs, workers=1, cache=cache)


class TestCacheReuse:
    def test_second_identical_sweep_recomputes_nothing(self, tmp_path):
        cache = SweepCache(tmp_path)
        CALLS.clear()
        first, stats1 = _sweep((1, 2, 3), cache)
        assert stats1.cache_hits == 0 and stats1.cache_misses == 3
        assert CALLS == [1.0, 2.0, 3.0]

        second, stats2 = _sweep((1, 2, 3), cache)
        assert CALLS == [1.0, 2.0, 3.0]  # zero recomputation
        assert stats2.cache_hits == 3 and stats2.cache_misses == 0
        assert second == first

    def test_changed_axis_invalidates_only_affected_cells(self, tmp_path):
        cache = SweepCache(tmp_path)
        CALLS.clear()
        _sweep((1, 2, 3), cache)
        CALLS.clear()
        results, stats = _sweep((1, 2, 4), cache)
        # Only the new cell (x=4) is computed; 1 and 2 come from cache.
        assert CALLS == [4.0]
        assert stats.cache_hits == 2 and stats.cache_misses == 1
        assert results == [10.0, 20.0, 40.0]

    def test_cache_round_trip_is_exact(self, tmp_path):
        cache = SweepCache(tmp_path)
        value = {"floats": (0.1, 2.5e-17), "nested": [1, "x", None]}
        cache.store("k" * 64, value)
        hit, loaded = cache.load("k" * 64)
        assert hit and loaded == value

    def test_clear_removes_everything(self, tmp_path):
        cache = SweepCache(tmp_path)
        _sweep((1, 2), cache)
        assert cache.clear() == 2
        hit, _ = cache.load(job_key(SweepJob.call(_counted, x=1.0)))
        assert not hit


class TestCacheRobustness:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        _sweep((5,), cache)
        key = job_key(SweepJob.call(_counted, x=5.0))
        path = cache.path(key)
        path.write_bytes(path.read_bytes()[:3])  # truncate mid-pickle

        CALLS.clear()
        results, stats = _sweep((5,), cache)
        assert results == [50.0]
        assert CALLS == [5.0]  # recomputed, not crashed
        assert stats.cache_misses == 1
        # ... and the recomputation repaired the entry.
        hit, value = cache.load(key)
        assert hit and value == 50.0

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = job_key(SweepJob.call(_counted, x=6.0))
        path = cache.path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle at all")
        hit, _ = cache.load(key)
        assert not hit

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        hit, value = cache.load("0" * 64)
        assert not hit and value is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path)
        key = "a" * 64
        cache.store(key, 1.0)
        payload = {"version": CACHE_VERSION + 1, "key": key, "value": 1.0}
        cache.path(key).write_bytes(pickle.dumps(payload))
        hit, _ = cache.load(key)
        assert not hit

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # An entry whose recorded key disagrees with its filename (e.g.
        # a file copied by hand) must not be served.
        cache = SweepCache(tmp_path)
        cache.store("b" * 64, 2.0)
        target = cache.path("c" * 64)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(cache.path("b" * 64).read_bytes())
        hit, _ = cache.load("c" * 64)
        assert not hit


class TestFigureLevelCaching:
    def test_fig5_repeat_hits_every_cell(self, tmp_path):
        cache = SweepCache(tmp_path)
        kwargs = dict(num_streams=2, horizon=1000,
                      selectivities=(3.2, 0.4),
                      error_allowances=(0.008, 0.032))
        first = fig5("network", workers=1, cache=cache, **kwargs)
        assert first.sweep_stats.cache_hits == 0
        second = fig5("network", workers=1, cache=cache, **kwargs)
        # A panel is one job: its cells are computed and cached together.
        assert second.sweep_stats.cache_hits == second.sweep_stats.jobs == 1
        assert second.sweep_stats.cache_misses == 0
        assert second.cells == first.cells

    def test_fig5_changed_seed_misses(self, tmp_path):
        cache = SweepCache(tmp_path)
        kwargs = dict(num_streams=1, horizon=800, selectivities=(0.4,),
                      error_allowances=(0.032,))
        fig5("network", seed=0, workers=1, cache=cache, **kwargs)
        other = fig5("network", seed=1, workers=1, cache=cache, **kwargs)
        assert other.sweep_stats.cache_hits == 0

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        cache = SweepCache(tmp_path)
        kwargs = dict(num_streams=1, horizon=800,
                      selectivities=(3.2, 0.4),
                      error_allowances=(0.032,))
        parallel = fig5("network", workers=2, cache=cache, **kwargs)
        serial = fig5("network", workers=1, cache=cache, **kwargs)
        assert serial.sweep_stats.cache_hits == 1
        assert serial.cells == parallel.cells
