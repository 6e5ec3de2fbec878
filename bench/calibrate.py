"""Interleaved machine-speed calibration for the benchmark.

This box's speed drifts for minutes at a time (shared host, 2 cores):
identical fixed-work runs swing 15-30 % in raw CPU time. Every timed
region is therefore bracketed by :func:`measure` — three tiny frozen
kernels timed on the same thread with the same clocks — and reported as

    reported = raw * REF / g

where ``g`` is the geometric mean of the three kernel times around the
region and ``REF`` is that geo-mean on the box that defined the
benchmark, so units stay physical ("at reference speed").

The kernels are frozen on purpose: they import nothing from ``repro``
(``bench/tests/test_smoke.py`` asserts it), so no later change to the
product can move the yardstick. They cover the three kinds of work the
server does — numpy column passes, Python object churn, and loopback
socket syscalls.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["Calibration", "Calibrator", "REF_CPU_MS", "REF_WALL_MS",
           "scale_factor"]

REF_CPU_MS = 1.12
"""Geo-mean of the three kernels' CPU ms on the defining box."""

REF_WALL_MS = 1.12
"""Geo-mean of the three kernels' wall ms on the defining box."""

_NP_SIZE = 16384
_NP_ROWS = 4096
_PY_ITEMS = 3000
_SYS_ROUNDS = 150
_REPEATS = 3


@dataclass(frozen=True)
class Calibration:
    """One calibration sample: per-kernel best-of-3 times, in ms."""

    np_cpu: float
    py_cpu: float
    sys_cpu: float
    np_wall: float
    py_wall: float
    sys_wall: float

    @property
    def g_cpu(self) -> float:
        return (self.np_cpu * self.py_cpu * self.sys_cpu) ** (1.0 / 3.0)

    @property
    def g_wall(self) -> float:
        return (self.np_wall * self.py_wall * self.sys_wall) ** (1.0 / 3.0)


def scale_factor(before: Calibration, after: Calibration,
                 clock: str = "cpu") -> float:
    """``REF / g`` for a region bracketed by two calibration samples."""
    if clock == "cpu":
        g = math.sqrt(before.g_cpu * after.g_cpu)
        return REF_CPU_MS / g
    g = math.sqrt(before.g_wall * after.g_wall)
    return REF_WALL_MS / g


class Calibrator:
    """Owns the kernels' fixed inputs and the loopback socket pair."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20130708)
        self._rows = rng.integers(0, _NP_ROWS, size=_NP_SIZE)
        self._steps = np.arange(_NP_SIZE, dtype=np.int64)
        self._values = rng.normal(60.0, 10.0, size=_NP_SIZE)
        self._due = rng.integers(0, _NP_SIZE, size=_NP_ROWS)
        self._state = np.zeros(_NP_ROWS, dtype=np.float64)
        self._a, self._b = socket.socketpair()
        self._payload = b"x" * 64
        self.samples: list[Calibration] = []

    def close(self) -> None:
        self._a.close()
        self._b.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the three frozen kernels ---------------------------------------

    def _kernel_np(self) -> float:
        rows, steps, values = self._rows, self._steps, self._values
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        fresh = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1])
        due = steps >= self._due[rows]
        picked = np.flatnonzero(due)
        sub = values[picked]
        self._state[rows[picked]] = sub
        delta = sub - self._state[rows[picked]].mean()
        spread = np.sqrt(np.square(delta) + 1.0)
        body = b"".join((rows.astype("<u4").tobytes(), steps.tobytes(),
                         values.tobytes()))
        back = np.frombuffer(body, dtype="<f8", count=_NP_SIZE,
                             offset=_NP_SIZE * 12)
        return float(spread.sum()) + float(back[0]) + len(fresh)

    def _kernel_py(self) -> float:
        table: dict[str, list[float]] = {}
        total = 0.0
        for i in range(_PY_ITEMS):
            key = "task-%04d" % (i & 255)
            entry = table.get(key)
            if entry is None:
                entry = table[key] = [0.0, 0.0, 0.0]
            x = float(i % 97) * 0.5
            n = entry[0] + 1.0
            d = x - entry[1]
            entry[0] = n
            entry[1] += d / n
            entry[2] += d * (x - entry[1])
            if entry[2] > 1e6:
                entry[2] = 0.0
            total += max(entry[1], 0.0)
            pair = (key, i, x)
            if pair[1] < 0:
                total -= 1.0
        return total

    def _kernel_sys(self) -> int:
        a, b, payload = self._a, self._b, self._payload
        got = 0
        for _ in range(_SYS_ROUNDS):
            a.sendall(payload)
            got += len(b.recv(4096))
            b.sendall(payload)
            got += len(a.recv(4096))
        return got

    # -- sampling -------------------------------------------------------

    @staticmethod
    def _best(kernel) -> tuple[float, float]:
        best_cpu = best_wall = math.inf
        for _ in range(_REPEATS):
            w0 = time.perf_counter_ns()
            c0 = time.process_time_ns()
            kernel()
            c1 = time.process_time_ns()
            w1 = time.perf_counter_ns()
            best_cpu = min(best_cpu, c1 - c0)
            best_wall = min(best_wall, w1 - w0)
        return best_cpu / 1e6, best_wall / 1e6

    def measure(self) -> Calibration:
        """Time the three kernels now; the sample is also kept."""
        np_cpu, np_wall = self._best(self._kernel_np)
        py_cpu, py_wall = self._best(self._kernel_py)
        sys_cpu, sys_wall = self._best(self._kernel_sys)
        sample = Calibration(np_cpu, py_cpu, sys_cpu,
                             np_wall, py_wall, sys_wall)
        self.samples.append(sample)
        return sample


if __name__ == "__main__":  # pragma: no cover - sizing aid
    import statistics

    with Calibrator() as cal:
        t0 = time.perf_counter()
        for _ in range(40):
            cal.measure()
        per = (time.perf_counter() - t0) / 40
        for field in ("np_cpu", "py_cpu", "sys_cpu", "g_cpu", "g_wall"):
            xs = [getattr(s, field) for s in cal.samples]
            print(f"{field:8s} median {statistics.median(xs):.4f} ms  "
                  f"cv {statistics.pstdev(xs) / statistics.mean(xs):.3f}")
        print(f"one measure() costs {per * 1e3:.1f} ms wall")
