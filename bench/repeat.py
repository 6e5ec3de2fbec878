#!/usr/bin/env python3
"""Run the suite N times back to back and report how well it repeats.

    python3 bench/repeat.py N [--workload W ...] [--seed S] [--scale F]
                              [--trace] [--out FILE]

Run ``i`` uses seed ``S + i``, as the acceptance check does: the spread
therefore includes what the seed changes. For every workload x
end-to-end metric the report gives the median, the quartiles, the
spread the acceptance check uses (interquartile range over median, from
``statistics.quantiles(values, n=4)``), the coefficient of variation and
``(max - min) / median``. It is written to
``bench/results/repeatability.json`` and the exit code is non-zero when
a spread exceeds the metric's bound in ``BENCHMARK.json`` or a run
failed its checks. With ``--trace`` every pass also makes the traced run
and the report carries the per-layer metrics (no bounds apply to them),
which is the form ``compare.py`` wants from both sides of a claim.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def summarise(values: list[float]) -> dict[str, float]:
    """The repeatability figures of one metric on one workload."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    mean = statistics.mean(values)
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "cv": statistics.pstdev(values) / mean if mean else 0.0,
        "range": (max(values) - min(values)) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=int)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=str(
        BENCH_DIR / "results" / "repeatability.json"))
    args = parser.parse_args(argv)
    workloads = args.workload or names

    Values = dict[str, dict[str, list[float]]]
    values: Values = {w: {} for w in workloads}
    layer_values: Values = {w: {} for w in workloads}
    failed_runs: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repeat-", dir=BENCH_DIR) as tmp:
        for i in range(args.runs):
            for workload in workloads:
                for trace, target in ((0, values), (1, layer_values)):
                    if trace and not args.trace:
                        continue
                    out = pathlib.Path(tmp) / f"{workload}-{i}-{trace}.json"
                    done = subprocess.run(
                        [sys.executable, str(BENCH_DIR / "run.py"),
                         "--workload", workload,
                         "--seed", str(args.seed + i),
                         "--scale", str(args.scale), "--trace", str(trace),
                         "--out", str(out)],
                        stdout=subprocess.DEVNULL, check=False)
                    label = f"{workload}{' (traced)' if trace else ''}"
                    if done.returncode or not out.is_file():
                        failed_runs.append(
                            f"{label} seed {args.seed + i}")
                        continue
                    result = json.loads(out.read_text(encoding="utf-8"))
                    for name, value in result["metrics"].items():
                        target[workload].setdefault(name, []).append(value)
                    print(f"run {i + 1}/{args.runs} {label}: ok", flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, dict[str, dict[str, float]]] = {}
    too_wide: list[str] = []
    for workload in workloads:
        report[workload] = {}
        for name, series in values[workload].items():
            row = summarise(series)
            row["bound"] = bounds.get(name)
            report[workload][name] = row
            flag = ""
            if name in bounds and row["spread"] > bounds[name]:
                too_wide.append(f"{workload}/{name}")
                flag = "  << exceeds bound"
            print(f"{workload:15s} {name:22s} median {row['median']:12.6g} "
                  f"spread {row['spread'] * 100:6.2f}%  cv "
                  f"{row['cv'] * 100:6.2f}%  range {row['range'] * 100:6.2f}%"
                  f"  bound {bounds.get(name, float('nan')) * 100:5.1f}%{flag}")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "runs": args.runs, "first_seed": args.seed, "scale": args.scale,
        "spread": "(q3 - q1) / median, statistics.quantiles(n=4)",
        "failed_runs": failed_runs, "exceeds_bound": too_wide,
        "workloads": report,
        "layers": {workload: {name: summarise(series)
                              for name, series in rows.items()}
                   for workload, rows in layer_values.items() if rows}},
        indent=1), encoding="utf-8")
    for entry in failed_runs:
        print(f"FAILED RUN: {entry}", file=sys.stderr)
    for entry in too_wide:
        print(f"SPREAD EXCEEDS BOUND: {entry}", file=sys.stderr)
    return 1 if failed_runs or too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
