#!/usr/bin/env python3
"""Compare two benchmark result files, base first.

    python3 bench/compare.py BASE.json CHANGE.json

Either file may be a ``repeat.py`` report (several runs per side — the
form a performance claim needs), a suite file from ``run.py --out``, or a
single-workload result. One row per workload x end-to-end metric gives
the base, the change, their ratio *with its base*, and a verdict:

``worse``        the change's median is worse than the base's by more
                 than the metric's bound in ``BENCHMARK.json``;
``better``       it is better by more than the base's own run-to-run
                 spread (distance between its quartiles);
``within bound`` neither;
``unresolved``   the spread of either side exceeds the bound, so the
                 runs cannot tell — unless every run of the change reads
                 better (or worse) than every run of the base.

Below the table, for each workload with a moved metric, come the
per-layer metrics that changed most, when both files carry a traced run
(``repeat.py --trace``): the place to look for where the time went.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent

Series = dict[str, dict[str, list[float]]]


def load(path: str) -> tuple[Series, Series]:
    """``(end_to_end, per_layer)`` values per workload per metric."""
    doc = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    e2e: Series = {}
    layers: Series = {}

    def single(result: dict[str, Any]) -> None:
        target = layers if result.get("trace") else e2e
        target.setdefault(result["workload"], {}).update(
            {name: [value] for name, value in result["metrics"].items()})

    if "workloads" in doc and "runs" in doc:            # repeat.py report
        for section, target in (("workloads", e2e), ("layers", layers)):
            for workload, rows in doc.get(section, {}).items():
                target[workload] = {name: list(row["values"])
                                    for name, row in rows.items()}
    elif "workloads" in doc:                             # run.py suite
        for result in doc["workloads"].values():
            single(result)
    else:
        single(doc)
    return e2e, layers


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, c = statistics.median(base), statistics.median(change)
    gain = sign * (c - b) / abs(b) if b else 0.0      # > 0 is better
    if max(spread(base), spread(change)) > bound:
        if min(sign * v for v in change) > max(sign * v for v in base):
            return "better"
        if max(sign * v for v in change) < min(sign * v for v in base):
            return "worse"
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > spread(base) and gain > 0 and len(base) > 1:
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_e2e, base_layers = load(args[0])
    change_e2e, change_layers = load(args[1])
    print(f"base:   {args[0]}\nchange: {args[1]}\n")
    print(f"{'workload':15s} {'metric':22s} {'base':>12s} {'change':>12s} "
          f"{'ratio (base)':>24s} {'runs':>7s}  verdict")
    moved: set[str] = set()
    for entry in spec["workloads"]:
        workload = entry["name"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = base_e2e.get(workload, {}).get(name)
            change = change_e2e.get(workload, {}).get(name)
            if not base or not change:
                continue
            b, c = statistics.median(base), statistics.median(change)
            word = verdict(base, change, metric["better"], metric["bound"])
            if word != "within bound":
                moved.add(workload)
            ratio = c / b if b else float("nan")
            print(f"{workload:15s} {name:22s} {b:12.6g} {c:12.6g} "
                  f"{ratio:9.4f} (base {b:.4g}{metric['unit']:>4s}) "
                  f"{len(base):3d}/{len(change):<3d}  {word}")
    for workload in sorted(moved):
        base = base_layers.get(workload)
        change = change_layers.get(workload)
        if not base or not change:
            print(f"\n{workload}: no traced run on both sides; rerun with "
                  f"repeat.py --trace to see which layer moved")
            continue
        rows = []
        for name in base:
            if name not in change:
                continue
            b = statistics.median(base[name])
            c = statistics.median(change[name])
            if b:
                rows.append((abs(c - b) / abs(b), name, b, c))
        print(f"\n{workload}: per-layer metrics, largest relative change "
              f"first")
        for _, name, b, c in sorted(rows, reverse=True)[:12]:
            print(f"  {name:40s} {b:12.6g} -> {c:12.6g}  "
                  f"{c / b:7.4f} (base {b:.4g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
