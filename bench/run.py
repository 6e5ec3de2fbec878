#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace 0|1] [--scale F] [--out FILE]

With ``--workload`` it measures that workload in this process and prints,
as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1`` (the traced run also writes its spans to
``bench/results/trace-<workload>.json``). Without ``--workload`` it runs
every workload, each in a fresh process, and prints every metric by name
with its unit.

The work is fixed, not timed: ``--seconds`` (default ``run_seconds``
from ``BENCHMARK.json``) scales the fixed frame count so that the drive
takes about that long at reference speed; ``--scale`` multiplies it
further (the smoke test uses 0.02). The exit code is non-zero when any
output check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_product() -> None:
    """Make ``repro`` (this checkout's ``src/``) and the benchmark's own
    modules importable; fail loudly when the product is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no product to measure: {src}/repro is "
                 f"missing")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    _import_product()
    from calibrate import Calibrator
    from e2e import pin_to_one_cpu, run_e2e
    from workloads import by_name

    workload = by_name(args.workload)
    scale = args.scale * args.seconds / spec["run_seconds"]
    cpu = pin_to_one_cpu()
    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
    try:
        with Calibrator() as calibrator:
            if args.trace:
                from layers import run_traced
                result = asyncio.run(run_traced(
                    workload, args.seed, scale, workdir, calibrator,
                    RESULTS_DIR / f"trace-{workload.name}.json"))
            else:
                result = asyncio.run(run_e2e(
                    workload, args.seed, scale, workdir, calibrator))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["cpu"] = cpu
    result["trace"] = bool(args.trace)

    units = _units(spec)
    wanted = [m["name"] for m in
              (spec["per_layer"] if args.trace else spec["end_to_end"])]
    metrics = {**result.get("diagnostics", {}), **result["metrics"]}
    missing = [name for name in wanted if name not in metrics]
    if missing:
        result["correct"] = False
        result["problems"].append(f"metrics not measured: {missing}")
    out = pathlib.Path(args.out) if args.out else (
        RESULTS_DIR / f"latest-{workload.name}"
                      f"{'-trace' if args.trace else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")

    for name in sorted(metrics):
        print(f"{workload.name:15s} {name:40s} "
              f"{metrics[name]:>16.6g} {units.get(name, '')}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted if name in metrics},
    }))
    return 0 if result["correct"] and not result["failed"] else 1


def _run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, each in its own fresh process; ``--out`` then
    names one suite file holding every workload's result."""
    status = 0
    results = {}
    RESULTS_DIR.mkdir(exist_ok=True)
    for entry in spec["workloads"]:
        out = RESULTS_DIR / (f"latest-{entry['name']}"
                             f"{'-trace' if args.trace else ''}.json")
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"),
             "--workload", entry["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale), "--out", str(out)], check=False)
        status = status or done.returncode
        if out.is_file():
            results[entry["name"]] = json.loads(
                out.read_text(encoding="utf-8"))
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps({"workloads": results}, indent=1), encoding="utf-8")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if args.workload is None:
        return _run_all(args, spec)
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
