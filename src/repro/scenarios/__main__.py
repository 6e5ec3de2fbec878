"""Scenario CLI: ``python -m repro.scenarios run --all --seed 7``.

Subcommands:

* ``list`` — the canned catalogue with fleet/horizon/incident counts.
* ``show NAME`` — one timeline's full declarative form as JSON.
* ``run`` — compile, replay (live server by default) and score one or
  more scenarios; writes ``BENCH_scenarios.json`` and exits non-zero if
  any scenario misses a ground-truth window or breaches its error
  allowance.

The report is a pure function of ``(scenario set, seed, scale factors,
fault layer)`` — running the same command twice produces byte-identical
output, which the CI ``scenarios`` job asserts with a plain ``cmp``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Any

from repro.exceptions import ConfigurationError
from repro.scenarios.catalog import CANNED, canned_timeline
from repro.scenarios.compiler import compile_timeline
from repro.scenarios.replay import replay_scenario, simulate_replay
from repro.scenarios.scoring import build_bench, render_report, \
    score_scenario
from repro.testkit.scenarios import SCENARIOS as FAULT_SCENARIOS

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Compile, replay and score declarative incident "
                    "timelines against the live monitoring runtime.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the canned scenario catalogue")

    show = sub.add_parser("show", help="print one timeline as JSON")
    show.add_argument("name", choices=sorted(CANNED))

    run = sub.add_parser("run", help="replay and score scenarios")
    run.add_argument("--scenario", action="append", default=None,
                     choices=sorted(CANNED), metavar="NAME",
                     help="scenario to run (repeatable)")
    run.add_argument("--all", action="store_true",
                     help="run every canned scenario")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--fleet-scale", type=float, default=1.0,
                     help="fleet-size multiplier (CI uses < 1)")
    run.add_argument("--horizon-scale", type=float, default=1.0,
                     help="phase-duration multiplier (CI uses < 1)")
    run.add_argument("--shards", type=int, default=4)
    run.add_argument("--offline", action="store_true",
                     help="drive the in-process service instead of a "
                          "live server")
    run.add_argument("--faults", default=None,
                     choices=sorted(FAULT_SCENARIOS),
                     help="layer a testkit chaos fault spec onto the "
                          "replay")
    run.add_argument("--cluster-workers", type=int, default=0,
                     help="replay through the multi-process cluster "
                          "runtime with this many workers (0 = "
                          "single-process server)")
    run.add_argument("--cluster-backend", default="subprocess",
                     choices=("inproc", "subprocess"),
                     help="cluster transport backend for "
                          "--cluster-workers")
    run.add_argument("--out", type=pathlib.Path,
                     default=pathlib.Path("BENCH_scenarios.json"))
    return parser


def _cmd_list() -> int:
    for name in sorted(CANNED):
        timeline = canned_timeline(name)
        windows = sum(len(ph.truth) for ph in timeline.phases)
        print(f"{name:22s} tasks={timeline.tasks:4d} "
              f"horizon={timeline.horizon:4d} phases={len(timeline.phases)} "
              f"declared-incidents={windows}  {timeline.description}")
    return 0


def _cmd_show(name: str) -> int:
    doc = canned_timeline(name).to_dict()
    print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names = sorted(CANNED) if args.all else sorted(set(args.scenario or ()))
    if not names:
        print("nothing to run: pass --all or --scenario NAME",
              file=sys.stderr)
        return 2
    fault_spec = (FAULT_SCENARIOS[args.faults]
                  if args.faults is not None else None)
    if args.cluster_workers and args.offline:
        print("--cluster-workers needs a live replay; drop --offline",
              file=sys.stderr)
        return 2

    reports: list[dict[str, Any]] = []
    for name in names:
        timeline = canned_timeline(name)
        if args.fleet_scale != 1.0 or args.horizon_scale != 1.0:
            timeline = timeline.scaled(fleet=args.fleet_scale,
                                       horizon=args.horizon_scale)
        compiled = compile_timeline(timeline, args.seed)
        if args.offline:
            result = simulate_replay(compiled, mode="volley")
        else:
            result = replay_scenario(
                compiled, shards=args.shards, fault_spec=fault_spec,
                cluster_workers=args.cluster_workers,
                cluster_backend=args.cluster_backend)
        report = score_scenario(compiled, result)
        reports.append(report)
        det = report["detection"]
        mis = report["misdetection"]
        cost = report["cost"]
        print(f"[scenarios] {name}: "
              f"windows {det['windows_detected']}/{det['windows_scoreable']}"
              f" detected (mean delay {det['mean_delay_steps']} steps), "
              f"misdetection {mis['rate']:.4f} vs err {mis['err']} "
              f"({'ok' if mis['within_err'] else 'BREACH'}), "
              f"cost saving {cost['cost_saving']:.3f} -> "
              f"{'pass' if report['passed'] else 'FAIL'}", flush=True)

    bench = build_bench(reports, {
        "seed": args.seed,
        "fleet_scale": args.fleet_scale,
        "horizon_scale": args.horizon_scale,
        "shards": args.shards,
        "mode": "offline" if args.offline else "live",
        "faults": args.faults,
        "cluster_workers": args.cluster_workers,
    })
    args.out.write_text(render_report(bench), encoding="utf-8")
    totals = bench["totals"]
    print(f"[scenarios] {totals['passed']}/{totals['scenarios']} scenarios "
          f"passed; mean misdetection {totals['mean_misdetection']:.4f}; "
          f"mean cost saving {totals['mean_cost_saving']:.3f} -> "
          f"{args.out}", flush=True)
    return 0 if bench["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "show":
            return _cmd_show(args.name)
        return _cmd_run(args)
    except ConfigurationError as exc:
        print(f"[scenarios] error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Normal pipeline teardown (e.g. `show NAME | head`): point
        # stdout at devnull so interpreter exit doesn't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
