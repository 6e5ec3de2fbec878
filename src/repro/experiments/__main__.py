"""Command-line driver: ``python -m repro.experiments <figure> [...]``.

Regenerates the paper's evaluation figures as text tables::

    python -m repro.experiments fig5a
    python -m repro.experiments fig6
    python -m repro.experiments all
    python -m repro.experiments all --csv results/   # also dump CSVs

Extension experiments (not paper figures) are available by name::

    python -m repro.experiments monetary
    python -m repro.experiments delay
    python -m repro.experiments multitask
    python -m repro.experiments reliability

Scale with ``REPRO_SCALE=4 python -m repro.experiments fig5a`` to approach
the paper's testbed size. Each figure runs in this process and is a pure
function of ``--seed`` and the scale; the CLI prints its wall time after
its table.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.exceptions import ReproError
from repro.experiments.delay import detection_delay_experiment
from repro.experiments.figures import (fig5, fig6, fig7, fig7_report, fig8,
                                       scale_factor)
from repro.experiments.monetary import monetary_analysis
from repro.experiments.multitask import multitask_experiment
from repro.experiments.reliability import reliability_experiment
from repro.experiments.reporting import to_csv

FIGURES = ("fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8")
EXTENSIONS = ("monetary", "delay", "multitask", "reliability")
#: convenience spellings accepted by the CLI
ALIASES = {"fig5": "fig5a"}


def run_figure(name: str, seed: int, *, streams: int | None = None,
               horizon: int | None = None) -> tuple[str, object]:
    """Run one driver; returns ``(text report, result object)``.

    ``streams`` / ``horizon`` override the scale-derived sweep sizes
    where the figure has such axes (streams also maps to fig8's monitor
    count); extension experiments take only the seed.
    """
    name = ALIASES.get(name, name)
    if name == "fig5a":
        result = fig5("network", num_streams=streams, horizon=horizon,
                      seed=seed)
        return result.report(), result
    if name == "fig5b":
        result = fig5("system", num_streams=streams, horizon=horizon,
                      seed=seed)
        return result.report(), result
    if name == "fig5c":
        result = fig5("application", num_streams=streams, horizon=horizon,
                      seed=seed)
        return result.report(), result
    if name == "fig6":
        result = fig6(horizon=horizon, seed=seed)
        return result.report(), result
    if name == "fig7":
        result = fig7(num_streams=streams, horizon=horizon, seed=seed)
        return fig7_report(result), result
    if name == "fig8":
        result = fig8(num_monitors=streams, horizon=horizon, seed=seed)
        return result.report(), result
    if name == "monetary":
        result = monetary_analysis(seed=seed)
        return result.report(), result
    if name == "delay":
        result = detection_delay_experiment(seed=seed)
        return result.report(), result
    if name == "multitask":
        result = multitask_experiment(seed=seed)
        return result.report(), result
    if name == "reliability":
        result = reliability_experiment(seed=seed)
        return result.report(), result
    raise ValueError(f"unknown figure {name!r}")


def write_csv(directory: pathlib.Path, name: str, result: object) -> None:
    """Dump a figure result's rows as ``<name>.csv`` under ``directory``."""
    to_rows = getattr(result, "to_rows", None)
    if to_rows is None:
        return
    headers, rows = to_rows()
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.csv").write_text(to_csv(headers, rows))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Volley paper's evaluation figures "
                    "and the extension experiments.")
    parser.add_argument("figure",
                        choices=FIGURES + EXTENSIONS + ("all",)
                        + tuple(ALIASES),
                        help="which figure/experiment to regenerate "
                             "('all' = the paper's six figures; 'fig5' "
                             "is an alias for fig5a)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--csv", type=pathlib.Path, default=None,
                        metavar="DIR",
                        help="also write each figure's data as CSV into "
                             "this directory (figures only)")
    parser.add_argument("--streams", type=int, default=None, metavar="N",
                        help="override the stream/monitor count of "
                             "fig5*/fig7/fig8 sweeps")
    parser.add_argument("--horizon", type=int, default=None, metavar="N",
                        help="override the per-stream horizon of figure "
                             "sweeps")
    args = parser.parse_args(argv)
    try:
        _run(args)
    except ReproError as exc:
        print(f"[repro.experiments] error: {exc}", file=sys.stderr)
        return 1
    return 0


def _run(args: argparse.Namespace) -> None:
    """Run the figures ``args`` names, printing each table and its wall."""
    names = FIGURES if args.figure == "all" else (args.figure,)
    print(f"[repro] scale factor: {scale_factor():g} "
          f"(set REPRO_SCALE to change)")
    for name in names:
        started = time.perf_counter()
        text, result = run_figure(name, args.seed, streams=args.streams,
                                  horizon=args.horizon)
        wall = time.perf_counter() - started
        print()
        print(text)
        print(f"[repro] {name}: wall {wall:.2f} s")
        if args.csv is not None:
            write_csv(args.csv, ALIASES.get(name, name), result)
            csv_name = ALIASES.get(name, name)
            if (args.csv / f"{csv_name}.csv").exists():
                print(f"[repro] wrote {args.csv / (csv_name + '.csv')}")


if __name__ == "__main__":
    sys.exit(main())
