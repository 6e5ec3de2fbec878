"""Tests for the CLI entry point."""

from __future__ import annotations

import re

import pytest

from repro.experiments.__main__ import (ALIASES, EXTENSIONS, FIGURES, main,
                                        run_figure, write_csv)
from repro.experiments.figures import fig6


def test_figures_list_complete():
    assert FIGURES == ("fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8")
    assert EXTENSIONS == ("monetary", "delay", "multitask", "reliability")
    assert ALIASES == {"fig5": "fig5a"}


def test_extension_experiments_run():
    text, result = run_figure("monetary", seed=0)
    assert "Monetary cost" in text
    assert result.saving > 0


def test_unknown_figure_rejected():
    with pytest.raises(ValueError):
        run_figure("fig99", seed=0)


def test_main_runs_one_figure(monkeypatch, capsys):
    # Shrink the driver so the CLI test stays fast.
    import repro.experiments.__main__ as cli

    def tiny(name, seed, **kwargs):
        assert name == "fig6"
        return "TINY-REPORT", object()

    monkeypatch.setattr(cli, "run_figure", tiny)
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "TINY-REPORT" in out
    assert "scale factor" in out


def test_main_forwards_seed_streams_and_horizon(monkeypatch, capsys):
    import repro.experiments.__main__ as cli

    seen = {}

    def tiny(name, seed, *, streams, horizon):
        seen.update(name=name, seed=seed, streams=streams, horizon=horizon)
        return "TINY-REPORT", object()

    monkeypatch.setattr(cli, "run_figure", tiny)
    assert main(["fig5", "--seed", "7", "--streams", "2",
                 "--horizon", "500"]) == 0
    assert seen == {"name": "fig5", "seed": 7, "streams": 2, "horizon": 500}


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--no-cache"],
                                  ["--cache-dir", "somewhere"]],
                         ids=["workers", "no-cache", "cache-dir"])
def test_main_refuses_the_removed_sweep_flags(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig6", *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_prints_a_wall_line_per_figure(monkeypatch, capsys):
    import repro.experiments.__main__ as cli

    monkeypatch.setattr(cli, "run_figure",
                        lambda name, seed, **kwargs: ("R", object()))
    assert main(["all"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert re.search(rf"^\[repro\] {name}: wall \d+\.\d\d s$", out,
                         re.MULTILINE), name
    assert "[sweep]" not in out


@pytest.mark.parametrize("raw", ["nan", "inf", "abc"])
def test_main_turns_a_bad_scale_into_one_error_line(monkeypatch, capsys,
                                                    raw):
    monkeypatch.setenv("REPRO_SCALE", raw)
    assert main(["fig6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"[repro.experiments] error: bad REPRO_SCALE "
                          f"{raw!r}")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_fig5_alias_runs_network_panel(monkeypatch):
    import repro.experiments.__main__ as cli

    calls = {}

    def tiny_fig5(domain, **kwargs):
        calls["domain"] = domain
        return cli.fig6(error_allowances=(0.032,), num_servers=1,
                        vms_per_server=2, horizon=200)

    monkeypatch.setattr(cli, "fig5", tiny_fig5)
    run_figure("fig5", seed=0)
    assert calls["domain"] == "network"


def test_main_writes_csv(monkeypatch, capsys, tmp_path):
    import repro.experiments.__main__ as cli

    result = fig6(error_allowances=(0.0, 0.032), num_servers=1,
                  vms_per_server=2, horizon=200)
    monkeypatch.setattr(cli, "run_figure",
                        lambda name, seed, **kwargs: ("R", result))
    assert main(["fig6", "--csv", str(tmp_path)]) == 0
    csv_file = tmp_path / "fig6.csv"
    assert csv_file.exists()
    content = csv_file.read_text()
    assert content.startswith("error_allowance,")
    assert len(content.splitlines()) == 3  # header + 2 allowances


def test_write_csv_creates_directories(tmp_path):
    result = fig6(error_allowances=(0.032,), num_servers=1,
                  vms_per_server=2, horizon=200)
    target = tmp_path / "nested" / "dir"
    write_csv(target, "fig6", result)
    assert (target / "fig6.csv").exists()


def test_main_bad_choice():
    with pytest.raises(SystemExit):
        main(["not-a-figure"])
