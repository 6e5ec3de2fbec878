"""Scenario CLI: a fault layer the replay cannot run is one error line
before any replay, and a lossy wire runs every scenario to its report."""

from __future__ import annotations

import json

import pytest

import repro.scenarios.__main__ as cli
import repro.scenarios.replay as replay
from repro.scenarios import CANNED


@pytest.mark.parametrize("extra", [
    ["--faults", "crashy"],
    ["--faults", "corrupt-checkpoint"],
    ["--faults", "flaky-network", "--cluster-workers", "2"],
], ids=["crashy", "corrupt-checkpoint", "faults-on-a-cluster"])
def test_an_unrunnable_fault_layer_is_refused_before_any_replay(
        tmp_path, capsys, monkeypatch, extra):
    replays = []
    monkeypatch.setattr(replay, "_replay",
                        lambda *args: replays.append(args))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--all", "--out", str(out), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("[scenarios] error: ")
    assert captured.err.count("\n") == 1
    assert not replays and not out.exists()


def test_a_lossy_wire_runs_every_scenario_to_its_report(tmp_path, capsys):
    # ddos-trigger reads its fleet's samples at each phase boundary, in
    # the middle of the faulted stream: those readings must not die of a
    # dropped frame.
    out = tmp_path / "report.json"
    code = cli.main(["run", "--all", "--seed", "7", "--fleet-scale", "0.25",
                     "--horizon-scale", "0.5", "--faults", "flaky-network",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"[scenarios] {name}" for name in sorted(CANNED)]
    report = json.loads(out.read_text())
    assert code == (0 if report["passed"] else 1)
    assert report["faults"] == "flaky-network"
    assert [entry["scenario"] for entry in report["scenarios"]] == sorted(
        CANNED)
    trigger = report["scenarios"][sorted(CANNED).index("ddos-trigger")]
    assert trigger["runtime"]["injected"]["frames_dropped"] > 0
