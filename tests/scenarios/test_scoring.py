"""Scored benchmarks + the planted-mutant sanity check.

The mutation check (issue satellite): a planted always-sample sampler
must score ~zero detection delay at maximal probe cost, and a planted
never-sample sampler must breach the mis-detection invariant — if either
mutant slips through, the scorer (not the sampler) is broken.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.scenarios import (build_bench, canned_timeline, compile_timeline,
                             render_report, score_scenario, simulate_replay)


@pytest.fixture(scope="module")
def compiled():
    timeline = canned_timeline("entropy-flood").scaled(fleet=0.05,
                                                       horizon=0.5)
    return compile_timeline(timeline, seed=7)


def test_always_sampler_scores_zero_delay_max_cost(compiled):
    report = score_scenario(compiled, simulate_replay(compiled,
                                                      mode="always"))
    det, mis, cost = (report["detection"], report["misdetection"],
                      report["cost"])
    assert det["windows_missed"] == 0
    assert det["mean_delay_steps"] == 0.0
    assert det["max_delay_steps"] == 0
    assert mis["rate"] == 0.0
    assert mis["within_err"] is True
    assert cost["sampling_ratio"] == 1.0
    assert cost["cost_saving"] == 0.0
    assert report["passed"] is True


def test_never_sampler_breaches_misdetection_invariant(compiled):
    report = score_scenario(compiled, simulate_replay(compiled,
                                                      mode="never"))
    mis = report["misdetection"]
    assert mis["detected_points"] == 0
    assert mis["rate"] == 1.0
    assert mis["within_err"] is False
    assert report["detection"]["windows_missed"] > 0
    assert report["cost"]["sampling_ratio"] == 0.0
    assert report["passed"] is False


def test_volley_sampler_between_the_mutants(compiled):
    report = score_scenario(compiled, simulate_replay(compiled,
                                                      mode="volley"))
    assert report["misdetection"]["within_err"] is True
    assert report["detection"]["windows_missed"] == 0
    # Adaptive sampling must actually skip probes during calm phases.
    assert 0.0 < report["cost"]["sampling_ratio"] < 1.0
    assert report["cost"]["cost_saving"] > 0.0
    assert report["passed"] is True


def test_a_lost_chunk_is_neither_truth_nor_detection(compiled):
    """A lossy replay drops whole chunks at the wire, and no sampler saw
    their points: an always-sampler that lost the chunk of the first
    violating step still scores zero mis-detection and zero delay, and
    the report counts the violating points it left out. Scored as if
    delivered, the same replay breaches."""
    whole = simulate_replay(compiled, mode="always")
    full = score_scenario(compiled, whole)
    n_tasks = compiled.values.shape[1]
    truths = [compiled.truth_indices(t) for t in range(n_tasks)]
    step = min(int(truth[0]) for truth in truths if truth.size)
    violating = sum(int(step in truth) for truth in truths)
    naive = dataclasses.replace(whole, alert_steps=[
        [at for at in steps if at != step] for steps in whole.alert_steps])
    lossy = dataclasses.replace(
        naive, undelivered=[(t, step) for t in range(n_tasks)])
    assert lossy.lost_updates == n_tasks
    assert score_scenario(compiled, naive)["misdetection"]["rate"] > 0.0
    report = score_scenario(compiled, lossy)
    mis = report["misdetection"]
    assert mis["rate"] == 0.0 and report["passed"] is True
    assert report["detection"]["max_delay_steps"] == 0
    assert mis["undelivered_points"] == violating > 0
    assert mis["truth_points"] == \
        full["misdetection"]["truth_points"] - violating
    assert report["truth"] == full["truth"]
    assert report["runtime"]["lost_updates"] == n_tasks
    assert "undelivered_points" not in full["misdetection"]


def test_skewed_stamps_score_at_the_grid_step_that_sent_them(compiled):
    """A clock-skew fault stamps an update off its grid step, and the
    server alerts at the stamp. Every update of an always-sampler sent
    1 000 steps late scores as the unskewed replay once its alerts are
    mapped back; scored at the stamps, every alert is a false alarm and
    every point a miss. Where two of a task's updates carry one stamp,
    the alert at it belongs to the first sent."""
    whole = simulate_replay(compiled, mode="always")
    full = score_scenario(compiled, whole)
    n_steps, n_tasks = compiled.values.shape
    late = dataclasses.replace(
        whole,
        alert_steps=[[at + 1000 for at in steps]
                     for steps in whole.alert_steps],
        skewed=[(t, step, step + 1000) for step in range(n_steps)
                for t in range(n_tasks)])
    assert score_scenario(compiled, late) == full
    naive = score_scenario(compiled, dataclasses.replace(late, skewed=[]))
    assert naive["misdetection"]["detected_points"] == 0
    assert naive["false_alarms"]["alerts_outside_windows"] == sum(
        map(len, whole.alert_steps))

    # Step `first`, a window's first crossing, went out stamped
    # `first + 1`, as step `first + 1` did after it: the server alerted
    # once at that stamp, for `first`, and refused the second. Both
    # points violate; only `first` is detected, with no delay.
    t, first = next(
        (t, int(crossed[0])) for t in range(n_tasks)
        for start, end in compiled.windows_for(t)
        for truth in [compiled.truth_indices(t)]
        for crossed in [truth[(truth >= start) & (truth < end)]]
        if crossed.size > 1 and crossed[1] == crossed[0] + 1)
    shared = dataclasses.replace(
        whole,
        alert_steps=[[at for at in steps if at != first] if i == t
                     else steps for i, steps in enumerate(whole.alert_steps)],
        skewed=[(t, first, first + 1)])
    report = score_scenario(compiled, shared)
    assert (report["misdetection"]["detected_points"]
            == full["misdetection"]["detected_points"] - 1)
    assert report["detection"]["max_delay_steps"] == 0
    assert score_scenario(compiled, dataclasses.replace(
        shared, skewed=[]))["detection"]["max_delay_steps"] == 1


def test_report_is_canonical_and_stable(compiled):
    a = score_scenario(compiled, simulate_replay(compiled, mode="volley"))
    b = score_scenario(compiled, simulate_replay(compiled, mode="volley"))
    assert render_report(a) == render_report(b)
    # Canonical form: sorted keys, trailing newline, round-trips.
    text = render_report(a)
    assert text.endswith("\n")
    assert json.loads(text) == a


def test_build_bench_totals_and_gate(compiled):
    good = score_scenario(compiled, simulate_replay(compiled, mode="always"))
    bad = score_scenario(compiled, simulate_replay(compiled, mode="never"))
    bench = build_bench([good, bad], {"seed": 7, "mode": "offline"})
    totals = bench["totals"]
    assert totals["scenarios"] == 2
    assert totals["passed"] == 1
    assert totals["failed"] == 1
    assert bench["passed"] is False
    only_good = build_bench([good], {"seed": 7, "mode": "offline"})
    assert only_good["passed"] is True
