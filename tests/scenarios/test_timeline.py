"""Timeline model: fail-closed validation, JSON form, scaling."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import (CANNED, Overlay, Phase, ThresholdSpec,
                             Timeline, TriggerLink, TruthWindow,
                             WorkloadLayer, canned_timeline)


def _mini(**kwargs) -> Timeline:
    base = dict(
        name="mini", description="", tasks=8,
        base=WorkloadLayer("ar1", {"mean": 10.0, "sigma": 0.5}),
        phases=(Phase("a", 20),
                Phase("b", 30, overlays=(
                    Overlay("step", peak=50.0, start=5, length=10),),
                      truth=(TruthWindow(start=5, length=10),))),
        threshold=ThresholdSpec("absolute", 30.0))
    base.update(kwargs)
    return Timeline(**base)


def test_horizon_and_spans_partition():
    tl = _mini()
    spans = tl.phase_spans()
    assert tl.horizon == 50
    assert (spans[0].start, spans[0].end) == (0, 20)
    assert (spans[1].start, spans[1].end) == (20, 50)


def test_roundtrip_to_from_dict():
    # ``to_dict`` is plain JSON data: it comes back from JSON unchanged.
    entry = _mini().to_dict()
    assert json.loads(json.dumps(entry)) == entry


def test_canned_catalogue_roundtrips():
    for name in CANNED:
        tl = canned_timeline(name)
        entry = tl.to_dict()
        assert json.loads(json.dumps(entry)) == entry
        assert tl.name == name


@pytest.mark.parametrize("task_type, task_params", [
    ("histogram", {}),
    # A key another type takes, or none does.
    ("value", {"quantile": 0.9}),
    ("quantile", {"quantile": 0.9, "bin_width": 2.0}),
    ("quantile", {"quantile": 0.9, "window": 4}),
    ("entropy", {"sketch_window": 32}),
    ("entropy", {"aggregate": "mean"}),
    ("entropy", {"colour": "blue"}),
    # A quantile task without its quantile.
    ("quantile", {"sketch_window": 32}),
    # The replay feeds raw values: a value timeline takes no window.
    ("value", {"window": 4}),
])
def test_typed_params_on_the_wrong_task_type_are_refused(task_type,
                                                         task_params):
    with pytest.raises(ConfigurationError):
        _mini(task_type=task_type, task_params=task_params)


@pytest.mark.parametrize("bad, message", [
    (dict(suspend_interval=1), "suspend_interval must be >= 2, got 1"),
    (dict(hysteresis=1.0), r"hysteresis must be in \[0, 1\), got 1.0"),
    (dict(min_hold=-1), "min_hold must be >= 0, got -1"),
    (dict(elevation_quantile=1.0), "elevation_quantile"),
    (dict(targets=(0,)), "cannot guard itself"),
])
def test_trigger_link_refuses_what_a_plan_refuses(bad, message):
    with pytest.raises(ConfigurationError, match=message):
        TriggerLink(trigger=0, **bad)


@pytest.mark.parametrize("bad", [
    dict(tasks=0),
    dict(err=0.0),
    dict(err=1.0),
    dict(max_interval=0),
    dict(direction="sideways"),
    dict(phases=()),
])
def test_timeline_validation_fails_closed(bad):
    with pytest.raises(ConfigurationError):
        _mini(**bad)


def test_duplicate_phase_names_rejected():
    with pytest.raises(ConfigurationError):
        _mini(phases=(Phase("a", 10), Phase("a", 10)))


def test_overlay_footprint_must_fit_phase():
    with pytest.raises(ConfigurationError):
        Phase("p", 20, overlays=(Overlay("step", peak=1.0, start=15,
                                         length=10),))
    with pytest.raises(ConfigurationError):
        Phase("p", 20, overlays=(Overlay("step", peak=1.0, start=0,
                                         length=15, spread=10),))


def test_truth_window_must_fit_phase():
    with pytest.raises(ConfigurationError):
        Phase("p", 20, truth=(TruthWindow(start=15, length=10),))
    with pytest.raises(ConfigurationError):
        Phase("p", 20, truth=(TruthWindow(start=0, length=15, spread=10),))


def test_overlay_spread_requires_explicit_length():
    with pytest.raises(ConfigurationError):
        Overlay("step", peak=1.0, spread=3)


def test_unknown_overlay_kind_rejected():
    with pytest.raises(ConfigurationError):
        Overlay("teleport", peak=1.0)


def test_threshold_spec_validation():
    with pytest.raises(ConfigurationError):
        ThresholdSpec("percentile", 1.0)
    with pytest.raises(ConfigurationError):
        ThresholdSpec("selectivity", 0.0)


def test_scaled_preserves_validity_and_identity():
    for name in CANNED:
        tl = canned_timeline(name)
        assert tl.scaled(1.0, 1.0) == tl
        small = tl.scaled(fleet=0.1, horizon=0.25)
        assert small.tasks >= 4
        assert small.horizon == sum(ph.duration for ph in small.phases)


def test_onset_offset_covers_spread_exactly():
    assert Timeline.onset_offset(60, 0, 10) == 0
    assert Timeline.onset_offset(60, 9, 10) == 60
    assert Timeline.onset_offset(0, 5, 10) == 0
    assert Timeline.onset_offset(60, 0, 1) == 0


def test_covered_bounds():
    tl = _mini(tasks=10)
    assert tl.covered(1.0) == 10
    assert tl.covered(0.05) == 1
    assert tl.covered(0.5) == 5
