"""The snapshot format pin: the stream behind it and the answers a
service restored from it must give.

``tests/fixtures/engine_snapshot_v6.json`` pins snapshot version 6:
the snapshot the engine service of :func:`history` reaches, its
fingerprint, its :func:`answers`, and the fingerprint :func:`drive`
reaches on it over :func:`continuation`. ``restore`` reads only the
version ``snapshot`` writes (DESIGN.md S31 "one reader"), so a bump of
``SNAPSHOT_VERSION`` regenerates the pin rather than keeping the old
one: point ``PIN`` at a file named for the version it pins, and
``PYTHONPATH=src python tests/core/snapshot_fixtures.py`` writes it from
the checkout's code. The answers are the stream's, not the format's: a
bump that leaves behaviour alone leaves them as they were.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

from repro.runtime.checkpoint import state_fingerprint

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
PIN = FIXTURES / "engine_snapshot_v6.json"


def continuation(names, frames=150, seed=19):
    """The seeded stream a restored fixture is continued on: shuffled
    frames of ``(name, step, value)`` past any step :func:`history`
    reaches, a third of the tasks repeated one step on, triggers, local
    pairs and windowed tasks swinging across their levels."""
    rng = np.random.default_rng(seed)
    out = []
    for frame in range(frames):
        step = 1400 + 2 * frame
        order = [names[i] for i in rng.permutation(len(names))]
        offers = [(name, step) for name in order]
        offers += [(name, step + 1) for name in order[::3]]
        out.append([(name, at, float(rng.normal(
            (60.0 + 40.0 * ((at // 16) % 2)) if name[0] in "lwt"
            else 90.0, 6.0))) for name, at in offers])
    return out


def drive(service, frames, sink=False):
    """Feed ``frames`` to ``service`` the way its representation takes
    them (column batches by row, or ``offer`` by name); returns its
    snapshot fingerprint. With ``sink`` its edges go on to one that
    drops them; without, no further than the service."""
    if sink:
        service.set_trigger_sink(lambda event: None)
    for frame in frames:
        if service.soa_engine is None:
            for name, step, value in frame:
                service.offer(name, value, step)
        else:
            names, steps, values = zip(*frame)
            applied, _, rejected, _ = service.offer_columns(
                [service.soa_row_for(name) for name in names], steps,
                values, names)
            assert (applied, rejected) == (len(frame), 0)
    return state_fingerprint(service.snapshot())


def answers(service):
    """What the ``task_info``, ``alerts`` and ``trigger_state`` ops
    reply for every task of ``service``, serialised (so NaN compares)."""
    return json.dumps({name: {
        "task_info": {
            "samples_taken": service.samples_taken(name),
            "alerts": service.alert_count(name),
            "interval": service.interval(name),
            "next_due": service.next_due(name),
            "observations": service.observations(name),
            "type": service.task_type(name),
            "estimate": service.task_estimate(name)},
        "alerts": [[a.time_index, a.value, a.threshold]
                   for a in service.alerts(name)],
        "trigger": service.trigger_status(name),
    } for name in service.task_names}, sort_keys=True)


def history(harness):
    """The differential pair whose engine service the pin is a snapshot
    of: six plain tasks and two of every other kind, fed shuffled frames
    with repeated rows and stale steps, by-name offers in between, two
    tasks removed and re-registered (one reached through its stale row
    from then on, one through its fresh one) — stopped with a guard
    disarmed and counting, another armed, a watcher inside its hold, and
    alert history on many tasks."""
    specs = harness.population(6, "mixed")
    pair = harness(specs, kinds="chebyshev")
    rng = np.random.default_rng(23)
    scalar = pair.scalar

    def ready(step):
        guards = [scalar.trigger_status(name) for name in pair.names
                  if name.startswith("guarded")]
        watch = scalar.trigger_status("trigger-1")["watch"]
        return (any(not g["armed"] and g["suspensions"] for g in guards)
                and any(g["armed"] for g in guards)
                and watch["last_transition"] is not None
                and step - watch["last_transition"] < watch["min_hold"])

    for step in range(0, 1200, 2):
        idx = rng.permutation(len(pair.names)).tolist()
        idx += idx[::3]                              # repeated rows ...
        steps = [step] * len(pair.names) + [step + 1] * (len(idx) - len(
            pair.names))
        steps[0] -= 5 * (step % 14 == 0)             # ... and a stale step
        pair.offer(idx, steps, [pair.draw(rng, i, s)
                                for i, s in zip(idx, steps)])
        if step % 10 == 4:
            some = rng.integers(0, len(pair.names), 5).tolist()
            pair.offer_by_name(some, [step + 1] * 5,
                               [pair.draw(rng, i, step + 1) for i in some],
                               fast=bool(step % 20 == 4))
        if step == 120:
            for service in (pair.scalar, pair.vector):
                for i in (1, 2):
                    service.remove_task(pair.names[i])
                    service.add_task(pair.names[i], specs[i][0],
                                     config=specs[i][1])
            pair.rows[2] = pair.vector.soa_row_for(pair.names[2])
        if step > 300 and ready(step + 1):
            break
    assert ready(step + 1)
    pair.check()
    assert sum(bool(pair.vector.alert_count(name))
               for name in pair.names) >= 8
    return pair


def read_pin():
    """The pin's recorded document."""
    return json.loads(PIN.read_text(encoding="utf-8"))


def main():
    """Write the pin from the code in the checkout."""
    sys.path.insert(0, str(FIXTURES.parent))
    from conftest import SoaDifferential
    from repro.service import SNAPSHOT_VERSION, MonitoringService

    snapshot = json.loads(json.dumps(history(SoaDifferential)
                                     .vector.snapshot(),
                                     default=np.ndarray.tolist))
    assert snapshot["version"] == SNAPSHOT_VERSION
    service = MonitoringService.restore(snapshot, soa=True)
    PIN.write_text(json.dumps({
        "written_by": PIN.stem.rsplit("_", 1)[1],
        "fingerprint": state_fingerprint(snapshot),
        "answers": json.loads(answers(service)),
        "continued": drive(service, continuation(service.task_names),
                           sink=True),
        "snapshot": snapshot}, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
