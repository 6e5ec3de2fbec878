"""Tests for the testbed's coordination traffic accounting."""

from __future__ import annotations

from repro.datacenter.testbed import TestbedConfig, build_testbed


def test_counts_by_kind():
    testbed = build_testbed(TestbedConfig(
        num_servers=2, vms_per_server=3, servers_per_coordinator=1,
        horizon_steps=500, distributed=True, seed=2))
    testbed.run()
    messages = testbed.coordination_messages()
    runs = testbed.group_runs
    polls = sum(run.global_polls for run in runs)
    assert polls > 0
    assert messages == {
        "violation-report": sum(run.local_violations for run in runs),
        "poll-request": 3 * polls,
        "poll-response": 3 * polls,
        "allowance-update": 3 * sum(run.reallocations for run in runs)}
    # The runner's per-task count is reports plus requests and responses.
    assert sum(run.messages for run in runs) == \
        sum(messages.values()) - messages["allowance-update"]
