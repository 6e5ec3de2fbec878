"""Coordination reliability under message loss.

The paper assumes reliable messaging between monitors and coordinators
(NTP-synchronised clocks, SII; its companion work studies reliability
explicitly). This experiment quantifies what that assumption is worth:
on a lossy network a dropped local-violation report means the coordinator
never polls, so a global violation at that instant goes unseen.

The sweep runs the distributed testbed at increasing message-loss rates
against a fleet-wide coordinated anomaly and reports how global-alert
recall degrades — the motivation for the companion work's
reliability-aware coordination, measured on this codebase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datacenter.testbed import TestbedConfig, build_testbed
from repro.exceptions import ConfigurationError
from repro.experiments.reporting import format_table
from repro.workloads.ddos import SynFloodAttack, inject_attacks

__all__ = ["ReliabilityResult", "reliability_experiment"]


@dataclass(frozen=True, slots=True)
class ReliabilityResult:
    """Global-alert recall as a function of message-loss rate.

    Attributes:
        loss_rates: swept message-loss probabilities.
        recalls: fraction of ground-truth global alerts confirmed by a
            poll, per loss rate.
        polls: global polls performed, per loss rate.
        dropped_reports: violation reports lost in transit, per loss rate.
        truth_alerts: ground-truth global alerts (same traces for every
            loss rate).
    """

    loss_rates: tuple[float, ...]
    recalls: tuple[float, ...]
    polls: tuple[int, ...]
    dropped_reports: tuple[int, ...]
    truth_alerts: int

    def report(self) -> str:
        """Text rendering of the degradation curve."""
        rows = [[rate, recall, polls, dropped]
                for rate, recall, polls, dropped
                in zip(self.loss_rates, self.recalls, self.polls,
                       self.dropped_reports)]
        return format_table(
            ["loss-rate", "alert-recall", "polls", "dropped-reports"],
            rows,
            title=(f"Coordination under message loss "
                   f"({self.truth_alerts} ground-truth global alerts)"))


def reliability_experiment(loss_rates: tuple[float, ...] = (
        0.0, 0.05, 0.1, 0.2, 0.4),
        num_servers: int = 2, vms_per_server: int = 4,
        horizon: int = 1200, seed: int = 3) -> ReliabilityResult:
    """Sweep message-loss rates on a flood-carrying distributed testbed.

    One coordinator group; a single-victim SYN flood drives the *global*
    sum over its threshold, so exactly one monitor observes the local
    violation — the coordinator's awareness of every global alert hangs
    on that monitor's report arriving. (A fleet-wide anomaly is reported
    redundantly by every monitor and shrugs off even heavy loss; the
    single-reporter case is where reliability actually binds.) Traces and
    thresholds are identical across loss rates — only the network differs.
    """
    if not loss_rates:
        raise ConfigurationError("need at least one loss rate")
    if any(not 0.0 <= r < 1.0 for r in loss_rates):
        raise ConfigurationError(f"loss rates must be in [0, 1): "
                                 f"{loss_rates}")
    attack = SynFloodAttack(start=int(horizon * 0.7),
                            peak_syn_rate=30_000.0, ramp_steps=8,
                            hold_steps=40, decay_steps=8)

    def hook(vm_id, rho, packets):
        if vm_id != 0:
            return rho, packets
        rho = inject_attacks(rho, [attack])
        packets = packets + attack.profile(packets.size).astype(int)
        return rho, packets

    recalls, polls, dropped = [], [], []
    truth_alerts = 0
    for rate in loss_rates:
        config = TestbedConfig(
            num_servers=num_servers, vms_per_server=vms_per_server,
            servers_per_coordinator=num_servers, horizon_steps=horizon,
            error_allowance=0.01, distributed=True,
            message_loss_rate=rate, seed=seed)
        testbed = build_testbed(config, trace_hook=hook)
        testbed.run()
        group = testbed.group_runs[0]
        truth_alerts = group.truth_alerts
        recalls.append(group.detected_alerts / truth_alerts
                       if truth_alerts else 1.0)
        polls.append(group.global_polls)
        dropped.append(group.dropped_reports)

    return ReliabilityResult(
        loss_rates=tuple(loss_rates),
        recalls=tuple(recalls),
        polls=tuple(polls),
        dropped_reports=tuple(dropped),
        truth_alerts=truth_alerts,
    )
