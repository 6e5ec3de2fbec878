"""Virtualized datacenter testbed builder (paper SV-A, Fig. 4).

The paper's testbed: 20 physical servers x 40 VMs = 800 VMs, one monitor
per VM in Dom0, one coordinator per 5 physical servers. The builder
recreates that topology at any scale, wires per-VM traffic streams
(traffic-difference metric + raw packet volumes), and runs either

* **per-VM tasks** — every VM monitored against its own threshold
  (Figs. 5(a) and 6), or
* **distributed tasks** — one task per coordinator group whose global
  state is the sum of its VMs' metrics (SIV, Fig. 8).

Every monitor samples on the default-interval grid, polls and allocation
rounds fall on it too, and coordination messages arrive within the step
they are sent. So the testbed steps engine rows: per-VM mode is one
:func:`~repro.experiments.runner.run_lockstep` over every VM, distributed
mode one batch of every coordinator group through the distributed-task
runner, and each server's Dom0 is charged from the sampled steps of its
VMs after the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.analysis.stats import box_stats
from repro.core.accuracy import RunAccuracy, evaluate_sampling
from repro.core.adaptation import AdaptationConfig
from repro.core.coordination import AllocationPolicy
from repro.core.task import DistributedTaskSpec, TaskSpec
from repro.datacenter.cost import (MonetaryCostModel,
                                   NetworkSamplingCostModel)
from repro.exceptions import ConfigurationError
from repro.experiments.distributed import DistributedRunResult, _run_batch
from repro.experiments.runner import run_lockstep
from repro.simulation.randomness import RandomStreams
from repro.workloads.thresholds import threshold_for_selectivity
from repro.workloads.traffic import (NETWORK_DEFAULT_INTERVAL,
                                     TrafficDifferenceGenerator)

__all__ = ["TestbedConfig", "Testbed", "build_testbed", "TraceHook"]

TraceHook = Callable[[int, "np.ndarray", "np.ndarray"],
                     tuple["np.ndarray", "np.ndarray"]]
"""Per-VM stream transform: ``(vm_id, rho, packets) -> (rho, packets)``."""

PAPER_SCALE = dict(num_servers=20, vms_per_server=40)
"""The paper's full testbed scale (800 VMs)."""


@dataclass(frozen=True, slots=True)
class TestbedConfig:
    """Shape and task parameters of a testbed run.

    Attributes:
        num_servers: physical servers.
        vms_per_server: VMs per server (paper: 40).
        servers_per_coordinator: coordinator span (paper: 5).
        horizon_steps: monitored duration in default intervals.
        default_interval: ``Id`` seconds (network tasks: 15 s).
        error_allowance: per-task error allowance.
        selectivity_percent: alert selectivity ``k`` for thresholds.
        max_interval: ``Im`` in default intervals.
        distributed: build one distributed task per coordinator group
            instead of per-VM tasks.
        message_loss_rate: probability that a local-violation report is
            dropped in transit (0 = the paper's reliable-messaging
            assumption; used by the reliability experiments).
        seed: master seed for all randomness.
    """

    # Not a test case despite the Test* name (pytest collection opt-out).
    __test__: ClassVar[bool] = False

    num_servers: int = 2
    vms_per_server: int = 8
    servers_per_coordinator: int = 5
    horizon_steps: int = 2000
    default_interval: float = NETWORK_DEFAULT_INTERVAL
    error_allowance: float = 0.01
    selectivity_percent: float = 0.4
    max_interval: int = 10
    distributed: bool = False
    message_loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_servers < 1 or self.vms_per_server < 1:
            raise ConfigurationError(
                f"need >= 1 servers and VMs, got {self.num_servers}, "
                f"{self.vms_per_server}")
        if self.servers_per_coordinator < 1:
            raise ConfigurationError(
                "servers_per_coordinator must be >= 1, got "
                f"{self.servers_per_coordinator}")
        if self.horizon_steps < 10:
            raise ConfigurationError(
                f"horizon_steps must be >= 10, got {self.horizon_steps}")
        if not 0.0 <= self.message_loss_rate < 1.0:
            raise ConfigurationError(
                "message_loss_rate must be in [0, 1), got "
                f"{self.message_loss_rate}")

    @property
    def num_vms(self) -> int:
        """Total VMs in the testbed."""
        return self.num_servers * self.vms_per_server

    @property
    def num_coordinators(self) -> int:
        """Coordinators (one per ``servers_per_coordinator`` servers)."""
        return -(-self.num_servers // self.servers_per_coordinator)


class Testbed:
    """A built testbed, ready to run.

    Use :func:`build_testbed` to construct one; then :meth:`run` executes
    the full horizon and the summary accessors report cost and accuracy.

    Attributes:
        config: the testbed's shape and task parameters.
        traces: ``(num_vms, horizon)`` monitored value per VM and step.
        packets: ``(num_vms, horizon)`` packets a sample at that step
            inspects.
        tasks: each VM's task; in distributed mode its group's local
            spec at the even initial share.
        groups: each coordinator group's distributed task (distributed
            mode only); group ``k`` spans the VMs of servers
            ``k * servers_per_coordinator`` onwards.
        sampled: ``(horizon, num_vms)`` mask of the sampling operations,
            forced samples included (all false until :meth:`run`).
        group_runs: each group's run, its global polls kept (filled by
            :meth:`run`).
    """

    # Not a test case despite the Test* name (pytest collection opt-out).
    __test__ = False

    def __init__(self, config: TestbedConfig, traces: np.ndarray,
                 packets: np.ndarray, tasks: list[TaskSpec],
                 groups: list[DistributedTaskSpec],
                 adaptation: AdaptationConfig | None,
                 policy: AllocationPolicy | None,
                 cost_model: NetworkSamplingCostModel):
        self.config = config
        self.traces = traces
        self.packets = packets
        self.tasks = tasks
        self.groups = groups
        self.sampled = np.zeros((config.horizon_steps, config.num_vms),
                                dtype=bool)
        self.group_runs: list[DistributedRunResult] = []
        self._adaptation = adaptation
        self._policy = policy
        self._cost_model = cost_model
        self._dom0_busy = np.zeros((config.num_servers,
                                    config.horizon_steps))
        self._ran = False

    def run(self) -> None:
        """Step every monitor (and coordinator) over the whole horizon,
        then charge each server's Dom0 for its VMs' samples."""
        if self._ran:
            raise ConfigurationError("testbed already ran")
        self._ran = True
        config = self.config
        if not self.groups:
            runs = run_lockstep(list(self.traces), self.tasks,
                                self._adaptation, record_intervals=False)
            for vm, result in enumerate(runs):
                self.sampled[result.sampled_indices, vm] = True
        else:
            span = config.servers_per_coordinator * config.vms_per_server
            loss = (config.message_loss_rate,
                    RandomStreams(config.seed).stream("network-loss"))
            self.group_runs = _run_batch(
                [(self.traces[k * span:(k + 1) * span], spec, self._policy)
                 for k, spec in enumerate(self.groups)],
                self._adaptation, keep_polls=True, loss=loss,
                sampled=self.sampled)
        # Each Dom0 window sums its VMs' sampling costs in VM order.
        for vm in range(config.num_vms):
            steps = np.flatnonzero(self.sampled[:, vm])
            self._dom0_busy[vm // config.vms_per_server, steps] += [
                self._cost_model.cpu_seconds(packets)
                for packets in self.packets[vm, steps].tolist()]

    @property
    def total_samples(self) -> int:
        """Sampling operations across all monitors."""
        return int(np.count_nonzero(self.sampled))

    @property
    def sampling_ratio(self) -> float:
        """Cost relative to periodic default sampling of every VM."""
        return self.total_samples / float(self.sampled.size)

    def dom0_utilization(self) -> np.ndarray:
        """``(num_servers, horizon)`` Dom0 CPU utilisation in percent per
        window (may exceed 100 when oversubscribed — Fig. 6's err=0 case
        saturates Dom0)."""
        return 100.0 * self._dom0_busy / self.config.default_interval

    def dom0_utilization_stats(self) -> list[dict[str, float]]:
        """Per-server Dom0 utilisation box-plot statistics (Fig. 6)."""
        return [box_stats(util) for util in self.dom0_utilization()]

    def monitor_accuracy(self) -> list[RunAccuracy]:
        """Per-monitor accuracy vs. periodic ground truth, against each
        VM's own (local) threshold."""
        return [evaluate_sampling(values, task.threshold,
                                  np.flatnonzero(self.sampled[:, vm]),
                                  task.direction)
                for vm, (values, task) in enumerate(zip(self.traces,
                                                        self.tasks))]

    def coordination_messages(self) -> dict[str, int]:
        """Coordination messages by kind: one report per local violation
        (dropped ones included), a request and a response per monitor per
        poll, and one allowance update per monitor per reallocation."""
        kinds = dict.fromkeys(("violation-report", "poll-request",
                               "poll-response", "allowance-update"), 0)
        for spec, result in zip(self.groups, self.group_runs):
            kinds["violation-report"] += result.local_violations
            kinds["poll-request"] += spec.num_monitors * result.global_polls
            kinds["poll-response"] += spec.num_monitors * result.global_polls
            kinds["allowance-update"] += (spec.num_monitors
                                          * result.reallocations)
        return kinds

    def monetary_bill(self, price_per_sample: float = 1.0e-4,
                      price_per_message: float = 1.0e-6,
                      ) -> MonetaryCostModel:
        """Price the run's sampling and coordination traffic.

        Returns a :class:`MonetaryCostModel` charged with every sampling
        operation and coordination message of the run (pay-as-you-go,
        paper SI).
        """
        bill = MonetaryCostModel(price_per_sample=price_per_sample,
                                 price_per_message=price_per_message)
        bill.charge_sample(self.total_samples)
        bill.charge_message(sum(self.coordination_messages().values()))
        return bill


def build_testbed(config: TestbedConfig | None = None,
                  adaptation: AdaptationConfig | None = None,
                  policy: AllocationPolicy | None = None,
                  cost_model: NetworkSamplingCostModel | None = None,
                  trace_hook: "TraceHook | None" = None) -> Testbed:
    """Construct a network-monitoring testbed per the configuration.

    Every VM gets an independent traffic stream (diurnal phase drawn per
    VM so servers see unsynchronised load) and a threshold at the
    ``(100 - k)``-th percentile of its own stream. In distributed mode the
    VMs under one coordinator form a single task whose global threshold is
    the sum of the local ones.

    Args:
        config: testbed shape and task parameters.
        adaptation: monitor-level adaptation tunables.
        policy: allocation policy for distributed mode.
        cost_model: Dom0 CPU cost model.
        trace_hook: optional ``(vm_id, rho, packets) -> (rho, packets)``
            transform applied to each VM's generated stream — the
            injection point for attacks and fault scenarios. Thresholds
            are calibrated on the *clean* stream (as an operator would,
            from historical data), so injected anomalies register as
            violations rather than raising the bar.
    """
    config = config or TestbedConfig()
    streams = RandomStreams(config.seed)
    traces = np.empty((config.num_vms, config.horizon_steps))
    packets = np.empty((config.num_vms, config.horizon_steps),
                       dtype=np.int64)
    thresholds: list[float] = []
    for vm_id in range(config.num_vms):
        rng = streams.stream("vm-traffic", vm_id)
        generator = TrafficDifferenceGenerator(
            phase=float(rng.uniform(0.0, 1.0)))
        rho, volume = generator.generate_with_volume(config.horizon_steps,
                                                     rng)
        thresholds.append(threshold_for_selectivity(
            rho, config.selectivity_percent))
        if trace_hook is not None:
            rho, volume = trace_hook(vm_id, rho, volume)
        traces[vm_id], packets[vm_id] = rho, volume

    tasks: list[TaskSpec] = []
    groups: list[DistributedTaskSpec] = []
    if not config.distributed:
        tasks = [TaskSpec(threshold=threshold,
                          error_allowance=config.error_allowance,
                          default_interval=config.default_interval,
                          max_interval=config.max_interval,
                          name=f"net/vm-{vm_id}")
                 for vm_id, threshold in enumerate(thresholds)]
    else:
        span = config.servers_per_coordinator * config.vms_per_server
        for k, start in enumerate(range(0, config.num_vms, span)):
            local = tuple(thresholds[start:start + span])
            spec = DistributedTaskSpec(
                global_threshold=float(sum(local)),
                local_thresholds=local,
                error_allowance=config.error_allowance,
                default_interval=config.default_interval,
                max_interval=config.max_interval,
                name=f"net/group-{k}")
            groups.append(spec)
            tasks += [spec.local_spec(slot, config.error_allowance
                                      / spec.num_monitors)
                      for slot in range(spec.num_monitors)]
    return Testbed(config, traces, packets, tasks, groups, adaptation,
                   policy, cost_model or NetworkSamplingCostModel())
