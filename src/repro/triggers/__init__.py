"""Live cross-shard correlated monitoring (paper SII-A at runtime scale).

The offline machinery in :mod:`repro.core.correlation` — detector and
planner — answers "*which* cheap metric is a necessary condition of
*which* expensive violation". This package promotes the answer to a
production feature (DESIGN.md S32):

* :class:`~repro.triggers.miner.CorrelationMiner` consumes per-task
  metric streams (or decision-trace events) online, maintains bounded
  aligned histories, scores candidate (trigger, target) pairs with the
  batch :class:`~repro.core.correlation.CorrelationDetector`, and feeds
  the :class:`~repro.core.correlation.CorrelationPlanner` under a
  per-task accuracy-loss budget — with plan hysteresis so an installed
  rule is kept until its evidence genuinely decays, not re-derived (and
  re-levelled) on every call.
* :class:`~repro.triggers.channel.TriggerWatcher` turns the trigger
  task's raw value stream into clean arm/disarm *edges*: arm at the
  elevation level, disarm only below a hysteresis band, with a minimum
  hold between transitions — the events the coordinator trigger channel
  ships across shards and workers.
* :class:`~repro.triggers.plan.TriggerPlan` is the wire- and
  checkpoint-serializable description of one installed guard.

The shard hosts and the cluster coordinator route the edges:
``trigger_install`` wires a plan across shards, a watcher on the trigger
task's shard emits edges, and the channel arms or disarms the target
task's sampler wherever its shard currently lives — its own service,
its host, or, on another worker, the coordinator's pump — surviving live
migration and worker failover because both the armed flag and the
watcher state ride the ordinary typed checkpoint state.
"""

from repro.triggers.channel import TriggerWatcher
from repro.triggers.miner import CorrelationMiner
from repro.triggers.plan import TriggerPlan

__all__ = ["CorrelationMiner", "TriggerPlan", "TriggerWatcher"]
