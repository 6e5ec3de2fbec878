"""Deterministic chaos harness for the reproduction (DESIGN.md S28).

Three layers:

* :mod:`repro.testkit.faults` — ``(seed, spec)``-compiled fault plans and
  the :class:`~repro.testkit.faults.FaultHook` seams the runtime exposes;
* :mod:`repro.testkit.invariants` — machine-checked paper invariants
  (allowance conservation, mis-detection bound, bit-identical restore,
  no ACKed offer lost);
* :mod:`repro.testkit.scenarios` — the scenario matrix driving the live
  runtime under injected faults, plus the ``python -m repro.testkit``
  CLI that writes JSON conformance reports.

This package deliberately re-exports only ``faults`` and ``invariants``:
the runtime imports the hook interface from here, and ``scenarios``
imports the runtime — importing it eagerly would create a cycle. Reach
scenarios via ``repro.testkit.scenarios`` (the CLI does).
"""

from repro.testkit.faults import (FaultHook, FaultPlan, FaultSpec,
                                  InjectedFault, NOOP_HOOK, PlanFaultHook,
                                  stable_uniform)
from repro.testkit.invariants import (ConservationCheckedPolicy,
                                      InvariantResult, LeakySketch,
                                      check_allowance_conservation,
                                      check_misdetection_bound,
                                      check_no_acked_loss,
                                      check_quantile_misdetection,
                                      check_restore_bit_identical)

__all__ = [
    "ConservationCheckedPolicy",
    "FaultHook",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InvariantResult",
    "LeakySketch",
    "NOOP_HOOK",
    "PlanFaultHook",
    "check_allowance_conservation",
    "check_misdetection_bound",
    "check_no_acked_loss",
    "check_quantile_misdetection",
    "check_restore_bit_identical",
    "stable_uniform",
]
