"""Virtualized datacenter testbed (DESIGN.md S9-S10).

Simulated counterpart of the paper's Emulab deployment: physical servers
whose Dom0 is charged for every sampling operation, VMs with traffic
streams, one monitor per VM and one coordinator per group of servers,
all stepped as engine rows on the default-interval grid, plus the
sampling cost models behind Fig. 6.
"""

from repro.datacenter.cost import (FlatSamplingCostModel, MonetaryCostModel,
                                   NetworkSamplingCostModel)
from repro.datacenter.testbed import (PAPER_SCALE, Testbed, TestbedConfig,
                                      build_testbed)

__all__ = [
    "FlatSamplingCostModel",
    "MonetaryCostModel",
    "NetworkSamplingCostModel",
    "PAPER_SCALE",
    "Testbed",
    "TestbedConfig",
    "build_testbed",
]
