"""End-to-end mobile-network simulator (testbed substitute).

The paper's evaluation runs on a hardware testbed (OAI eNB/gNB + USRP
radios, a Ruckus SDN switch under OpenDayLight, OpenAir-CN CUPS EPC and
Docker edge servers).  This subpackage reimplements every one of those
components as a fluid-flow/queueing simulator so the paper's agents see
the same action -> performance relationships.  The modules below are
the testbed's *state and configuration*; the arithmetic that turns an
allocation into a performance number is one place,
:func:`repro.engine.kernels.evaluate_rows`:

* :mod:`repro.sim.phy` / :mod:`repro.sim.channel` -- CQI/MCS tables,
  the MCS-offset retransmission parameters, per-user channel processes;
* :mod:`repro.sim.ran` -- the cell's PRB budget and the RR/PF/Max-CQI
  scheduler choices;
* :mod:`repro.sim.transport` -- SDN switch fabric: reserved paths over
  disjoint switch chains and the current link conditions;
* :mod:`repro.sim.core_network` -- CUPS EPC (HSS/MME/SPGW-C/SPGW-U)
  lifecycle: pools, subscribers, sessions;
* :mod:`repro.sim.containers` / :mod:`repro.sim.edge` -- Docker-like
  container runtime and the per-slice edge servers;
* :mod:`repro.sim.traffic` -- Telecom-Italia-style traffic traces;
* :mod:`repro.sim.apps` -- the MAR / HVS / RDC outcome record;
* :mod:`repro.sim.network` / :mod:`repro.sim.env` -- the composed
  end-to-end network and the paper's MDP over it.
"""

from repro.sim.apps import AppPerformance
from repro.sim.channel import ChannelProcess, UserChannel
from repro.sim.env import SliceObservation
from repro.sim.network import EndToEndNetwork, SlotReport
from repro.sim.phy import (
    CQI_TABLE,
    MCS_TABLE,
    PhyModel,
    cqi_to_mcs,
    mcs_spectral_efficiency,
)
from repro.sim.traffic import TelecomItaliaSynthesizer

__all__ = [
    "AppPerformance",
    "CQI_TABLE",
    "ChannelProcess",
    "EndToEndNetwork",
    "MCS_TABLE",
    "PhyModel",
    "SliceObservation",
    "SlotReport",
    "TelecomItaliaSynthesizer",
    "UserChannel",
    "cqi_to_mcs",
    "mcs_spectral_efficiency",
]
