"""End-to-end mobile-network simulator (testbed substitute).

The paper's evaluation runs on a hardware testbed (OAI eNB/gNB + USRP
radios, a Ruckus SDN switch under OpenDayLight, OpenAir-CN CUPS EPC and
Docker edge servers).  This subpackage reimplements every one of those
components as a fluid-flow/queueing simulator so the paper's agents see
the same action -> performance relationships:

* :mod:`repro.sim.phy` / :mod:`repro.sim.channel` -- CQI/MCS tables,
  MCS-offset retransmission behaviour, per-user channel processes;
* :mod:`repro.sim.ran` -- PRB/RBG MAC with RR/PF/Max-CQI schedulers;
* :mod:`repro.sim.transport` -- SDN switch fabric with OpenFlow-style
  meters and reserved paths over disjoint switch chains;
* :mod:`repro.sim.core_network` -- CUPS EPC (HSS/MME/SPGW-C/SPGW-U);
* :mod:`repro.sim.containers` / :mod:`repro.sim.edge` -- Docker-like
  container runtime and edge compute;
* :mod:`repro.sim.traffic` -- Telecom-Italia-style traffic traces;
* :mod:`repro.sim.apps` -- MAR / HVS / RDC application models;
* :mod:`repro.sim.network` / :mod:`repro.sim.env` -- the composed
  end-to-end network and the paper's MDP over it.
"""

from repro.sim.apps import AppPerformance, evaluate_app
from repro.sim.channel import ChannelProcess, UserChannel
from repro.sim.env import SliceObservation
from repro.sim.network import EndToEndNetwork, SliceAllocation, SlotReport
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
    "SliceAllocation",
    "SliceObservation",
    "SlotReport",
    "TelecomItaliaSynthesizer",
    "UserChannel",
    "cqi_to_mcs",
    "evaluate_app",
    "mcs_spectral_efficiency",
]
