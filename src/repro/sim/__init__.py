"""End-to-end mobile-network simulator (testbed substitute).

The paper's evaluation runs on a hardware testbed (OAI eNB/gNB + USRP
radios, a Ruckus SDN switch under OpenDayLight, OpenAir-CN CUPS EPC and
Docker edge servers).  This subpackage reimplements every one of those
components as a fluid-flow/queueing simulator so the paper's agents see
the same action -> performance relationships.  The modules below hold
the testbed's *state*; the arithmetic that turns an allocation into a
performance number is one place,
:func:`repro.engine.kernels.evaluate_rows`, which reads that state and
the configuration:

* :mod:`repro.sim.phy` / :mod:`repro.sim.channel` -- CQI/MCS tables,
  the MCS-offset retransmission constants, the per-user AR(1) channel
  state's one stepper;
* :mod:`repro.sim.traffic` -- Telecom-Italia-style traffic traces;
* :mod:`repro.sim.apps` -- the MAR / HVS / RDC outcome record;
* :mod:`repro.sim.network` / :mod:`repro.sim.env` -- the composed
  end-to-end network (one row per slice it can hold, which of them
  are attached, their channels and the transport link conditions)
  and the paper's MDP over it.

The cell's PRB budget, the reserved paths' hop counts and every other
infrastructure constant are read straight from
:class:`~repro.config.NetworkConfig` by the kernels' row layout
(:func:`repro.engine.kernels.rows_for_network`).
"""

from repro.sim.apps import AppPerformance
from repro.sim.env import SliceObservation
from repro.sim.network import EndToEndNetwork, SlotReport
from repro.sim.phy import (
    CQI_TABLE,
    MCS_TABLE,
    cqi_to_mcs,
    mcs_spectral_efficiency,
)
from repro.sim.traffic import TelecomItaliaSynthesizer

__all__ = [
    "AppPerformance",
    "CQI_TABLE",
    "EndToEndNetwork",
    "MCS_TABLE",
    "SliceObservation",
    "SlotReport",
    "TelecomItaliaSynthesizer",
    "cqi_to_mcs",
    "mcs_spectral_efficiency",
]
