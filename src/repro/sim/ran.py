"""Radio access network: cells, PRB partitioning, MAC schedulers.

Models the paper's sliced eNB/gNB: "performance isolation among slices
is guaranteed by exclusively assigning resource block groups (RBGs) and
physical resource blocks (PRBs) in the downlink and uplink MAC layers"
(Sec. 6).  A :class:`RadioCell` owns the PRB budget of one direction
pair; each slice receives an exclusive share and a scheduling algorithm
(the ``U_a`` / ``U_g`` actions) that determines how efficiently its
users convert PRBs into bits -- arithmetic that lives in the radio
stage of :mod:`repro.engine.kernels`.
"""

from __future__ import annotations

import enum

from repro.config import RANConfig
from repro.sim.phy import PhyModel


class Scheduler(enum.Enum):
    """MAC scheduling algorithms selectable per slice and direction.

    The values are the codes the kernels' decode stage maps thirds of
    the ``[0, 1]`` scheduler action onto.
    """

    ROUND_ROBIN = 0
    PROPORTIONAL_FAIR = 1
    MAX_CQI = 2


class RadioCell:
    """One eNB/gNB with exclusive PRB partitioning between slices."""

    def __init__(self, cfg: RANConfig) -> None:
        self.cfg = cfg
        self.phy = PhyModel()
        #: Useful PRB-seconds per second in each direction (TDD split).
        self._dl_prbs = cfg.num_prbs
        self._ul_prbs = cfg.num_prbs

    @property
    def downlink_prbs(self) -> int:
        return self._dl_prbs

    @property
    def uplink_prbs(self) -> int:
        return self._ul_prbs
