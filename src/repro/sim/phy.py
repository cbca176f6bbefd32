"""PHY-layer abstraction: CQI/MCS tables, spectral efficiency, BLER.

Models the pieces of the OAI PHY/MAC that the paper's RDM manipulates:

* the standard CQI -> MCS mapping (3GPP TS 36.213 Table 7.2.3-1 shape),
* the *customised CQI-MCS mapping table* of the RDM, realised as an MCS
  offset subtracted from the vanilla MCS ("a uRLLC slice can map CQI
  index 15 to 16-QAM instead of standardized 64-QAM to achieve more
  robust radio transmissions but lower link capacities"),
* a block-error-rate model in which backing off the MCS exponentially
  reduces the retransmission probability, matching the paper's Fig. 6
  measurement (~1e-1 at offset 0 down to ~1e-5 at offset 10, with the
  uplink benefiting more steeply than the downlink).

This module holds the tables and the BLER model's constants; the
arithmetic over them (effective MCS, retransmission probability,
goodput) is the radio stage of :mod:`repro.engine.kernels`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: CQI index -> (modulation order bits, code rate x1024, efficiency)
#: following 3GPP TS 36.213 Table 7.2.3-1 (4-bit CQI, QPSK..64QAM).
CQI_TABLE: Tuple[Tuple[int, int, float], ...] = (
    (0, 0, 0.0),        # out of range / no transmission
    (2, 78, 0.1523),
    (2, 120, 0.2344),
    (2, 193, 0.3770),
    (2, 308, 0.6016),
    (2, 449, 0.8770),
    (2, 602, 1.1758),
    (4, 378, 1.4766),
    (4, 490, 1.9141),
    (4, 616, 2.4063),
    (6, 466, 2.7305),
    (6, 567, 3.3223),
    (6, 666, 3.9023),
    (6, 772, 4.5234),
    (6, 873, 5.1152),
    (6, 948, 5.5547),
)

#: MCS index -> spectral efficiency (bit/s/Hz), a 29-entry table with the
#: TS 36.213 Table 8.6.1-1 modulation split (QPSK 0-9, 16QAM 10-16,
#: 64QAM 17-28) and efficiencies interpolated between the CQI anchors.
MCS_TABLE: Tuple[float, ...] = tuple(
    float(x) for x in np.concatenate([
        np.linspace(0.1523, 1.1758, 10),   # MCS 0-9   QPSK
        np.linspace(1.3262, 2.4063, 7),    # MCS 10-16 16QAM
        np.linspace(2.5664, 5.5547, 12),   # MCS 17-28 64QAM
    ])
)

NUM_CQI = len(CQI_TABLE) - 1      # CQI 1..15 usable
NUM_MCS = len(MCS_TABLE)          # MCS 0..28

#: SNR (dB) at which each CQI level is reported: roughly 2 dB per CQI
#: step starting at -6 dB (standard link-adaptation curves).
CQI_SNR_THRESHOLDS_DB: Tuple[float, ...] = tuple(
    -6.0 + 2.0 * i for i in range(NUM_CQI))

#: ``(uplink, downlink)`` retransmission probability at MCS offset 0
#: under nominal channel conditions.
BASE_RETX: Tuple[float, float] = (0.12, 0.015)

#: ``(uplink, downlink)`` per-offset-step multiplicative decay of the
#: retransmission probability, fitted to the paper's Fig. 6: it falls
#: from ~1e-1 to ~1e-5 over offsets 0..10 in the uplink and from
#: ~1.5e-2 to ~1.5e-4 in the flatter downlink.
BLER_DECAY: Tuple[float, float] = (0.40, 0.63)


def cqi_to_mcs(cqi: int) -> int:
    """Vanilla CQI -> MCS mapping (the OAI default the RDM customises).

    Approximately ``mcs = 2 * cqi - 2`` which lands CQI 15 on MCS 28.
    """
    if not 1 <= cqi <= NUM_CQI:
        raise ValueError(f"CQI must be in 1..{NUM_CQI}, got {cqi}")
    return int(np.clip(2 * cqi - 2, 0, NUM_MCS - 1))


def mcs_spectral_efficiency(mcs: int) -> float:
    """Spectral efficiency (bit/s/Hz) achieved by an MCS index."""
    if not 0 <= mcs < NUM_MCS:
        raise ValueError(f"MCS must be in 0..{NUM_MCS - 1}, got {mcs}")
    return MCS_TABLE[mcs]

