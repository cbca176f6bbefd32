"""Shared queueing-latency law with a smooth overload regime.

All pipeline stages (RAN partitions, SPGW-U packet processing, edge
compute) use the same delay law: M/M/1 ``service / (1 - rho)`` below a
knee utilisation, then a linear finite-buffer overload regime whose
slope matches the M/M/1 derivative at the knee.  Real queues degrade
under overload rather than becoming instantaneously infinite, and the
smooth mapping gives learning agents a usable gradient across the
overload boundary.  The law itself is
:func:`repro.engine.kernels._queueing_rows`; this module holds its one
parameter.
"""

from __future__ import annotations

#: Utilisation where M/M/1 hands over to the linear overload regime.
RHO_KNEE = 0.95
