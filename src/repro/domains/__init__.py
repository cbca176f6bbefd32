"""Eq. 14's parameter coordinators (paper Sec. 4 and 6).

In the paper each domain manager hosts a :class:`ParameterCoordinator`
that updates the coordinating parameters ``beta_k`` of the distributed
coordination mechanism for the resource kinds its domain owns.  The
managers' other duties -- configuring a real RAN, SDN fabric, CUPS EPC
and Docker host -- are the testbed's control plane; this reproduction
enforces what they enforce in the action decode, these coordinators
and the capacity projection.
"""

from repro.domains.coordinator import ParameterCoordinator

__all__ = ["ParameterCoordinator"]
