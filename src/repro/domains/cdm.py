"""Core domain manager (CDM).

Fronts the CUPS EPC: slice lifecycle creates/deletes per-slice SPGW-U
pools, users attach via the IMSI-keyed HSS with round-robin SPGW-U
selection, and the user-plane CPU/RAM of a slice is applied across its
pool with ``docker update`` semantics.  The workstation CPU it shares
with the edge is coordinated by the EDM, so the CDM owns no constrained
resource kind and no dimension of the slot action itself (``U_c`` /
``U_r`` size the co-located SPGW-U and edge containers together).
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.domains.base import DomainManager
from repro.sim.core_network import CoreNetwork, Session


class CoreDomainManager(DomainManager):
    """Manages SPGW-U pools and user attachment for slices."""

    resource_kinds = ()

    def __init__(self, core: CoreNetwork) -> None:
        super().__init__("cdm")
        self.core = core
        self._slices: Set[str] = set()
        self.route("POST", "/slices/{name}", self._create_slice)
        self.route("DELETE", "/slices/{name}", self._delete_slice)
        self.route("PUT", "/slices/{name}/resources", self._configure)
        self.route("POST", "/subscribers/{imsi}/attach", self._attach)
        self.route("GET", "/slices/{name}/sessions", self._sessions)

    def _create_slice(self, params, body):
        pool = self.create_slice(params["name"],
                                 int(body.get("num_instances", 0)) or None)
        return {"slice": params["name"], "pool": pool}

    def _delete_slice(self, params, _body):
        self.delete_slice(params["name"])
        return {"slice": params["name"], "deleted": True}

    def _configure(self, params, body):
        self.configure_slice(params["name"],
                             cpu_share=float(body["cpu_share"]),
                             ram_gb=float(body.get("ram_gb", 0.0)))
        return {"slice": params["name"], "configured": True}

    def _attach(self, params, _body):
        session = self.attach(params["imsi"])
        return {"imsi": session.imsi, "slice": session.slice_name,
                "spgwu": session.sgwu_name}

    def _sessions(self, params, _body):
        sessions = self.core.sessions_of(params["name"])
        return {"sessions": [s.imsi for s in sessions]}

    def create_slice(self, name: str, num_instances=None) -> List[str]:
        """Instantiate the slice's SPGW-U pool, or adopt the one the
        testbed already runs (``EndToEndNetwork.add_slice`` builds a
        slice's pool, edge server and UEs together)."""
        if name in self._slices:
            raise ValueError(f"slice {name!r} already exists in CDM")
        try:
            pool = list(self.core.pool(name))
        except KeyError:
            pool = self.core.create_slice_pool(name, num_instances)
        self._slices.add(name)
        return pool

    def delete_slice(self, name: str) -> None:
        self.core.delete_slice_pool(name)
        self._slices.discard(name)

    def configure_slice(self, name: str, cpu_share: float,
                        ram_gb: float = 0.0) -> None:
        if name not in self._slices:
            raise KeyError(f"no core slice {name!r}")
        cpu_share = float(np.clip(cpu_share, 0.0, 1.0))
        self.core.set_slice_resources(name, cpu_share, max(ram_gb, 0.0))

    def attach(self, imsi: str) -> Session:
        return self.core.attach(imsi)

    def requested_share(self, slice_name: str, kind: str) -> float:
        raise KeyError("CDM owns no constrained resource kinds; the "
                       "co-located workstation CPU/RAM are coordinated "
                       "by the EDM")
