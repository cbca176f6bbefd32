"""Edge domain manager (EDM).

Manages edge-server containers through Docker runtime interfaces
(``docker update`` of CPU and RAM).  Because the paper co-locates each
slice's edge server with its SPGW-U containers on the workstation, the
EDM owns the shared ``cpu`` and ``ram`` constrained resource kinds.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.domains.base import DomainManager, ResourceConstraintError
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.edge import EdgeServerPool


class EdgeDomainManager(DomainManager):
    """Manages per-slice edge compute and the workstation capacity."""

    resource_kinds = ("cpu", "ram")

    def __init__(self, pool: EdgeServerPool,
                 coordinator_step: float = 0.5) -> None:
        super().__init__("edm")
        self.pool = pool
        self._cpu: Dict[str, float] = {}
        self._ram: Dict[str, float] = {}
        self.coordinator = ParameterCoordinator(
            self.resource_kinds, step_size=coordinator_step)
        self.route("POST", "/slices/{name}", self._create)
        self.route("DELETE", "/slices/{name}", self._delete)
        self.route("PUT", "/slices/{name}/resources", self._configure)
        self.route("GET", "/slices/{name}", self._get)

    def _create(self, params, _body):
        self.create_slice(params["name"])
        return {"slice": params["name"], "created": True}

    def _delete(self, params, _body):
        self.delete_slice(params["name"])
        return {"slice": params["name"], "deleted": True}

    def _configure(self, params, body):
        self.configure_slice(params["name"],
                             cpu_share=float(body["cpu_share"]),
                             ram_share=float(body["ram_share"]))
        return {"slice": params["name"], "configured": True}

    def _get(self, params, _body):
        name = params["name"]
        if name not in self._cpu:
            raise KeyError(f"no edge slice {name!r}")
        return {"cpu_share": self._cpu[name],
                "ram_share": self._ram[name]}

    def create_slice(self, name: str) -> None:
        """Instantiate the slice's edge server, or adopt the one the
        testbed already runs (see ``CoreDomainManager.create_slice``)."""
        if name in self._cpu:
            raise ValueError(f"slice {name!r} already exists in EDM")
        if name not in self.pool:
            self.pool.create_server(name)
        self._cpu[name] = 0.0
        self._ram[name] = 0.0

    def delete_slice(self, name: str) -> None:
        self.pool.delete_server(name)
        self._cpu.pop(name, None)
        self._ram.pop(name, None)

    def configure_slice(self, name: str, cpu_share: float,
                        ram_share: float) -> None:
        """Apply CPU/RAM shares, enforcing workstation capacity."""
        if name not in self._cpu:
            raise KeyError(f"no edge slice {name!r}")
        cpu_share = float(np.clip(cpu_share, 0.0, 1.0))
        ram_share = float(np.clip(ram_share, 0.0, 1.0))
        others_cpu = sum(v for n, v in self._cpu.items() if n != name)
        others_ram = sum(v for n, v in self._ram.items() if n != name)
        if others_cpu + cpu_share > 1.0 + 1e-9:
            raise ResourceConstraintError(
                f"CPU over-committed: {others_cpu + cpu_share:.3f} > 1")
        if others_ram + ram_share > 1.0 + 1e-9:
            raise ResourceConstraintError(
                f"RAM over-committed: {others_ram + ram_share:.3f} > 1")
        self.pool.set_resources(name, cpu_share, ram_share)
        self._cpu[name] = cpu_share
        self._ram[name] = ram_share

    def requested_share(self, slice_name: str, kind: str) -> float:
        if kind == "cpu":
            return self._cpu[slice_name]
        if kind == "ram":
            return self._ram[slice_name]
        raise KeyError(f"EDM does not own resource {kind!r}")

    def action_terms(self, slice_name: str) -> Dict[str, float]:
        return {"cpu_allocation": self.requested_share(slice_name, "cpu"),
                "ram_allocation": self.requested_share(slice_name, "ram")}
