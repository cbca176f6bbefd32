"""CUPS core network: HSS / MME / SPGW-C control plane, SPGW-U pools.

Reproduces the paper's CDM substrate (Sec. 6, Fig. 7): a CUPS-based EPC
where "each slice is associated with a set of SPGW-U instances and a
corresponding SPGW-U scheduling method", users are mapped to slices by
IMSI, and the SPGW-U for a user is chosen round-robin at attach time.
Each SPGW-U runs in a container; its packet-processing rate scales with
the CPU share the EDM/CDM allocate (``U_c``) and its latency follows an
M/M/1 processor-sharing curve -- the core stage of
:mod:`repro.engine.kernels`; this module is the lifecycle and state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import CoreConfig
from repro.sim.containers import ContainerRuntime


@dataclass(frozen=True)
class Subscriber:
    """An HSS entry mapping an IMSI to its slice."""

    imsi: str
    slice_name: str


@dataclass
class Session:
    """An attached user session pinned to one SPGW-U instance."""

    imsi: str
    slice_name: str
    sgwu_name: str


class HSS:
    """Home subscriber server: IMSI -> slice registry."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, Subscriber] = {}

    def provision(self, imsi: str, slice_name: str) -> Subscriber:
        if imsi in self._subscribers:
            raise ValueError(f"IMSI {imsi} already provisioned")
        sub = Subscriber(imsi=imsi, slice_name=slice_name)
        self._subscribers[imsi] = sub
        return sub

    def lookup(self, imsi: str) -> Subscriber:
        try:
            return self._subscribers[imsi]
        except KeyError as exc:
            raise KeyError(f"unknown IMSI {imsi}") from exc

    def deprovision(self, imsi: str) -> None:
        self.lookup(imsi)               # unknown IMSI: KeyError
        del self._subscribers[imsi]

    def __len__(self) -> int:
        return len(self._subscribers)


class CoreNetwork:
    """CUPS EPC with per-slice SPGW-U pools.

    Parameters
    ----------
    cfg:
        Core-network capacities.
    runtime:
        Container runtime hosting the VNFs (shared with the edge, since
        the paper co-locates edge servers in the SPGW-U containers).
    """

    def __init__(self, cfg: Optional[CoreConfig] = None,
                 runtime: Optional[ContainerRuntime] = None) -> None:
        self.cfg = cfg or CoreConfig()
        # Explicit None check: an empty ContainerRuntime is falsy
        # (it implements __len__), so `runtime or ...` would silently
        # discard a freshly-created shared host.
        self.runtime = runtime if runtime is not None else \
            ContainerRuntime(8.0, 32.0)
        self.hss = HSS()
        self._sessions: Dict[str, Session] = {}
        self._pools: Dict[str, List[str]] = {}
        self._rr_cursor: Dict[str, itertools.cycle] = {}
        # Control-plane VNFs exist as containers for fidelity/accounting.
        for vnf in ("hss", "mme", "spgw-c"):
            self.runtime.run(vnf, image=f"oai-{vnf}", cpu_share=0.02,
                             ram_gb=0.5, labels={"plane": "control"})

    # ---- slice lifecycle -------------------------------------------

    def create_slice_pool(self, slice_name: str,
                          num_instances: Optional[int] = None) -> List[str]:
        """Instantiate the SPGW-U pool of a slice (exclusive instances)."""
        if slice_name in self._pools:
            raise ValueError(f"slice {slice_name!r} already has a pool")
        count = (num_instances if num_instances is not None
                 else self.cfg.num_sgwu_per_slice)
        if count <= 0:
            raise ValueError("pool needs at least one SPGW-U")
        names = []
        for i in range(count):
            name = f"spgwu-{slice_name}-{i}"
            self.runtime.run(name, image="oai-spgwu", cpu_share=0.0,
                             ram_gb=0.0,
                             labels={"plane": "user",
                                     "slice": slice_name})
            names.append(name)
        self._pools[slice_name] = names
        self._rr_cursor[slice_name] = itertools.cycle(names)
        return list(names)

    def delete_slice_pool(self, slice_name: str) -> None:
        for name in self._pools.pop(slice_name, []):
            self.runtime.remove(name)
        self._rr_cursor.pop(slice_name, None)
        self._sessions = {imsi: s for imsi, s in self._sessions.items()
                          if s.slice_name != slice_name}

    def pool(self, slice_name: str) -> Sequence[str]:
        try:
            return tuple(self._pools[slice_name])
        except KeyError as exc:
            raise KeyError(f"slice {slice_name!r} has no pool") from exc

    # ---- attachment --------------------------------------------------

    def attach(self, imsi: str) -> Session:
        """Initial attach: IMSI -> slice via HSS, SPGW-U via round-robin.

        Mirrors the CDM scheduling method: "it selects the destination
        SPGW-U from the SPGW-U pool of the slice based on the
        round-robin scheduling during the initial attachment procedure".
        """
        sub = self.hss.lookup(imsi)
        if imsi in self._sessions:
            raise ValueError(f"IMSI {imsi} already attached")
        if sub.slice_name not in self._pools:
            raise KeyError(f"slice {sub.slice_name!r} has no SPGW-U pool")
        sgwu = next(self._rr_cursor[sub.slice_name])
        session = Session(imsi=imsi, slice_name=sub.slice_name,
                          sgwu_name=sgwu)
        self._sessions[imsi] = session
        return session

    def detach(self, imsi: str) -> None:
        if imsi not in self._sessions:
            raise KeyError(f"IMSI {imsi} not attached")
        del self._sessions[imsi]

    def sessions_of(self, slice_name: str) -> List[Session]:
        return [s for s in self._sessions.values()
                if s.slice_name == slice_name]

    # ---- user-plane resources ----------------------------------------

    def set_slice_resources(self, slice_name: str, cpu_share: float,
                            ram_gb: float) -> None:
        """Apply ``docker update`` across the slice's SPGW-U pool."""
        pool = self.pool(slice_name)
        per_cpu = float(np.clip(cpu_share, 0.0, 1.0)) / len(pool)
        per_ram = max(ram_gb, 0.0) / len(pool)
        for name in pool:
            self.runtime.update(name, cpu_share=per_cpu, ram_gb=per_ram)
