"""Edge servers: per-slice compute containers co-located with SPGW-U.

The EDM manages CPU/RAM of edge servers via Docker runtime interfaces
(Sec. 6).  The dominant edge workload is the MAR slice's ORB feature
extraction; we model each slice's edge server as an M/M/1 processor
whose service rate scales with its CPU share (``U_c``), with a RAM
(``U_r``) working-set penalty when under-provisioned (thrashing slows
processing sharply, as real feature-matching pipelines do when the
feature database no longer fits in memory).  That model is the edge
stage of :mod:`repro.engine.kernels`; this module is the servers'
lifecycle and their configured shares.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import EdgeConfig
from repro.sim.containers import ContainerRuntime


class EdgeServerPool:
    """Per-slice edge compute containers on one workstation host."""

    def __init__(self, cfg: Optional[EdgeConfig] = None,
                 runtime: Optional[ContainerRuntime] = None) -> None:
        self.cfg = cfg or EdgeConfig()
        # Explicit None check: an empty ContainerRuntime is falsy.
        self.runtime = runtime if runtime is not None else \
            ContainerRuntime(self.cfg.total_cpu_cores,
                             self.cfg.total_ram_gb)
        self._slices: Dict[str, str] = {}

    def __contains__(self, slice_name: str) -> bool:
        return slice_name in self._slices

    def create_server(self, slice_name: str) -> str:
        """Instantiate the slice's edge container (idempotent per slice)."""
        if slice_name in self._slices:
            raise ValueError(f"slice {slice_name!r} already has a server")
        name = f"edge-{slice_name}"
        self.runtime.run(name, image="edge-app", cpu_share=0.0,
                         ram_gb=0.0, labels={"slice": slice_name})
        self._slices[slice_name] = name
        return name

    def delete_server(self, slice_name: str) -> None:
        name = self._slices.pop(slice_name, None)
        if name is not None:
            self.runtime.remove(name)

    def set_resources(self, slice_name: str, cpu_share: float,
                      ram_share: float) -> None:
        """``docker update`` with normalised [0, 1] shares."""
        name = self._container_name(slice_name)
        self.runtime.update(
            name, cpu_share=float(np.clip(cpu_share, 0.0, 1.0)),
            ram_gb=float(np.clip(ram_share, 0.0, 1.0))
            * self.cfg.total_ram_gb)

    def _container_name(self, slice_name: str) -> str:
        try:
            return self._slices[slice_name]
        except KeyError as exc:
            raise KeyError(
                f"slice {slice_name!r} has no edge server") from exc
