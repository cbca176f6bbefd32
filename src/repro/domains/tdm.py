"""Transport domain manager (TDM).

Creates/modifies/deletes transport slices on the SDN fabric: each slice
gets an OpenFlow-meter rate cap (the ``meters API limits the maximum
data rate of associated flows``) and a reserved path.  Owns the
``transport_bandwidth`` constrained resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.domains.base import DomainManager, ResourceConstraintError
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.transport import TransportFabric


@dataclass
class TransportSliceConfig:
    """Per-slice transport configuration (meter + path)."""

    meter_share: float = 0.0
    path_index: int = 0


class TransportDomainManager(DomainManager):
    """Manages per-slice meters and reserved paths on the fabric."""

    resource_kinds = ("transport_bandwidth",)

    def __init__(self, fabric: TransportFabric,
                 coordinator_step: float = 0.5) -> None:
        super().__init__("tdm")
        self.fabric = fabric
        self._configs: Dict[str, TransportSliceConfig] = {}
        self.coordinator = ParameterCoordinator(
            self.resource_kinds, step_size=coordinator_step)
        self.route("POST", "/slices/{name}", self._create_slice)
        self.route("DELETE", "/slices/{name}", self._delete_slice)
        self.route("PUT", "/slices/{name}/meter", self._configure)
        self.route("GET", "/slices/{name}", self._get_slice)

    def _create_slice(self, params, _body):
        self.create_slice(params["name"])
        return {"slice": params["name"], "created": True}

    def _delete_slice(self, params, _body):
        self.delete_slice(params["name"])
        return {"slice": params["name"], "deleted": True}

    def _configure(self, params, body):
        self.configure_slice(params["name"],
                             meter_share=float(body["meter_share"]),
                             path_index=int(body.get("path_index", 0)))
        return {"slice": params["name"], "configured": True}

    def _get_slice(self, params, _body):
        cfg = self._get_config(params["name"])
        return {"meter_share": cfg.meter_share,
                "path_index": cfg.path_index}

    def create_slice(self, name: str) -> None:
        if name in self._configs:
            raise ValueError(f"slice {name!r} already exists in TDM")
        self._configs[name] = TransportSliceConfig()

    def delete_slice(self, name: str) -> None:
        if name not in self._configs:
            raise KeyError(f"no transport slice {name!r}")
        del self._configs[name]

    def _get_config(self, name: str) -> TransportSliceConfig:
        try:
            return self._configs[name]
        except KeyError as exc:
            raise KeyError(f"no transport slice {name!r}") from exc

    def configure_slice(self, name: str, meter_share: float,
                        path_index: int = 0) -> None:
        """Set a slice's meter cap and reserved path.

        The aggregate of all meters must fit the link capacity (the
        normalised shares sum to at most 1); the path index must exist
        on the fabric.
        """
        cfg = self._get_config(name)
        if not 0 <= path_index < self.fabric.num_paths:
            raise ValueError(f"path index out of range: {path_index}")
        meter_share = float(np.clip(meter_share, 0.0, 1.0))
        others = sum(c.meter_share for n, c in self._configs.items()
                     if n != name)
        if others + meter_share > 1.0 + 1e-9:
            raise ResourceConstraintError(
                f"transport bandwidth over-committed: "
                f"{others + meter_share:.3f} > 1")
        cfg.meter_share = meter_share
        cfg.path_index = path_index

    def requested_share(self, slice_name: str, kind: str) -> float:
        if kind != "transport_bandwidth":
            raise KeyError(f"TDM does not own resource {kind!r}")
        return self._get_config(slice_name).meter_share

    def action_terms(self, slice_name: str) -> Dict[str, float]:
        cfg = self._get_config(slice_name)
        return {
            "transport_bandwidth": cfg.meter_share,
            "transport_path":
                (cfg.path_index + 0.5) / self.fabric.num_paths,
        }
