"""Radio domain manager (RDM).

Slices 4G LTE / 5G NR RAN with exclusive PRB/RBG assignment per slice
and the customised CQI-MCS mapping tables of the paper: each slice may
request an MCS offset per direction so the used MCS is the vanilla
CQI-derived MCS minus the offset (robustness vs capacity trade).
The RDM owns the ``uplink_prb`` and ``downlink_prb`` constrained
resources and rejects configurations that over-commit the cell.  What
a configuration delivers is the kernels' to say
(:meth:`repro.core.orchestrator.DomainManagerSet.evaluate_slot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.config import MAX_MCS_OFFSET
from repro.domains.base import DomainManager, ResourceConstraintError
from repro.domains.coordinator import ParameterCoordinator
from repro.sim.ran import Scheduler


@dataclass
class RadioSliceConfig:
    """Per-slice RAN configuration held by the RDM."""

    uplink_share: float = 0.0
    downlink_share: float = 0.0
    uplink_mcs_offset: int = 0
    downlink_mcs_offset: int = 0
    uplink_scheduler: Scheduler = Scheduler.ROUND_ROBIN
    downlink_scheduler: Scheduler = Scheduler.ROUND_ROBIN


class RadioDomainManager(DomainManager):
    """Manages one cell's slice partitions and custom MCS tables."""

    resource_kinds = ("uplink_prb", "downlink_prb")

    def __init__(self, coordinator_step: float = 0.5) -> None:
        super().__init__("rdm")
        self._configs: Dict[str, RadioSliceConfig] = {}
        self.coordinator = ParameterCoordinator(
            self.resource_kinds, step_size=coordinator_step)
        self.route("POST", "/slices/{name}", self._create_slice)
        self.route("DELETE", "/slices/{name}", self._delete_slice)
        self.route("PUT", "/slices/{name}/resources",
                   self._configure_slice)
        self.route("GET", "/slices/{name}", self._get_slice)

    # ---- REST handlers ------------------------------------------------

    def _create_slice(self, params, _body):
        self.create_slice(params["name"])
        return {"slice": params["name"], "created": True}

    def _delete_slice(self, params, _body):
        self.delete_slice(params["name"])
        return {"slice": params["name"], "deleted": True}

    def _configure_slice(self, params, body):
        self.configure_slice(
            params["name"],
            uplink_share=float(body.get("uplink_share", 0.0)),
            downlink_share=float(body.get("downlink_share", 0.0)),
            uplink_mcs_offset=int(body.get("uplink_mcs_offset", 0)),
            downlink_mcs_offset=int(body.get("downlink_mcs_offset", 0)),
            uplink_scheduler=Scheduler(
                int(body.get("uplink_scheduler", 0))),
            downlink_scheduler=Scheduler(
                int(body.get("downlink_scheduler", 0))))
        return {"slice": params["name"], "configured": True}

    def _get_slice(self, params, _body):
        cfg = self._config(params["name"])
        return {
            "uplink_share": cfg.uplink_share,
            "downlink_share": cfg.downlink_share,
            "uplink_mcs_offset": cfg.uplink_mcs_offset,
            "downlink_mcs_offset": cfg.downlink_mcs_offset,
            "uplink_scheduler": cfg.uplink_scheduler.value,
            "downlink_scheduler": cfg.downlink_scheduler.value,
        }

    # ---- domain API --------------------------------------------------

    def create_slice(self, name: str) -> None:
        if name in self._configs:
            raise ValueError(f"slice {name!r} already exists in RDM")
        self._configs[name] = RadioSliceConfig()

    def delete_slice(self, name: str) -> None:
        if name not in self._configs:
            raise KeyError(f"no RAN slice {name!r}")
        del self._configs[name]

    def _config(self, name: str) -> RadioSliceConfig:
        try:
            return self._configs[name]
        except KeyError as exc:
            raise KeyError(f"no RAN slice {name!r}") from exc

    def configure_slice(self, name: str, uplink_share: float,
                        downlink_share: float,
                        uplink_mcs_offset: int = 0,
                        downlink_mcs_offset: int = 0,
                        uplink_scheduler: Scheduler =
                        Scheduler.ROUND_ROBIN,
                        downlink_scheduler: Scheduler =
                        Scheduler.ROUND_ROBIN) -> None:
        """Apply a slice's radio configuration, enforcing capacity.

        Raises :class:`ResourceConstraintError` if the cell would be
        over-committed in either direction -- isolation means exclusive
        PRBs, so shares must sum to at most 1.
        """
        cfg = self._config(name)
        if not 0 <= uplink_mcs_offset <= MAX_MCS_OFFSET:
            raise ValueError("uplink MCS offset out of range")
        if not 0 <= downlink_mcs_offset <= MAX_MCS_OFFSET:
            raise ValueError("downlink MCS offset out of range")
        uplink_share = float(np.clip(uplink_share, 0.0, 1.0))
        downlink_share = float(np.clip(downlink_share, 0.0, 1.0))
        others_ul = sum(c.uplink_share for n, c in self._configs.items()
                        if n != name)
        others_dl = sum(c.downlink_share
                        for n, c in self._configs.items() if n != name)
        if others_ul + uplink_share > 1.0 + 1e-9:
            raise ResourceConstraintError(
                f"uplink PRBs over-committed: "
                f"{others_ul + uplink_share:.3f} > 1")
        if others_dl + downlink_share > 1.0 + 1e-9:
            raise ResourceConstraintError(
                f"downlink PRBs over-committed: "
                f"{others_dl + downlink_share:.3f} > 1")
        cfg.uplink_share = uplink_share
        cfg.downlink_share = downlink_share
        cfg.uplink_mcs_offset = uplink_mcs_offset
        cfg.downlink_mcs_offset = downlink_mcs_offset
        cfg.uplink_scheduler = uplink_scheduler
        cfg.downlink_scheduler = downlink_scheduler

    def requested_share(self, slice_name: str, kind: str) -> float:
        cfg = self._config(slice_name)
        if kind == "uplink_prb":
            return cfg.uplink_share
        if kind == "downlink_prb":
            return cfg.downlink_share
        raise KeyError(f"RDM does not own resource {kind!r}")

    def action_terms(self, slice_name: str) -> Dict[str, float]:
        cfg = self._config(slice_name)
        return {
            "uplink_bandwidth": cfg.uplink_share,
            "uplink_mcs_offset": cfg.uplink_mcs_offset / MAX_MCS_OFFSET,
            "uplink_scheduler":
                (cfg.uplink_scheduler.value + 0.5) / len(Scheduler),
            "downlink_bandwidth": cfg.downlink_share,
            "downlink_mcs_offset":
                cfg.downlink_mcs_offset / MAX_MCS_OFFSET,
            "downlink_scheduler":
                (cfg.downlink_scheduler.value + 0.5) / len(Scheduler),
        }
