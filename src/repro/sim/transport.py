"""Transport network: SDN switch fabric, meters, reserved paths.

Substitutes the Ruckus ICX 7150-C12P + OpenDayLight TDM: the topology is
a set of disjoint switch chains between the RAN aggregation point and
the core, ``num_paths`` pre-computed paths of increasing hop count.  The
``U_b`` action maps to an OpenFlow-meter-style rate cap ("the meters API
limits the maximum data rate of associated flows") and ``U_l`` selects
the reserved path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import TransportConfig


@dataclass(frozen=True)
class TransportReport:
    """Per-slot transport outcome for one slice."""

    path_index: int
    hops: int
    rate_cap_bps: float
    achieved_rate_bps: float
    latency_ms: float


def build_topology(cfg: TransportConfig) -> List[List[str]]:
    """The node sequence of every reserved path from ``ran`` to
    ``core``.

    Path ``k`` is a chain of ``2 + extra_hops[k]`` links through
    dedicated intermediate switches, all at ``link_capacity_bps``.
    """
    return [["ran", *(f"sw{k}_{h}" for h in range(1 + extra)), "core"]
            for k, extra in enumerate(cfg.path_extra_hops)]


class TransportFabric:
    """Stateful transport network shared by all slices.

    Tracks per-path reserved load so queueing latency grows as a path
    approaches saturation (M/M/1-style), and enforces per-slice meters.
    """

    def __init__(self, cfg: Optional[TransportConfig] = None) -> None:
        self.cfg = cfg or TransportConfig()
        self._path_hops: List[int] = [
            2 + extra for extra in self.cfg.path_extra_hops]
        self._path_load_bps = np.zeros(self.cfg.num_paths)
        # Mutable link conditions, driven by scenario events (fault
        # injection): a capacity degradation factor, added forwarding
        # latency, and cross-traffic that loads every path before the
        # slices reserve anything.
        self.capacity_scale = 1.0
        self.extra_latency_ms = 0.0
        self.background_load_fraction = 0.0

    @property
    def num_paths(self) -> int:
        return self.cfg.num_paths

    # ---- scenario event hooks -----------------------------------------

    def set_conditions(self, capacity_scale: Optional[float] = None,
                       extra_latency_ms: Optional[float] = None,
                       background_load_fraction: Optional[float] = None
                       ) -> None:
        """Update the fabric's fault-injection state (``None`` = keep).

        ``capacity_scale`` in (0, 1] derates every link (e.g. a port
        renegotiating to a lower speed), ``extra_latency_ms`` models a
        forwarding-plane latency surge, and ``background_load_fraction``
        in [0, 1) pre-loads each path with unmanaged cross-traffic.
        """
        if capacity_scale is not None:
            if not 0.0 < capacity_scale <= 1.0:
                raise ValueError("capacity_scale must be in (0, 1]")
            self.capacity_scale = float(capacity_scale)
        if extra_latency_ms is not None:
            if extra_latency_ms < 0:
                raise ValueError("extra_latency_ms must be >= 0")
            self.extra_latency_ms = float(extra_latency_ms)
        if background_load_fraction is not None:
            if not 0.0 <= background_load_fraction < 1.0:
                raise ValueError(
                    "background_load_fraction must be in [0, 1)")
            self.background_load_fraction = float(background_load_fraction)

    def clear_conditions(self) -> None:
        """Restore nominal link conditions (no active events)."""
        self.capacity_scale = 1.0
        self.extra_latency_ms = 0.0
        self.background_load_fraction = 0.0

    def effective_capacity_bps(self) -> float:
        """Per-link capacity under the current degradation factor."""
        return self.cfg.link_capacity_bps * self.capacity_scale

    def path_index_from_action(self, value: float) -> int:
        """Map the continuous ``U_l`` action in [0, 1] to a path index."""
        idx = int(np.clip(value * self.num_paths, 0,
                          self.num_paths - 1))
        return idx

    def path_hops(self, path_index: int) -> int:
        if not 0 <= path_index < self.num_paths:
            raise ValueError(f"path index out of range: {path_index}")
        return self._path_hops[path_index]

    def reset_loads(self) -> None:
        """Reset per-path load to the background level for a new slot."""
        self._path_load_bps.fill(self.background_load_fraction
                                 * self.effective_capacity_bps())

    def reserve(self, path_index: int, rate_bps: float) -> None:
        """Account a slice's metered reservation on a path."""
        if rate_bps < 0:
            raise ValueError("rate_bps must be non-negative")
        self._path_load_bps[path_index] += rate_bps

    def path_utilization(self, path_index: int) -> float:
        return float(self._path_load_bps[path_index]
                     / self.effective_capacity_bps())

    def evaluate(self, path_index: int, meter_share: float,
                 offered_bps: float) -> TransportReport:
        """Carry a slice's offered load over its reserved path.

        ``meter_share`` in [0, 1] scales the OpenFlow meter cap; the
        achieved rate is ``min(offered, cap)``.  Latency = per-hop
        forwarding plus an M/M/1 queueing term on the path utilisation
        (keeps latency finite but sharply increasing near saturation).
        """
        meter_share = float(np.clip(meter_share, 0.0, 1.0))
        cap = meter_share * self.effective_capacity_bps()
        achieved = min(offered_bps, cap)
        hops = self.path_hops(path_index)
        utilization = min(self.path_utilization(path_index), 0.99)
        queueing_ms = (self.cfg.hop_latency_ms * utilization
                       / (1.0 - utilization))
        latency = (hops * self.cfg.hop_latency_ms + queueing_ms
                   + self.extra_latency_ms)
        if cap <= 0 and offered_bps > 0:
            latency = float("inf")
        return TransportReport(
            path_index=path_index, hops=hops, rate_cap_bps=cap,
            achieved_rate_bps=float(achieved), latency_ms=float(latency))

    def shortest_path_nodes(self, path_index: int) -> List[str]:
        """The node sequence of a reserved path (for inspection/tests)."""
        return build_topology(self.cfg)[path_index]
