"""Transport network: SDN switch fabric, meters, reserved paths.

Substitutes the Ruckus ICX 7150-C12P + OpenDayLight TDM: the topology is
a set of disjoint switch chains between the RAN aggregation point and
the core, ``num_paths`` pre-computed paths of increasing hop count.  The
``U_b`` action maps to an OpenFlow-meter-style rate cap ("the meters API
limits the maximum data rate of associated flows") and ``U_l`` selects
the reserved path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import TransportConfig


def build_topology(cfg: TransportConfig) -> List[List[str]]:
    """The node sequence of every reserved path from ``ran`` to
    ``core``.

    Path ``k`` is a chain of ``2 + extra_hops[k]`` links through
    dedicated intermediate switches, all at ``link_capacity_bps``.
    """
    return [["ran", *(f"sw{k}_{h}" for h in range(1 + extra)), "core"]
            for k, extra in enumerate(cfg.path_extra_hops)]


class TransportFabric:
    """The transport network shared by all slices: its reserved paths
    and current link conditions.

    The per-path reserved load, the meters and the M/M/1-style latency
    that grows as a path approaches saturation are the transport stage
    of :mod:`repro.engine.kernels`, which reads this state.
    """

    def __init__(self, cfg: Optional[TransportConfig] = None) -> None:
        self.cfg = cfg or TransportConfig()
        self._path_hops: List[int] = [
            2 + extra for extra in self.cfg.path_extra_hops]
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

    def path_hops(self, path_index: int) -> int:
        if not 0 <= path_index < self.num_paths:
            raise ValueError(f"path index out of range: {path_index}")
        return self._path_hops[path_index]
