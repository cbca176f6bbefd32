"""The composed end-to-end network: RAN + TN + CN + EN per slot.

:class:`EndToEndNetwork` owns the per-slice channels and the transport
link conditions and evaluates a configuration slot: given each slice's
resource allocation (the 10-dim action) and realised traffic, it
produces per-slice performance/cost plus the usage and state features
the agents consume.  Everything else a slot reads is configuration
(``cfg.ran`` / ``cfg.transport`` / ``cfg.core`` / ``cfg.edge``).

Slot evaluation runs through the vectorised engine kernels
(:mod:`repro.engine.kernels`): :meth:`EndToEndNetwork.evaluate_slot` is
the stateless what-if evaluator -- actions and rates in, reports out,
no events, channels, arrivals or episode state -- while *stepping* a
world is :class:`~repro.engine.batch.BatchSimulator`'s job.  The
kernels are the model and they are pure: the network is state
(channels and link conditions) that the kernels read through the row
layout and :class:`~repro.engine.kernels.WorldConditions`, and never
write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import NUM_ACTIONS, NetworkConfig, SliceSpec
from repro.sim.apps import AppPerformance
from repro.sim.channel import _PADDING, draw_channels, snr_to_cqi_array


@dataclass(frozen=True)
class SlotReport:
    """Per-slice outcome of one configuration slot."""

    slice_name: str
    performance: AppPerformance
    usage: float                     # paper Eq. 9 scaled to [0, 1]
    arrival_rate: float
    ul_capacity_bps: float
    dl_capacity_bps: float
    radio_usage: float               # g_{t-1} state feature
    workload: float                  # w_{t-1} state feature
    transport_latency_ms: float
    core_latency_ms: float
    edge_latency_ms: float

    @property
    def cost(self) -> float:
        return self.performance.cost


#: The resource kinds shared across slices and capped by infrastructure
#: (paper Sec. 4's constraint set K), mapped to action indices.
CONSTRAINED_RESOURCES: Dict[str, int] = {
    "uplink_prb": 0,
    "downlink_prb": 3,
    "transport_bandwidth": 6,
    "cpu": 8,
    "ram": 9,
}


class EndToEndNetwork:
    """One end-to-end infrastructure instance hosting several slices.

    The slices' radio channels are three ``(S, users_per_slice)``
    arrays in slice order, ``mean_snr_db`` / ``snr_db`` / ``cqi``
    (:mod:`repro.sim.channel`): the network's own until an engine's
    :class:`~repro.sim.channel.FleetChannelBank` takes them, after
    which they read the network's rows of that block.  Attaching or
    detaching a slice first takes the state back (as copies), then
    appends or deletes one row.

    The transport link conditions (``capacity_scale``,
    ``extra_latency_ms``, ``background_load_fraction``) are its own
    too; scenario events drive them (:meth:`set_transport_conditions`).
    """

    def __init__(self, cfg: Optional[NetworkConfig] = None,
                 slices: Optional[Sequence[SliceSpec]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cfg = cfg or NetworkConfig()
        self._rng = rng if rng is not None else np.random.default_rng(17)
        self.clear_transport_conditions()
        self.slices: Dict[str, SliceSpec] = {}
        for spec in slices or ():
            self._check_new(spec)
            self.slices[spec.name] = spec
        #: Bumped by every slice attach / detach: what holders of
        #: anything derived from the slice set (row layout, a fleet
        #: block's rows, a simulator's episode layout) compare to know
        #: it is stale.
        self.churn_count = 0
        #: Cached engine row layout; rebuilt whenever the slice set
        #: changes (see :meth:`slot_rows`).
        self._rows_cache = None
        #: The engine block holding the channel state (``None``: the
        #: state is ``_state``), and this network's world index in it.
        self._home = None
        self._index = 0
        # One draw for every initial slice: the same stream as one
        # draw per slice in attach order, with nothing to stack.
        mean, snr = draw_channels(len(self.slices),
                                  self.cfg.users_per_slice, self._rng)
        self._state = {"mean_snr_db": mean, "snr_db": snr,
                       "cqi": snr_to_cqi_array(snr)}

    # ---- channel state -----------------------------------------------

    def _read(self, field: str) -> np.ndarray:
        home = self._home
        if home is None:
            return self._state[field]
        return getattr(home, field)[
            home.starts[self._index]:home.starts[self._index + 1],
            :self.cfg.users_per_slice]

    @property
    def mean_snr_db(self) -> np.ndarray:
        """``(S, U)`` per-user mean SNR (dB), slice order."""
        return self._read("mean_snr_db")

    @property
    def snr_db(self) -> np.ndarray:
        """``(S, U)`` per-user current SNR (dB), slice order."""
        return self._read("snr_db")

    @property
    def cqi(self) -> np.ndarray:
        """``(S, U)`` per-user reported CQI, slice order."""
        return self._read("cqi")

    def _own_state(self) -> Dict[str, np.ndarray]:
        """The channel state as this network's own arrays, taken back
        (as copies) from an engine block that holds it: the block may
        reuse its rows, and re-adopts this network on its next step."""
        if self._home is not None:
            self._state = {field: self._read(field).copy()
                           for field in _PADDING}
            self._home = None
        return self._state

    # ---- slice lifecycle ---------------------------------------------

    def _check_new(self, spec: SliceSpec) -> None:
        if spec.name in self.slices:
            raise ValueError(f"slice {spec.name!r} already exists")

    def add_slice(self, spec: SliceSpec) -> None:
        """Attach a slice: its spec and its UEs' radio channels."""
        self._check_new(spec)
        state = self._own_state()
        mean, snr = draw_channels(1, self.cfg.users_per_slice, self._rng)
        for field, row in (("mean_snr_db", mean), ("snr_db", snr),
                           ("cqi", snr_to_cqi_array(snr))):
            state[field] = np.concatenate([state[field], row])
        self.slices[spec.name] = spec
        self._slice_set_changed()

    def remove_slice(self, name: str) -> None:
        if name not in self.slices:
            raise KeyError(f"no slice {name!r}")
        row = list(self.slices).index(name)
        state = self._own_state()
        for field in _PADDING:
            state[field] = np.delete(state[field], row, axis=0)
        del self.slices[name]
        self._slice_set_changed()

    def _slice_set_changed(self) -> None:
        self.churn_count += 1
        self._rows_cache = None

    @property
    def slice_names(self) -> List[str]:
        return list(self.slices)

    # ---- scenario event hooks -----------------------------------------

    def set_transport_conditions(
            self, capacity_scale: Optional[float] = None,
            extra_latency_ms: Optional[float] = None,
            background_load_fraction: Optional[float] = None) -> None:
        """Inject transport-network faults (see scenario events).

        ``capacity_scale`` in (0, 1] derates every link (e.g. a port
        renegotiating to a lower speed), a finite ``extra_latency_ms``
        >= 0 models a forwarding-plane latency surge, and
        ``background_load_fraction`` in [0, 1) pre-loads each path
        with unmanaged cross-traffic.  ``None`` leaves a condition
        unchanged; use :meth:`clear_transport_conditions` to restore
        nominal state.
        """
        if capacity_scale is not None:
            if not 0.0 < capacity_scale <= 1.0:
                raise ValueError("capacity_scale must be in (0, 1]")
            self.capacity_scale = float(capacity_scale)
        if extra_latency_ms is not None:
            if not (math.isfinite(extra_latency_ms)
                    and extra_latency_ms >= 0):
                raise ValueError(
                    "extra_latency_ms must be finite and >= 0")
            self.extra_latency_ms = float(extra_latency_ms)
        if background_load_fraction is not None:
            if not 0.0 <= background_load_fraction < 1.0:
                raise ValueError(
                    "background_load_fraction must be in [0, 1)")
            self.background_load_fraction = float(background_load_fraction)

    def clear_transport_conditions(self) -> None:
        """Restore nominal link conditions (no active events)."""
        self.capacity_scale = 1.0
        self.extra_latency_ms = 0.0
        self.background_load_fraction = 0.0

    # ---- slot evaluation -----------------------------------------------

    def slot_rows(self):
        """This network's engine row layout (cached per slice set:
        churn drops it, so a new object *is* a new layout)."""
        if self._rows_cache is None:
            from repro.engine.kernels import rows_for_network

            self._rows_cache = rows_for_network(self)
        return self._rows_cache

    def evaluate_slot(self, actions: Dict[str, np.ndarray],
                      arrival_rates: Dict[str, float]
                      ) -> Dict[str, SlotReport]:
        """Evaluate one configuration slot for all slices.

        Parameters
        ----------
        actions:
            Slice name -> 10-dim action in [0, 1], one for every slice
            of this network and no other (else ``KeyError`` naming the
            slice, before anything is evaluated).  Callers are expected
            to have already resolved over-requests (Eq. 14 coordination
            or the capacity projection); this method evaluates the
            network as configured.
        arrival_rates:
            Slice name -> realised arrivals per second this slot.
        """
        from repro.engine.kernels import WorldConditions, evaluate_rows

        names = list(self.slices)
        for name in actions:
            if name not in self.slices:
                raise KeyError(f"action for unknown slice {name!r}; "
                               f"this network's slices: {names}")
        missing = [name for name in names if name not in actions]
        if missing:
            raise KeyError(f"missing actions for slices {missing}; "
                           f"this network's slices: {names}")
        matrix = np.empty((len(names), NUM_ACTIONS))
        for i, name in enumerate(names):
            arr = np.asarray(actions[name], dtype=float)
            if arr.shape != (NUM_ACTIONS,):
                raise ValueError(
                    f"action for slice {name!r} must have shape "
                    f"({NUM_ACTIONS},), got {arr.shape}")
            matrix[i] = arr
        rates = np.array([float(arrival_rates.get(name, 0.0))
                          for name in names])
        out = evaluate_rows(
            self.slot_rows(), WorldConditions.nominal(1).refresh(
                [self]), matrix, rates, self.cqi,
            self.snr_db - self.mean_snr_db)
        return self.wrap_reports(out, rates)

    def wrap_reports(self, out: Dict, rates: np.ndarray
                     ) -> Dict[str, SlotReport]:
        """Build per-slice :class:`SlotReport` objects from this
        network's kernel rows."""
        reports: Dict[str, SlotReport] = {}
        for r, (name, spec) in enumerate(self.slices.items()):
            performance = AppPerformance(
                metric=spec.sla.metric,
                value=float(out["value"][r]),
                satisfaction=float(out["satisfaction"][r]),
                cost=float(out["cost"][r]))
            reports[name] = SlotReport(
                slice_name=name,
                performance=performance,
                usage=float(out["usage"][r]),
                arrival_rate=float(rates[r]),
                ul_capacity_bps=float(out["ul_capacity_bps"][r]),
                dl_capacity_bps=float(out["dl_capacity_bps"][r]),
                radio_usage=float(out["radio_usage"][r]),
                workload=float(out["workload"][r]),
                transport_latency_ms=float(
                    out["transport_latency_ms"][r]),
                core_latency_ms=float(out["core_latency_ms"][r]),
                edge_latency_ms=float(out["edge_latency_ms"][r]),
            )
        return reports

    # ---- diagnostics -----------------------------------------------------

    def ping_delay_ms(self, slice_name: str) -> float:
        """One emulated ping between a UE and its SPGW-U (paper Fig. 16).

        RAN base latency both ways + per-hop transport forwarding +
        core control latency, with light jitter.
        """
        ran_rtt = 2.0 * self.cfg.ran.base_latency_ms
        hops = 2 + self.cfg.transport.path_extra_hops[0]
        tn_rtt = 2.0 * hops * self.cfg.transport.hop_latency_ms
        cn_rtt = 2.0 * self.cfg.core.base_latency_ms
        jitter = float(self._rng.gamma(2.0, 0.8))
        return ran_rtt + tn_rtt + cn_rtt + jitter
