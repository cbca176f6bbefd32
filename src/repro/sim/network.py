"""The composed end-to-end network: RAN + TN + CN + EN per slot.

:class:`EndToEndNetwork` owns one instance of every substrate (radio
cell, transport fabric, CUPS core, edge pool, per-slice channels) and
evaluates a configuration slot: given each slice's resource allocation
(the 10-dim action) and realised traffic, it produces per-slice
performance/cost plus the usage and state features the agents consume.

Slot evaluation runs through the vectorised engine kernels
(:mod:`repro.engine.kernels`): :meth:`EndToEndNetwork.evaluate_slot` is
the stateless what-if evaluator -- actions and rates in, reports out,
no events, channels, arrivals or episode state -- while *stepping* a
world is :class:`~repro.engine.batch.BatchSimulator`'s job.  The
kernels are the model and they are pure: the substrate objects here
are state and configuration (channels, fabric conditions and path
hops, pools, sessions, containers and their shares) that the kernels
read through the row layout and never write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import NUM_ACTIONS, NetworkConfig, SliceSpec
from repro.sim.apps import AppPerformance
from repro.sim.channel import ChannelBank, ChannelProcess
from repro.sim.containers import ContainerRuntime
from repro.sim.core_network import CoreNetwork
from repro.sim.edge import EdgeServerPool
from repro.sim.ran import RadioCell
from repro.sim.transport import TransportFabric


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
    """One end-to-end infrastructure instance hosting several slices."""

    def __init__(self, cfg: Optional[NetworkConfig] = None,
                 slices: Optional[Sequence[SliceSpec]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cfg = cfg or NetworkConfig()
        self._rng = rng if rng is not None else np.random.default_rng(17)
        self.cell = RadioCell(self.cfg.ran)
        self.fabric = TransportFabric(self.cfg.transport)
        runtime = ContainerRuntime(self.cfg.edge.total_cpu_cores,
                                   self.cfg.edge.total_ram_gb)
        self.core = CoreNetwork(self.cfg.core, runtime=runtime)
        self.edge = EdgeServerPool(self.cfg.edge, runtime=runtime)
        self.slices: Dict[str, SliceSpec] = {}
        self.channels: Dict[str, ChannelProcess] = {}
        self._imsi_counter = 0
        #: Bumped by every slice attach / detach: what holders of
        #: anything derived from the slice set (row layout, channel
        #: bank, a simulator's episode layout) compare to know it is
        #: stale.
        self.churn_count = 0
        #: Cached engine row layout; rebuilt whenever the slice set
        #: changes (see :meth:`slot_rows`).
        self._rows_cache = None
        #: Stacked channel state of the current slice set (the
        #: channels' storage): dropped by every attach / detach and
        #: built on first use (see :meth:`channel_bank`).
        self._bank: Optional[ChannelBank] = None
        if slices:
            for spec in slices:
                self.add_slice(spec)

    # ---- slice lifecycle ---------------------------------------------

    def add_slice(self, spec: SliceSpec) -> None:
        """Create a slice end to end: SPGW-U pool, edge server, UEs."""
        if spec.name in self.slices:
            raise ValueError(f"slice {spec.name!r} already exists")
        self.slices[spec.name] = spec
        self.core.create_slice_pool(spec.name)
        self.edge.create_server(spec.name)
        self.channels[spec.name] = ChannelProcess(
            self.cfg.users_per_slice, self._rng)
        for _ in range(self.cfg.users_per_slice):
            imsi = f"00101{self._imsi_counter:010d}"
            self._imsi_counter += 1
            self.core.hss.provision(imsi, spec.name)
            self.core.attach(imsi)
        self._slice_set_changed()

    def remove_slice(self, name: str) -> None:
        if name not in self.slices:
            raise KeyError(f"no slice {name!r}")
        for session in list(self.core.sessions_of(name)):
            self.core.detach(session.imsi)
            self.core.hss.deprovision(session.imsi)
        self.core.delete_slice_pool(name)
        self.edge.delete_server(name)
        del self.channels[name]
        del self.slices[name]
        self._slice_set_changed()

    def _slice_set_changed(self) -> None:
        self.churn_count += 1
        self._rows_cache = None
        self._bank = None

    @property
    def slice_names(self) -> List[str]:
        return list(self.slices)

    # ---- scenario event hooks -----------------------------------------

    def set_transport_conditions(
            self, capacity_scale: Optional[float] = None,
            extra_latency_ms: Optional[float] = None,
            background_load_fraction: Optional[float] = None) -> None:
        """Inject transport-network faults (see scenario events).

        ``None`` leaves a condition unchanged; use
        :meth:`clear_transport_conditions` to restore nominal state.
        """
        self.fabric.set_conditions(
            capacity_scale=capacity_scale,
            extra_latency_ms=extra_latency_ms,
            background_load_fraction=background_load_fraction)

    def clear_transport_conditions(self) -> None:
        self.fabric.clear_conditions()

    # ---- slot evaluation -----------------------------------------------

    def channel_bank(self) -> ChannelBank:
        """This network's stacked channel state, zero rows without
        slices: built on the first call after a slice attach / detach
        (the channels' state moves into it then), so a network built
        slice by slice stacks its channels once, not once per slice."""
        if self._bank is None:
            self._bank = ChannelBank(list(self.channels.values()),
                                     self.cfg.users_per_slice)
        return self._bank

    def step_channels(self) -> None:
        """Advance every slice's radio channel by one slot.

        One stacked AR(1) update over the channel bank; consumes the
        RNG identically to a per-channel loop (one ``(S, U)`` block
        draw == S sequential size-``U`` draws in slice order).
        """
        self.channel_bank().step(self._rng)

    def slot_rows(self):
        """This network's engine row layout (cached per slice set:
        churn drops it, so a new object *is* a new layout)."""
        if self._rows_cache is None:
            from repro.engine.kernels import rows_for_network

            self._rows_cache = rows_for_network(self)
        return self._rows_cache

    def gather_channel_state(self):
        """Every slice's per-user CQI and channel margin.

        Returns ``(cqi, margin)`` of shape ``(S, users_per_slice)`` in
        slice order; the margin array is the bank's buffer, refilled
        by the next call.
        """
        return self.channel_bank().read()

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
            to have already resolved over-requests (the domain managers
            raise otherwise -- see :mod:`repro.domains`); this method
            evaluates the network as configured.
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
        cqi, margin = self.gather_channel_state()
        out = evaluate_rows(
            self.slot_rows(), WorldConditions.nominal(1).refresh(
                [self.fabric]), matrix, rates, cqi, margin)
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
        hops = self.fabric.path_hops(0)
        tn_rtt = 2.0 * hops * self.cfg.transport.hop_latency_ms
        cn_rtt = 2.0 * self.cfg.core.base_latency_ms
        jitter = float(self._rng.gamma(2.0, 0.8))
        return ran_rtt + tn_rtt + cn_rtt + jitter
