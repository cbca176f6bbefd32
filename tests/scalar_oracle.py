"""The scalar per-slice model of one slot: the kernels' oracle.

``repro.engine.kernels.evaluate_rows`` is the only code under ``src/``
that turns (allocation, traffic, channel, fabric conditions) into a
performance number.  Until it was, ``repro.sim`` carried the same
arithmetic a second time as per-slice scalar methods; every function
and report dataclass below is that copy, moved here **verbatim** (only
the imports and the file changed -- ``ast.dump`` of each definition
equals the one at commit ``e297103``) so that it can keep doing the one
job it still has: being the independent reference
``tests/test_engine.py::TestScalarDomainModelsMatchKernels`` holds the
kernels to.  That class is this module's only importer; model-property
tests read the product model instead.

Where the arithmetic were methods they still are, on same-named
subclasses of the product classes that kept the state they read
(``RadioCell``: the PRB budget; ``PhyModel``: the four BLER
parameters; ``TransportFabric``: conditions and path hops;
``CoreNetwork`` / ``EdgeServerPool``: pools, servers and container
shares).  :class:`ScalarSubstrates` -- the only new code -- builds one
set of them shadowing an ``EndToEndNetwork``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import MAX_MCS_OFFSET, NUM_ACTIONS, SliceSpec
from repro.sim import core_network, edge, phy, ran, transport
from repro.sim.apps import AppPerformance
from repro.sim.channel import ChannelProcess
from repro.sim.containers import ContainerRuntime
from repro.sim.phy import NUM_MCS, cqi_to_mcs, mcs_spectral_efficiency
from repro.sim.queueing import RHO_KNEE


# ---- sim/queueing.py ---------------------------------------------------


def queueing_latency_ms(service_ms: float, rho: float) -> float:
    """Sojourn time of a processor-sharing stage at utilisation rho."""
    if service_ms < 0:
        raise ValueError("service_ms must be non-negative")
    if rho < 0:
        rho = 0.0
    if rho < RHO_KNEE:
        return service_ms / (1.0 - rho)
    knee_latency = service_ms / (1.0 - RHO_KNEE)
    slope = service_ms / (1.0 - RHO_KNEE) ** 2
    return knee_latency + slope * (rho - RHO_KNEE)


# ---- sim/phy.py --------------------------------------------------------


@dataclass(frozen=True)
class LinkQuality:
    """Result of a PHY evaluation for one link direction."""

    mcs: int
    spectral_efficiency: float     # bit/s/Hz before HARQ losses
    bler: float                    # first-transmission block error rate
    retransmission_probability: float
    goodput_efficiency: float      # efficiency after HARQ overhead


class PhyModel(phy.PhyModel):
    """The product's four parameters plus the link-level arithmetic."""

    def effective_mcs(self, cqi: int, mcs_offset: int,
                      fixed_mcs: int = -1) -> int:
        """MCS actually used: vanilla MCS from CQI minus the offset.

        A non-negative ``fixed_mcs`` (paper Sec. 7.2 pins MCS 9 for the
        4G/5G comparison) bypasses link adaptation; the offset then
        still applies below the fixed point, mirroring how the RDM's
        custom table composes with a pinned MCS.
        """
        if not 0 <= mcs_offset <= MAX_MCS_OFFSET:
            raise ValueError(
                f"mcs_offset must be in 0..{MAX_MCS_OFFSET}")
        base = fixed_mcs if fixed_mcs >= 0 else cqi_to_mcs(cqi)
        return int(np.clip(base - mcs_offset, 0, NUM_MCS - 1))

    def retransmission_probability(self, mcs_offset: int,
                                   uplink: bool,
                                   channel_margin_db: float = 0.0
                                   ) -> float:
        """First-transmission error probability at a given offset.

        ``channel_margin_db`` shifts the curve: positive margins (better
        channel than the CQI report assumed) reduce the error rate by
        ~a decade per 6 dB.
        """
        if uplink:
            base, decay = self.base_retx_ul, self.uplink_bler_decay
        else:
            base, decay = self.base_retx_dl, self.downlink_bler_decay
        prob = base * decay ** mcs_offset
        prob *= 10.0 ** (-channel_margin_db / 6.0)
        return float(np.clip(prob, 1e-9, 0.99))

    def link_quality(self, cqi: int, mcs_offset: int, uplink: bool,
                     fixed_mcs: int = -1,
                     channel_margin_db: float = 0.0) -> LinkQuality:
        """Full link evaluation for one direction.

        The goodput efficiency folds HARQ retransmissions in as a rate
        discount of ``1 / (1 + p)`` (each errored block consumes one
        extra transmission on average for small ``p``).
        """
        mcs = self.effective_mcs(cqi, mcs_offset, fixed_mcs=fixed_mcs)
        eff = mcs_spectral_efficiency(mcs)
        retx = self.retransmission_probability(
            mcs_offset, uplink, channel_margin_db=channel_margin_db)
        goodput = eff * (1.0 - retx) / (1.0 + retx)
        return LinkQuality(mcs=mcs, spectral_efficiency=eff, bler=retx,
                           retransmission_probability=retx,
                           goodput_efficiency=goodput)


# ---- sim/ran.py --------------------------------------------------------


class Scheduler(enum.Enum):
    """MAC scheduling algorithms selectable per slice and direction."""

    ROUND_ROBIN = 0
    PROPORTIONAL_FAIR = 1
    MAX_CQI = 2

    @classmethod
    def from_action(cls, value: float) -> "Scheduler":
        """Map a continuous action in [0, 1] to a scheduler choice."""
        idx = int(np.clip(value * len(cls), 0, len(cls) - 1))
        return list(cls)[idx]


def scheduler_efficiency(scheduler: Scheduler,
                         efficiencies: Sequence[float]) -> float:
    """Aggregate per-user spectral efficiency under a scheduler.

    * Round robin serves users uniformly -> arithmetic mean.
    * Max-CQI always serves the best instantaneous channel -> maximum
      (shaded slightly toward the mean because even Max-CQI must serve
      retransmissions and control traffic of weaker users).
    * Proportional fair sits between the two; the classic log-utility
      scheduler realises most of the multi-user diversity gain.
    """
    effs = np.asarray(efficiencies, dtype=float)
    if effs.size == 0:
        raise ValueError("need at least one user efficiency")
    mean = float(effs.mean())
    best = float(effs.max())
    if scheduler is Scheduler.ROUND_ROBIN:
        return mean
    if scheduler is Scheduler.MAX_CQI:
        return 0.9 * best + 0.1 * mean
    return 0.6 * best + 0.4 * mean  # PROPORTIONAL_FAIR


@dataclass(frozen=True)
class SliceRadioReport:
    """Per-slot RAN outcome for one slice and direction."""

    prbs: int
    capacity_bps: float
    retransmission_probability: float
    mcs: int
    scheduler: Scheduler


class RadioCell(ran.RadioCell):
    """The product's PRB budget plus the capacity arithmetic."""

    def prbs_for_share(self, share: float, uplink: bool) -> int:
        """Integer PRBs exclusively assigned for a [0, 1] share.

        Rounded to the nearest PRB, with a 1-PRB floor for any non-zero
        request -- the MAC always grants at least one PRB to an active
        bearer, so capacity degrades smoothly instead of cliffing to
        zero at small shares.
        """
        share = float(np.clip(share, 0.0, 1.0))
        total = self._ul_prbs if uplink else self._dl_prbs
        prbs = int(round(share * total))
        if share > 1e-3 and prbs == 0:
            prbs = 1
        return prbs

    def slice_capacity(self, share: float, mcs_offset: int,
                       scheduler: Scheduler, channel: ChannelProcess,
                       uplink: bool) -> SliceRadioReport:
        """Achievable goodput of a slice's exclusive PRB partition.

        capacity = PRBs * PRB_bandwidth * duty * scheduler-aggregated
        goodput-efficiency * (1 - overhead), where duty is the TDD
        fraction of the direction and the goodput efficiency already
        accounts for HARQ retransmissions at the chosen MCS offset.
        """
        cfg = self.cfg
        prbs = self.prbs_for_share(share, uplink)
        duty = cfg.uplink_fraction if uplink else cfg.downlink_fraction
        effs = []
        retx = 0.0
        mcs_used = 0
        for user in channel.users:
            quality = self.phy.link_quality(
                user.cqi, mcs_offset, uplink, fixed_mcs=cfg.fixed_mcs,
                channel_margin_db=user.snr_db - user.mean_snr_db)
            effs.append(quality.goodput_efficiency)
            retx += quality.retransmission_probability
            mcs_used = max(mcs_used, quality.mcs)
        retx /= len(channel.users)
        agg_eff = scheduler_efficiency(scheduler, effs)
        capacity = (prbs * cfg.prb_bandwidth_hz * duty * agg_eff
                    * (1.0 - cfg.overhead))
        return SliceRadioReport(
            prbs=prbs, capacity_bps=float(capacity),
            retransmission_probability=float(retx), mcs=mcs_used,
            scheduler=scheduler)

    def vanilla_capacity(self, channel: ChannelProcess,
                         uplink: bool) -> float:
        """Unsliced capacity of the whole cell (Fig. 5's 'Vanilla').

        Used to verify low-overhead virtualisation: the sum of slice
        capacities at equal shares must approach this value.
        """
        report = self.slice_capacity(
            1.0, 0, Scheduler.ROUND_ROBIN, channel, uplink)
        return report.capacity_bps


# ---- sim/transport.py --------------------------------------------------


@dataclass(frozen=True)
class TransportReport:
    """Per-slot transport outcome for one slice."""

    path_index: int
    hops: int
    rate_cap_bps: float
    achieved_rate_bps: float
    latency_ms: float


class TransportFabric(transport.TransportFabric):
    """The product's conditions and path hops plus per-path reserved
    load, meters and the M/M/1 latency arithmetic."""

    def __init__(self, cfg) -> None:
        super().__init__(cfg)
        self._path_load_bps = np.zeros(self.cfg.num_paths)

    def effective_capacity_bps(self) -> float:
        """Per-link capacity under the current degradation factor."""
        return self.cfg.link_capacity_bps * self.capacity_scale

    def path_index_from_action(self, value: float) -> int:
        """Map the continuous ``U_l`` action in [0, 1] to a path index."""
        idx = int(np.clip(value * self.num_paths, 0,
                          self.num_paths - 1))
        return idx

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


# ---- sim/core_network.py -----------------------------------------------


@dataclass(frozen=True)
class CoreReport:
    """Per-slot user-plane outcome for one slice."""

    processing_rate_pps: float
    offered_rate_pps: float
    latency_ms: float
    utilization: float


class CoreNetwork(core_network.CoreNetwork):
    """The product's pools and container shares plus the SPGW-U
    processor model."""

    def evaluate(self, slice_name: str, offered_rate_bps: float
                 ) -> CoreReport:
        """Process a slice's user-plane load through its SPGW-U pool.

        Service rate scales linearly in the pool's CPU share;
        latency follows M/M/1: ``1/(mu - lambda)`` in packet-service
        units, plus the control-plane base latency.
        """
        pool = self.pool(slice_name)
        cpu = sum(self.runtime.get(n).cpu_share for n in pool)
        mu = cpu * self.cfg.sgwu_capacity_pps
        lam = offered_rate_bps / self.cfg.mean_packet_bits
        if mu <= 0:
            return CoreReport(processing_rate_pps=0.0,
                              offered_rate_pps=float(lam),
                              latency_ms=float("inf"),
                              utilization=1.0 if lam > 0 else 0.0)
        utilization = lam / mu
        latency = self.cfg.base_latency_ms + queueing_latency_ms(
            1e3 / mu, utilization)
        return CoreReport(processing_rate_pps=float(mu),
                          offered_rate_pps=float(lam),
                          latency_ms=float(latency),
                          utilization=float(min(utilization, 1.0)))


# ---- sim/edge.py -------------------------------------------------------


@dataclass(frozen=True)
class EdgeReport:
    """Per-slot edge-compute outcome for one slice."""

    service_rate_ups: float      # compute units served per second
    offered_rate_ups: float
    latency_ms: float
    utilization: float
    ram_penalty: float           # 1.0 = no penalty


class EdgeServerPool(edge.EdgeServerPool):
    """The product's servers and container shares plus the edge
    processor model."""

    def evaluate(self, slice_name: str, offered_rate_ups: float,
                 compute_units_per_request: float = 1.0) -> EdgeReport:
        """Serve a slice's compute load at its current allocation.

        ``offered_rate_ups`` is requests/s; each request costs
        ``compute_units_per_request``.  The RAM penalty divides the
        service rate when the working set (proportional to the offered
        rate) exceeds the allocated RAM.
        """
        container = self.runtime.get(self._container_name(slice_name))
        work_rate = offered_rate_ups * compute_units_per_request
        mu = container.cpu_share * self.cfg.compute_capacity_ups
        required_ram = work_rate * self.cfg.ram_gb_per_ups
        if required_ram > 0 and container.ram_gb < required_ram:
            # Thrashing: service rate degrades with the shortfall ratio.
            ram_penalty = max(container.ram_gb / required_ram, 0.1)
        else:
            ram_penalty = 1.0
        mu_eff = mu * ram_penalty
        if mu_eff <= 0:
            utilization = 1.0 if work_rate > 0 else 0.0
            latency = float("inf") if work_rate > 0 else 0.0
        else:
            utilization = work_rate / mu_eff
            latency = queueing_latency_ms(
                1e3 / mu_eff * compute_units_per_request, utilization)
        return EdgeReport(service_rate_ups=float(mu_eff),
                          offered_rate_ups=float(work_rate),
                          latency_ms=float(latency),
                          utilization=float(min(utilization, 1.0)),
                          ram_penalty=float(ram_penalty))


# ---- sim/apps.py -------------------------------------------------------


@dataclass(frozen=True)
class PipelineState:
    """Everything an app model needs about one slot's pipeline."""

    arrival_rate: float            # requests (users) per second
    ul_capacity_bps: float
    dl_capacity_bps: float
    ul_retx_probability: float
    dl_retx_probability: float
    ran_base_latency_ms: float
    transport_rate_bps: float      # metered cap actually granted
    transport_latency_ms: float
    core_latency_ms: float
    core_capacity_pps: float
    edge_latency_ms: float
    edge_capacity_ups: float
    mean_packet_bits: float = 12e3


def _mm1_latency_ms(payload_bits: float, capacity_bps: float,
                    demand_bps: float) -> float:
    """Transfer latency of one payload over a shared fluid link.

    Service time is ``payload / capacity``, inflated by the shared
    queueing law (:func:`repro.sim.queueing.queueing_latency_ms`):
    M/M/1 below the knee, smooth linear overload above it.
    """
    if capacity_bps <= 0:
        return float("inf")
    rho = demand_bps / capacity_bps
    service_ms = payload_bits / capacity_bps * 1e3
    return queueing_latency_ms(service_ms, rho)


def _satisfaction(spec: SliceSpec, measured: float) -> float:
    """``clip(p/P, 0, 1)`` handling both metric orientations."""
    target = spec.sla.target
    if spec.sla.lower_is_better:
        if measured <= 0:
            return 1.0
        if not np.isfinite(measured):
            return 0.0
        ratio = target / measured
    else:
        ratio = measured / target
    return float(np.clip(ratio, 0.0, 1.0))


def evaluate_mar(spec: SliceSpec, pipe: PipelineState) -> AppPerformance:
    """Round-trip frame latency of the MAR loop.

    uplink frame transfer + transport + core processing + edge feature
    extraction/matching + downlink reply.  HARQ retransmissions add the
    8 ms LTE HARQ round trip weighted by the retransmission probability.
    """
    ul_demand = pipe.arrival_rate * spec.uplink_payload_bits
    dl_demand = pipe.arrival_rate * spec.downlink_payload_bits
    effective_ul = min(pipe.ul_capacity_bps, pipe.transport_rate_bps) \
        if pipe.transport_rate_bps > 0 else 0.0
    ul_ms = _mm1_latency_ms(spec.uplink_payload_bits, effective_ul,
                            ul_demand)
    dl_ms = _mm1_latency_ms(spec.downlink_payload_bits,
                            pipe.dl_capacity_bps, dl_demand)
    harq_ms = 8.0 * (pipe.ul_retx_probability
                     + pipe.dl_retx_probability)
    latency = (pipe.ran_base_latency_ms + ul_ms + dl_ms + harq_ms
               + pipe.transport_latency_ms + pipe.core_latency_ms
               + pipe.edge_latency_ms)
    sat = _satisfaction(spec, latency)
    return AppPerformance(metric=spec.sla.metric, value=float(latency),
                          satisfaction=sat, cost=1.0 - sat)


def evaluate_hvs(spec: SliceSpec, pipe: PipelineState) -> AppPerformance:
    """Delivered FPS of the streaming slice.

    Each concurrent viewer needs ``target_fps * frame_bits`` of
    sustained downlink; the delivered FPS scales with the tightest
    bottleneck among RAN downlink, the transport meter, and core packet
    processing.
    """
    target_fps = spec.sla.target
    demand_bps = (pipe.arrival_rate * target_fps
                  * spec.downlink_payload_bits)
    core_bps = pipe.core_capacity_pps * pipe.mean_packet_bits
    supply_bps = min(pipe.dl_capacity_bps, pipe.transport_rate_bps,
                     core_bps)
    if demand_bps <= 0:
        fps = target_fps
    else:
        fps = target_fps * min(supply_bps / demand_bps, 1.0)
        # Retransmissions skip/delay frames slightly even when
        # bandwidth suffices.
        fps *= 1.0 - 0.5 * pipe.dl_retx_probability
    sat = _satisfaction(spec, fps)
    return AppPerformance(metric=spec.sla.metric, value=float(fps),
                          satisfaction=sat, cost=1.0 - sat)


def evaluate_rdc(spec: SliceSpec, pipe: PipelineState) -> AppPerformance:
    """Radio transmission reliability of the control loop.

    Control messages are single-shot (the loop deadline leaves no room
    for HARQ), so a message survives only if both directions succeed at
    the first attempt; the MCS offset is the knob that buys reliability
    (paper Fig. 6).  If the slice's PRB partitions cannot carry the
    aggregate message rate, excess messages are dropped outright.
    """
    msg_rate_bps = pipe.arrival_rate * spec.uplink_payload_bits
    radio_ok = (1.0 - pipe.ul_retx_probability) \
        * (1.0 - pipe.dl_retx_probability)
    ul_carried = min(pipe.ul_capacity_bps / msg_rate_bps, 1.0) \
        if msg_rate_bps > 0 else 1.0
    dl_carried = min(pipe.dl_capacity_bps / msg_rate_bps, 1.0) \
        if msg_rate_bps > 0 else 1.0
    reliability = radio_ok * ul_carried * dl_carried
    sat = _satisfaction(spec, reliability)
    return AppPerformance(metric=spec.sla.metric,
                          value=float(reliability), satisfaction=sat,
                          cost=1.0 - sat)


_EVALUATORS = {"mar": evaluate_mar, "hvs": evaluate_hvs,
               "rdc": evaluate_rdc}


def evaluate_app(spec: SliceSpec, pipe: PipelineState) -> AppPerformance:
    """Dispatch to the slice's application model."""
    try:
        evaluator = _EVALUATORS[spec.app]
    except KeyError as exc:
        raise ValueError(f"unknown app {spec.app!r}") from exc
    return evaluator(spec, pipe)


# ---- sim/network.py ----------------------------------------------------


@dataclass(frozen=True)
class SliceAllocation:
    """Decoded view of a 10-dim orchestration action."""

    uplink_bandwidth: float
    uplink_mcs_offset: int
    uplink_scheduler: Scheduler
    downlink_bandwidth: float
    downlink_mcs_offset: int
    downlink_scheduler: Scheduler
    transport_bandwidth: float
    transport_path: int
    cpu_allocation: float
    ram_allocation: float

    #: Minimum share every admitted slice is granted on the consumable
    #: resources.  Domain managers never configure a literal zero for an
    #: active bearer/meter/container -- a 0-rate OpenFlow meter or a
    #: 0-CPU cgroup would black-hole the slice entirely -- so requests
    #: below the floor are rounded up to the minimum commitment.
    MIN_SHARE = 0.01

    @classmethod
    def from_action(cls, action: np.ndarray,
                    num_paths: int = 3) -> "SliceAllocation":
        """Decode an action vector in [0, 1]^10.

        Discretised dimensions: MCS offsets round to 0..10, schedulers
        map thirds of [0, 1] to RR/PF/Max-CQI, and the path index maps
        to the transport fabric's reserved paths.  Consumable shares
        are floored at :attr:`MIN_SHARE`.
        """
        arr = np.clip(np.asarray(action, dtype=float), 0.0, 1.0)
        if arr.shape != (NUM_ACTIONS,):
            raise ValueError(
                f"action must have shape ({NUM_ACTIONS},), got {arr.shape}")
        floor = cls.MIN_SHARE
        return cls(
            uplink_bandwidth=max(float(arr[0]), floor),
            uplink_mcs_offset=int(round(arr[1] * MAX_MCS_OFFSET)),
            uplink_scheduler=Scheduler.from_action(arr[2]),
            downlink_bandwidth=max(float(arr[3]), floor),
            downlink_mcs_offset=int(round(arr[4] * MAX_MCS_OFFSET)),
            downlink_scheduler=Scheduler.from_action(arr[5]),
            transport_bandwidth=max(float(arr[6]), floor),
            transport_path=int(np.clip(arr[7] * num_paths, 0,
                                       num_paths - 1)),
            cpu_allocation=max(float(arr[8]), floor),
            ram_allocation=max(float(arr[9]), floor),
        )


# ---- the oracle's substrates over one network (new code) ---------------


class ScalarSubstrates:
    """One set of oracle substrates shadowing ``net``'s current state.

    Same configuration, PHY parameters, fabric conditions and slice
    set; pools, servers and container shares are its own, so driving
    the oracle never writes into the network under test.  Channels are
    not copied: the oracle reads ``net.channels`` directly.
    """

    def __init__(self, net) -> None:
        cfg = net.cfg
        self.cell = RadioCell(cfg.ran)
        self.cell.phy = PhyModel(**vars(net.cell.phy))
        self.fabric = TransportFabric(cfg.transport)
        self.fabric.set_conditions(
            capacity_scale=net.fabric.capacity_scale,
            extra_latency_ms=net.fabric.extra_latency_ms,
            background_load_fraction=net.fabric.background_load_fraction)
        runtime = ContainerRuntime(cfg.edge.total_cpu_cores,
                                   cfg.edge.total_ram_gb)
        self.core = CoreNetwork(cfg.core, runtime=runtime)
        self.edge = EdgeServerPool(cfg.edge, runtime=runtime)
        for name in net.slices:
            self.core.create_slice_pool(name)
            self.edge.create_server(name)
