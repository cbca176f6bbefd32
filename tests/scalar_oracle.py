"""The scalar per-slice model of one slot: the kernels' oracle.

``repro.engine.kernels.evaluate_rows`` is the only code under ``src/``
that turns (allocation, traffic, channel, link conditions) into a
performance number.  Until it was, ``repro.sim`` carried the same
arithmetic a second time as per-slice scalar methods; every function
and report dataclass below is that copy, moved here **verbatim** (only
the imports and the file changed -- ``ast.dump`` of each definition
equals the one at commit ``e297103``) so that it can keep doing the one
job it still has: being the independent reference
``tests/test_engine.py::TestScalarDomainModelsMatchKernels`` holds the
kernels to.  That class is its only importer there; model-property
tests read the product model instead.

Where the arithmetic were methods they still are, on same-named
subclasses of private bases.  ``_PhyModel`` (the four BLER
parameters), ``_RadioCell`` (the PRB budget) and ``_TransportFabric``
(link conditions and path hops) are the product classes as they stood
at commit ``dbdcedf``, copied verbatim but for their names (which the
subclasses' ``class`` lines name as their bases), before the
network took over the link conditions and the row layout read
``NetworkConfig`` and module constants directly; the parent
:func:`rows_for_network` and ``WorldConditions.refresh`` (as a
function of its ``self``) that read them are kept beside them, so
``tests/test_sim_ran_transport.py`` holds the product's layout and
conditions to them byte for byte.  The product no longer keeps SPGW-U
pools, edge servers or container shares either, so ``CoreNetwork`` /
``EdgeServerPool`` subclass private bases too: the methods of the
deleted product classes (and of their container runtime) that the two
``evaluate`` methods and the kernels test call, bodies copied
verbatim, with constructors that set only the fields those methods
read.
:class:`ScalarSubstrates` -- the only new code -- builds one set of
them shadowing an ``EndToEndNetwork``.

The ``sim/channel.py`` section is the per-channel AR(1) process the
product's one channel block is held against (its draw verbatim, its
state its own arrays).

The last section is the other scalar copy: one slice's act as it stood
at commit ``acef036``, before the orchestrator stacked its agents
(``repro.core.agent.AgentStack``) -- ``GaussianActorCritic.act`` and
``.value``, ``ProactiveBaselineSwitch.evaluate``,
``OnSlicingAgent.act`` and ``OnSlicingOrchestrator.act_batch`` as
functions of their ``self``, bodies verbatim but for calling one
another here.  ``tests/test_orchestrator_slabs.py`` holds the stack
to them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import (
    MAX_MCS_OFFSET,
    NUM_ACTIONS,
    CoreConfig,
    EdgeConfig,
    RANConfig,
    SliceSpec,
    TransportConfig,
)
from repro.core.agent import ActDecision
from repro.core.orchestrator import coordinate_actions
from repro.core.switching import SwitchDecision
from repro.engine.kernels import APP_CODES, SliceRows, WorldConditions
from repro.sim.apps import AppPerformance
from repro.sim.channel import snr_to_cqi_array
from repro.sim.env import SliceObservation
from repro.sim.phy import NUM_MCS, cqi_to_mcs, mcs_spectral_efficiency


# ---- sim/queueing.py ---------------------------------------------------

#: Utilisation where M/M/1 hands over to the linear overload regime.
RHO_KNEE = 0.95


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


class _PhyModel:
    """Parameters of the link-level model tying CQI, MCS offset and
    retransmissions (read by the kernels' row layout).

    Parameters
    ----------
    uplink_bler_decay / downlink_bler_decay:
        Per-offset-step multiplicative decay of the retransmission
        probability.  Fitted to the paper's Fig. 6: the retransmission
        probability falls from ~1e-1 to ~1e-5 over offsets 0..10 in the
        uplink (decay ~0.40/step) and from ~1.5e-2 to ~1.5e-4 in the
        flatter downlink (~0.63/step).
    base_retx_ul / base_retx_dl:
        Retransmission probability at offset 0 under nominal channel
        conditions.
    """

    def __init__(self, base_retx_ul: float = 0.12,
                 base_retx_dl: float = 0.015,
                 uplink_bler_decay: float = 0.40,
                 downlink_bler_decay: float = 0.63) -> None:
        if not 0 < base_retx_ul < 1 or not 0 < base_retx_dl < 1:
            raise ValueError("base retransmission probs must be in (0,1)")
        if not 0 < uplink_bler_decay < 1 or not 0 < downlink_bler_decay < 1:
            raise ValueError("decay factors must be in (0,1)")
        self.base_retx_ul = base_retx_ul
        self.base_retx_dl = base_retx_dl
        self.uplink_bler_decay = uplink_bler_decay
        self.downlink_bler_decay = downlink_bler_decay


class PhyModel(_PhyModel):
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


# ---- sim/channel.py ----------------------------------------------------


@dataclass
class UserChannel:
    """Snapshot of one user's channel (see :attr:`ChannelProcess.users`)."""

    mean_snr_db: float
    snr_db: float
    cqi: int


class ChannelProcess:
    """AR(1) SNR evolution for a population of users: the per-channel
    reference ``repro.sim.channel.FleetChannelBank`` is held against.

    The constructor's draw is the product's historical one, verbatim;
    the state is this object's own arrays, and :meth:`step` is the
    historical ``mean + rho * (snr - mean) + sigma * z`` written out
    (the product's in-place ``_ar1_step`` is the same association).
    """

    def __init__(self, num_users: int, rng: np.random.Generator,
                 mean_snr_db: float = 18.0, snr_spread_db: float = 4.0,
                 correlation: float = 0.9,
                 innovation_std_db: float = 1.5) -> None:
        if num_users <= 0:
            raise ValueError("num_users must be positive")
        if not 0.0 <= correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")
        self._rng = rng
        self.num_users = num_users
        self.correlation = correlation
        self.innovation_std_db = innovation_std_db
        # The historical scalar path drew, per user, mean then snr --
        # an interleaved stream of standard normals.  One array draw
        # consumes the generator identically; the even entries scale
        # into means, the odd ones into initial SNRs.
        z = rng.standard_normal(2 * num_users)
        self.mean_snr_db = mean_snr_db + snr_spread_db * z[0::2]
        self.snr_db = self.mean_snr_db + innovation_std_db * z[1::2]
        self.cqi = snr_to_cqi_array(self.snr_db)

    @classmethod
    def holding(cls, mean_snr_db: np.ndarray, snr_db: np.ndarray,
                cqi: np.ndarray) -> "ChannelProcess":
        """A process over copies of one network row (never stepped)."""
        channel = cls.__new__(cls)
        channel.num_users = len(snr_db)
        channel.mean_snr_db = np.array(mean_snr_db)
        channel.snr_db = np.array(snr_db)
        channel.cqi = np.array(cqi)
        return channel

    @property
    def users(self) -> List[UserChannel]:
        """Per-user snapshot views (read-only; state lives in arrays)."""
        mean, snr, cqi = self.mean_snr_db, self.snr_db, self.cqi
        return [UserChannel(mean_snr_db=float(mean[i]),
                            snr_db=float(snr[i]), cqi=int(cqi[i]))
                for i in range(self.num_users)]

    def step(self) -> None:
        """Advance every user's channel by one configuration slot."""
        rho = self.correlation
        sigma = self.innovation_std_db * np.sqrt(1.0 - rho ** 2)
        z = self._rng.standard_normal(self.num_users)
        self.snr_db = (self.mean_snr_db
                       + rho * (self.snr_db - self.mean_snr_db)
                       + sigma * z)
        self.cqi = snr_to_cqi_array(self.snr_db)


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


class _RadioCell:
    """One eNB/gNB with exclusive PRB partitioning between slices."""

    def __init__(self, cfg: RANConfig) -> None:
        self.cfg = cfg
        self.phy = PhyModel()
        #: Useful PRB-seconds per second in each direction (TDD split).
        self._dl_prbs = cfg.num_prbs
        self._ul_prbs = cfg.num_prbs

    @property
    def downlink_prbs(self) -> int:
        return self._dl_prbs

    @property
    def uplink_prbs(self) -> int:
        return self._ul_prbs


class RadioCell(_RadioCell):
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


class _TransportFabric:
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


class TransportFabric(_TransportFabric):
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


# ---- the container runtime (run / update / get) ------------------------


@dataclass
class _Container:
    """One running container with its resource limits."""

    name: str
    image: str
    cpu_share: float       # fraction of total host CPU in [0, 1]
    ram_gb: float
    labels: Dict[str, str] = field(default_factory=dict)
    running: bool = True


class _ContainerRuntime:
    """Named containers with CPU-share and RAM limits."""

    def __init__(self, total_cpu_cores: float, total_ram_gb: float
                 ) -> None:
        if total_cpu_cores <= 0 or total_ram_gb <= 0:
            raise ValueError("host capacities must be positive")
        self.total_cpu_cores = total_cpu_cores
        self.total_ram_gb = total_ram_gb
        self._containers: Dict[str, _Container] = {}

    def run(self, name: str, image: str, cpu_share: float = 0.0,
            ram_gb: float = 0.0,
            labels: Optional[Dict[str, str]] = None) -> _Container:
        """``docker run`` -- instantiate a named container."""
        if name in self._containers:
            raise ValueError(f"container {name!r} already exists")
        container = _Container(name=name, image=image,
                               cpu_share=float(cpu_share),
                               ram_gb=float(ram_gb),
                               labels=dict(labels or {}))
        self._containers[name] = container
        return container

    def update(self, name: str, cpu_share: Optional[float] = None,
               ram_gb: Optional[float] = None) -> _Container:
        """``docker update`` -- adjust resources of a running container."""
        container = self.get(name)
        if cpu_share is not None:
            if cpu_share < 0:
                raise ValueError("cpu_share must be non-negative")
            container.cpu_share = float(cpu_share)
        if ram_gb is not None:
            if ram_gb < 0:
                raise ValueError("ram_gb must be non-negative")
            container.ram_gb = float(ram_gb)
        return container

    def get(self, name: str) -> _Container:
        try:
            return self._containers[name]
        except KeyError as exc:
            raise KeyError(f"no container {name!r}") from exc


# ---- the CUPS core's SPGW-U pools --------------------------------------


class _CoreNetwork:
    """The CUPS core's per-slice SPGW-U pools (no HSS, sessions or
    control-plane containers: nothing here reads them)."""

    def __init__(self, cfg: CoreConfig, runtime: _ContainerRuntime
                 ) -> None:
        self.cfg = cfg
        self.runtime = runtime
        self._pools: Dict[str, List[str]] = {}

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
        return list(names)

    def pool(self, slice_name: str) -> Sequence[str]:
        try:
            return tuple(self._pools[slice_name])
        except KeyError as exc:
            raise KeyError(f"slice {slice_name!r} has no pool") from exc

    def set_slice_resources(self, slice_name: str, cpu_share: float,
                            ram_gb: float) -> None:
        """Apply ``docker update`` across the slice's SPGW-U pool."""
        pool = self.pool(slice_name)
        per_cpu = float(np.clip(cpu_share, 0.0, 1.0)) / len(pool)
        per_ram = max(ram_gb, 0.0) / len(pool)
        for name in pool:
            self.runtime.update(name, cpu_share=per_cpu, ram_gb=per_ram)



@dataclass(frozen=True)
class CoreReport:
    """Per-slot user-plane outcome for one slice."""

    processing_rate_pps: float
    offered_rate_pps: float
    latency_ms: float
    utilization: float


class CoreNetwork(_CoreNetwork):
    """The SPGW-U pools and container shares plus the SPGW-U
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


# ---- the edge servers --------------------------------------------------


class _EdgeServerPool:
    """Per-slice edge compute containers on one workstation host."""

    def __init__(self, cfg: EdgeConfig, runtime: _ContainerRuntime
                 ) -> None:
        self.cfg = cfg
        self.runtime = runtime
        self._slices: Dict[str, str] = {}

    def create_server(self, slice_name: str) -> str:
        """Instantiate the slice's edge container (idempotent per slice)."""
        if slice_name in self._slices:
            raise ValueError(f"slice {slice_name!r} already has a server")
        name = f"edge-{slice_name}"
        self.runtime.run(name, image="edge-app", cpu_share=0.0,
                         ram_gb=0.0, labels={"slice": slice_name})
        self._slices[slice_name] = name
        return name

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



@dataclass(frozen=True)
class EdgeReport:
    """Per-slot edge-compute outcome for one slice."""

    service_rate_ups: float      # compute units served per second
    offered_rate_ups: float
    latency_ms: float
    utilization: float
    ram_penalty: float           # 1.0 = no penalty


class EdgeServerPool(_EdgeServerPool):
    """The edge servers and container shares plus the edge
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

    Same configuration, link conditions and slice set; pools, servers
    and container shares are its own, so driving the oracle never
    writes into the network under test.  ``channels`` holds one
    :class:`ChannelProcess` per slice over copies of the network's
    channel rows.  With ``cfg``, ``slices``, ``slice_names``, ``cell``
    and ``fabric`` it is also a network as the parent
    :func:`rows_for_network` read one.
    """

    def __init__(self, net) -> None:
        cfg = net.cfg
        self.cfg = cfg
        self.slices = dict(net.slices)
        self.slice_names = list(net.slices)
        self.cell = RadioCell(cfg.ran)
        self.fabric = TransportFabric(cfg.transport)
        self.fabric.set_conditions(
            capacity_scale=net.capacity_scale,
            extra_latency_ms=net.extra_latency_ms,
            background_load_fraction=net.background_load_fraction)
        runtime = _ContainerRuntime(cfg.edge.total_cpu_cores,
                                    cfg.edge.total_ram_gb)
        self.core = CoreNetwork(cfg.core, runtime=runtime)
        self.edge = EdgeServerPool(cfg.edge, runtime=runtime)
        self.channels = {}
        for row, name in enumerate(net.slices):
            self.core.create_slice_pool(name)
            self.edge.create_server(name)
            self.channels[name] = ChannelProcess.holding(
                net.mean_snr_db[row], net.snr_db[row], net.cqi[row])


# ---- engine/kernels.py's row layout and conditions at commit dbdcedf --


def rows_for_network(network) -> SliceRows:
    """Build the static row constants of one world's current slices,
    as world 0 of a one-world bundle.

    ``network`` is an :class:`~repro.sim.network.EndToEndNetwork`;
    rows follow ``network.slice_names`` order (managed and background
    churn slices alike -- the caller masks, exactly as the scalar
    simulator reports only managed slices).
    """
    cfg = network.cfg
    phy = network.cell.phy
    names = list(network.slice_names)
    specs = [network.slices[name] for name in names]
    n = len(names)

    def const(value, dtype=np.float64):
        return np.full(n, value, dtype=dtype)

    def pair(uplink, downlink):
        return np.full((n, 2), (uplink, downlink), dtype=np.float64)

    hops = np.asarray(
        [network.fabric.path_hops(k)
         for k in range(network.fabric.num_paths)], dtype=np.intp)
    return SliceRows(
        names=names,
        metrics=[spec.sla.metric for spec in specs],
        world=np.zeros(n, dtype=np.intp),
        num_worlds=1,
        app=np.asarray([APP_CODES[spec.app] for spec in specs],
                       dtype=np.intp),
        max_arrival=np.asarray([spec.max_arrival_rate
                                for spec in specs]),
        payload_bits=np.asarray(
            [(spec.uplink_payload_bits, spec.downlink_payload_bits)
             for spec in specs], dtype=np.float64).reshape(n, 2),
        sum_bits=np.asarray([spec.uplink_payload_bits
                             + spec.downlink_payload_bits
                             for spec in specs]),
        compute_units=np.asarray([spec.compute_units
                                  for spec in specs]),
        sla_target=np.asarray([spec.sla.target for spec in specs]),
        cost_threshold=np.asarray([spec.sla.cost_threshold
                                   for spec in specs]),
        lower_better=np.asarray([spec.sla.lower_is_better
                                 for spec in specs], dtype=bool),
        prbs_total=pair(network.cell.uplink_prbs,
                        network.cell.downlink_prbs),
        prb_bandwidth_hz=const(cfg.ran.prb_bandwidth_hz),
        duty=pair(cfg.ran.uplink_fraction, cfg.ran.downlink_fraction),
        overhead=const(cfg.ran.overhead),
        fixed_mcs=const(cfg.ran.fixed_mcs, dtype=np.intp),
        ran_base_latency_ms=const(cfg.ran.base_latency_ms),
        base_retx=pair(phy.base_retx_ul, phy.base_retx_dl),
        bler_decay=pair(phy.uplink_bler_decay, phy.downlink_bler_decay),
        link_capacity_bps=const(cfg.transport.link_capacity_bps),
        hop_latency_ms=const(cfg.transport.hop_latency_ms),
        num_paths=const(network.fabric.num_paths, dtype=np.intp),
        path_hops=hops[None, :],
        link_capacity_w=np.asarray([cfg.transport.link_capacity_bps]),
        sgwu_capacity_pps=const(cfg.core.sgwu_capacity_pps),
        num_sgwu=const(cfg.core.num_sgwu_per_slice, dtype=np.intp),
        core_base_latency_ms=const(cfg.core.base_latency_ms),
        mean_packet_bits=const(cfg.core.mean_packet_bits),
        edge_capacity_ups=const(cfg.edge.compute_capacity_ups),
        total_ram_gb=const(cfg.edge.total_ram_gb),
        ram_gb_per_ups=const(cfg.edge.ram_gb_per_ups),
        users=const(cfg.users_per_slice, dtype=np.intp),
    )


def refresh(self, fabrics) -> "WorldConditions":
    """Re-read the fabrics into the existing buffers (no allocs).

    Scalar element stores only, so a per-slot caller (the batch
    engine's hot loop) can keep one instance alive instead of
    rebuilding three arrays every slot.
    """
    capacity = self.capacity_scale
    extra = self.extra_latency_ms
    background = self.background_load_fraction
    for index, fabric in enumerate(fabrics):
        capacity[index] = fabric.capacity_scale
        extra[index] = fabric.extra_latency_ms
        background[index] = fabric.background_load_fraction
    return self


# ---- one slice's act at commit acef036 (core/, rl/ppo.py) --------------


def model_act(self, state: np.ndarray, deterministic: bool = False
              ) -> Dict[str, np.ndarray]:
    """Sample (or take the mean) action for a single state.

    Returns a dict with ``action``, ``mean``, ``log_prob`` and
    ``value`` -- everything the rollout buffer needs.
    """
    state = np.asarray(state, dtype=np.float64)
    mean = self.actor.predict(state)
    if deterministic:
        action = np.clip(mean, 0.0, 1.0)
    else:
        action = self.dist.sample(mean, self._rng)
    log_prob = float(self.dist.log_prob(mean, action))
    value = float(self.critic.predict(state)[0])
    return {"action": action, "mean": mean,
            "log_prob": log_prob, "value": value}


def model_value(self, state: np.ndarray) -> float:
    return float(self.critic.predict(
        np.asarray(state, dtype=np.float64))[0])


def evaluate(self, state: np.ndarray, cumulative_cost: float,
             slot: int) -> SwitchDecision:
    """Eq. 8: decide which policy acts at this slot."""
    threshold = self.horizon * self.cost_threshold
    if not self.cfg.enabled:
        return SwitchDecision(False, cumulative_cost, threshold,
                              0.0, 0.0, False)
    if self._active:
        return SwitchDecision(True, cumulative_cost, threshold,
                              0.0, 0.0, False)
    mu, sigma = 0.0, 0.0
    if self.cfg.use_estimator:
        mu, sigma = self.estimator.predict(state)
        if self.cfg.estimator_noise_std > 0:
            mu += float(self._rng.normal(
                0.0, self.cfg.estimator_noise_std))
        mu = max(mu, 0.0)
    expected = cumulative_cost + mu + self.cfg.eta * sigma
    triggered = expected >= threshold
    if triggered:
        self._active = True
        self._switch_slot = slot
    return SwitchDecision(triggered, expected, threshold, mu, sigma,
                          triggered)


def act(self, observation: SliceObservation,
        deterministic: bool = False) -> ActDecision:
    """Choose the slot's action: Eq. 8 switch, then pi_theta/pi_b."""
    state = observation.vector()
    decision = evaluate(self.switch, state, self._cum_cost, self._slot)
    if decision.newly_triggered and not self._truncated:
        # Truncate the pi_theta episode with a critic bootstrap at
        # the truncation slot (paper Sec. 3).
        self.buffer.end_episode(
            bootstrap_value=model_value(self.model, state))
        self._truncated = True
    if decision.use_baseline:
        action = np.asarray(self.baseline.act(observation),
                            dtype=float)
        self._pending = {"state": state, "action": action,
                         "from_baseline": True}
        return ActDecision(action=action, from_baseline=True,
                           switch=decision)
    sampled = model_act(self.model, state, deterministic=deterministic)
    self._pending = {"state": state, "from_baseline": False,
                     **sampled}
    return ActDecision(action=sampled["action"],
                       from_baseline=False, switch=decision,
                       log_prob=sampled["log_prob"],
                       value=sampled["value"])


def act_batch(self, states: np.ndarray,
              slice_names: List[str]) -> List[np.ndarray]:
    """:meth:`run_episode`'s batch policy: the agents act on their
    rows (in ``self.agents`` order), then the slot is coordinated."""
    rows = dict(zip(slice_names, states))
    proposals = {
        name: act(agent, SliceObservation(*rows[name].tolist()),
                  deterministic=self._deterministic).action
        for name, agent in self.agents.items()}
    mod_cfg = self.cfg.agent.modifier
    coordination = coordinate_actions(
        rows, proposals, self.agents, self.managers.coordinators,
        max_rounds=mod_cfg.max_coordination_rounds,
        tolerance=mod_cfg.tolerance,
        use_projection=mod_cfg.use_projection)
    self._rounds.append(coordination.rounds)
    return [coordination.actions[name] for name in slice_names]
