"""Configuration dataclasses shared across the OnSlicing reproduction.

Every tunable of the system lives here so experiments are reproducible
from a single object graph.  The defaults mirror the paper's testbed:

* three slices (MAR, HVS, RDC) with the SLA targets of Sec. 7.1,
* a 96-slot (24 h, 15-min interval) episode,
* SLA threshold ``C_max = 5 %`` of cumulative cost,
* 128x64x32 fully-connected policy networks with sigmoid actor heads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Ordered names of the ten orchestration action dimensions (paper Sec. 3).
ACTION_NAMES: Tuple[str, ...] = (
    "uplink_bandwidth",       # U_u  -- share of uplink PRBs
    "uplink_mcs_offset",      # U_m  -- uplink MCS offset (0..10 discretised)
    "uplink_scheduler",       # U_a  -- uplink scheduling algorithm choice
    "downlink_bandwidth",     # U_d  -- share of downlink RBGs
    "downlink_mcs_offset",    # U_s  -- downlink MCS offset (0..10 discretised)
    "downlink_scheduler",     # U_g  -- downlink scheduling algorithm choice
    "transport_bandwidth",    # U_b  -- share of transport link capacity
    "transport_path",         # U_l  -- reserved path in TN (discretised)
    "cpu_allocation",         # U_c  -- CPU share for SPGW-U + edge server
    "ram_allocation",         # U_r  -- RAM share for SPGW-U + edge server
)

#: Indices of action dimensions that count toward the resource-usage
#: reward (paper Eq. 9): U_u + U_d + U_b + U_l + U_c + U_r.  The
#: scheduler choices and MCS offsets are excluded because their impact
#: on usage is indirect.
USAGE_ACTION_INDICES: Tuple[int, ...] = (0, 3, 6, 7, 8, 9)

#: Indices that are *not* consumable resources (schedulers, MCS offsets).
NON_RESOURCE_INDICES: Tuple[int, ...] = (1, 2, 4, 5)

NUM_ACTIONS = len(ACTION_NAMES)

#: Maximum MCS offset supported by the RDM's custom CQI-MCS tables.
MAX_MCS_OFFSET = 10

#: Values every ``engine=`` argument accepts.  There is one stepper
#: (:class:`~repro.engine.batch.BatchSimulator`); the value only picks
#: the batch width of a call: "vector" steps all its worlds in one
#: lockstep batch, "scalar" one batch per world.  A world steps
#: bit-identically alone and inside a batch, so results are equal.
ENGINES: Tuple[str, ...] = ("scalar", "vector")


@dataclass(frozen=True)
class SliceSLA:
    """Service-level agreement of a slice.

    Attributes
    ----------
    metric:
        Name of the performance metric (``latency_ms``, ``fps``,
        ``reliability``).
    target:
        Required value ``P`` in Eq. 10 (e.g. 500 ms, 30 FPS, 0.99999).
    cost_threshold:
        ``C_max`` -- the statistical SLA threshold on the mean per-slot
        cost over an episode (paper uses 5 %).
    lower_is_better:
        True for latency-style metrics where smaller measured values are
        better; the satisfaction ratio then uses ``target / measured``.
    """

    metric: str
    target: float
    cost_threshold: float = 0.05
    lower_is_better: bool = False

    def __post_init__(self) -> None:
        # A zero or NaN target makes every satisfaction ratio (and so
        # Eq. 10's cost) NaN; a zero C_max divides the cost budget
        # feature by zero.
        for name in ("target", "cost_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"SliceSLA.{name} must be finite and > 0, "
                    f"got {value!r}")

    def violated(self, mean_cost: float) -> bool:
        """The episode SLA verdict: mean per-slot cost above ``C_max``."""
        return mean_cost > self.cost_threshold


@dataclass(frozen=True)
class SliceSpec:
    """Static description of one network slice and its application."""

    name: str
    app: str                       # "mar" | "hvs" | "rdc"
    sla: SliceSLA
    max_arrival_rate: float        # users/s scale for the traffic trace
    #: Mean payload sizes in bits used by the app model.
    uplink_payload_bits: float = 0.0
    downlink_payload_bits: float = 0.0
    #: CPU work units per request at the edge (MAR feature extraction etc).
    compute_units: float = 0.0

    def __post_init__(self) -> None:
        if self.app not in ("mar", "hvs", "rdc"):
            raise ValueError(f"unknown app {self.app!r}")
        if self.max_arrival_rate <= 0:
            raise ValueError("max_arrival_rate must be positive")


def mar_slice_spec(name: str = "MAR") -> SliceSpec:
    """MAR slice: 540p frames uplink, ORB feature extraction at the edge.

    SLA: average round-trip frame latency <= 500 ms (delay sensitive).
    """
    return SliceSpec(
        name=name,
        app="mar",
        sla=SliceSLA(metric="latency_ms", target=500.0, lower_is_better=True),
        max_arrival_rate=5.0,
        uplink_payload_bits=8e5,      # ~100 kB compressed 540p frame
        downlink_payload_bits=8e3,    # matched-object reply
        compute_units=1.0,
    )


def hvs_slice_spec(name: str = "HVS") -> SliceSpec:
    """HD video streaming slice: 1080p downlink stream, SLA 30 FPS."""
    return SliceSpec(
        name=name,
        app="hvs",
        sla=SliceSLA(metric="fps", target=30.0),
        max_arrival_rate=2.0,
        uplink_payload_bits=4e3,      # player feedback
        downlink_payload_bits=1.4e5,  # ~4.2 Mbps @ 30fps -> bits/frame
        compute_units=0.05,
    )


def rdc_slice_spec(name: str = "RDC") -> SliceSpec:
    """Reliable distant control slice: 1 kbit messages, 99.999 % reliability."""
    return SliceSpec(
        name=name,
        app="rdc",
        sla=SliceSLA(metric="reliability", target=0.99999),
        max_arrival_rate=100.0,
        uplink_payload_bits=1e3,
        downlink_payload_bits=1e3,
        compute_units=0.01,
    )


def default_slice_specs() -> List[SliceSpec]:
    """The paper's three evaluation slices (Sec. 7.1)."""
    return [mar_slice_spec(), hvs_slice_spec(), rdc_slice_spec()]


#: Canonical spec builder per application kind.
SLICE_SPEC_BUILDERS = {
    "mar": mar_slice_spec,
    "hvs": hvs_slice_spec,
    "rdc": rdc_slice_spec,
}


def slice_spec_for_app(app: str, name: Optional[str] = None,
                       arrival_scale: float = 1.0) -> SliceSpec:
    """Instantiate a slice spec from one of the paper's app templates.

    ``arrival_scale`` scales the template's peak arrival rate, which is
    how scenario definitions populate a cell with N > 3 slices without
    over-running the fixed infrastructure (N copies at scale ~3/N offer
    roughly the paper's aggregate load).
    """
    try:
        builder = SLICE_SPEC_BUILDERS[app]
    except KeyError as exc:
        raise ValueError(f"unknown app {app!r}; expected one of "
                         f"{tuple(SLICE_SPEC_BUILDERS)}") from exc
    if arrival_scale <= 0:
        raise ValueError("arrival_scale must be positive")
    spec = builder(name) if name is not None else builder()
    return dataclasses.replace(
        spec, max_arrival_rate=spec.max_arrival_rate * arrival_scale)


def _check_quantity(cfg, name: str, positive: bool = False) -> None:
    """Refuse a non-finite or negative field of ``cfg`` (a capacity, a
    latency, a size), naming it.  Zero is legal unless ``positive``: a
    dead link, an idle edge, a stalled SGW-U, no added latency."""
    value = getattr(cfg, name)
    if not (math.isfinite(value) and (value > 0 if positive
                                      else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{type(cfg).__name__}.{name} must be finite "
                         f"and {bound}, got {value!r}")


@dataclass(frozen=True)
class RANConfig:
    """Radio access network parameters.

    Defaults model the paper's 4G LTE cell: 20 MHz / 100 PRBs at 2.6 GHz.
    The 5G NR variant uses 40 MHz / 106 PRBs at 30 kHz subcarrier spacing
    with the TDD split of Sec. 7.2 ("Performance in 5G").
    """

    technology: str = "lte"           # "lte" | "nr"
    num_prbs: int = 100
    prb_bandwidth_hz: float = 180e3   # LTE PRB; NR@30kHz SCS uses 360 kHz
    #: Fraction of slots/symbols available for DL and UL (TDD split).
    downlink_fraction: float = 0.6
    uplink_fraction: float = 0.4
    #: Fixed MCS index if >= 0 (paper pins MCS 9 for the 4G/5G comparison).
    fixed_mcs: int = -1
    #: PHY+MAC overhead discount on achievable rate.
    overhead: float = 0.20
    #: Base one-way RAN latency in ms (scheduling + HARQ pipeline).
    base_latency_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.technology not in ("lte", "nr"):
            raise ValueError(f"unknown RAN technology {self.technology!r}")
        if self.num_prbs <= 0:
            raise ValueError("num_prbs must be positive")
        for name in ("downlink_fraction", "uplink_fraction"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"RANConfig.{name} must be in (0, 1), "
                                 f"got {value!r}")
        if self.downlink_fraction + self.uplink_fraction > 1:
            raise ValueError(
                "RANConfig.downlink_fraction + RANConfig.uplink_fraction "
                "must be <= 1 (they split one TDD frame), got "
                f"{self.downlink_fraction!r} + {self.uplink_fraction!r}")
        if not 0 <= self.overhead < 1:
            raise ValueError(
                f"RANConfig.overhead must be in [0, 1), got "
                f"{self.overhead!r}")
        _check_quantity(self, "prb_bandwidth_hz", positive=True)
        _check_quantity(self, "base_latency_ms")


def lte_ran_config() -> RANConfig:
    """The testbed eNB: 2.6 GHz, 20 MHz, 100 PRBs."""
    return RANConfig(technology="lte", num_prbs=100,
                     prb_bandwidth_hz=180e3, base_latency_ms=10.5)


def nr_ran_config() -> RANConfig:
    """The testbed gNB: 3.5 GHz, 40 MHz, 106 PRBs @ 30 kHz SCS.

    TDD configuration: 5 slots + 6 symbols DL, 4 slots + 4 symbols UL out
    of 10 slots -> DL fraction ~0.54, UL fraction ~0.43 (paper Sec. 7.2).
    """
    return RANConfig(technology="nr", num_prbs=106,
                     prb_bandwidth_hz=360e3, downlink_fraction=0.54,
                     uplink_fraction=0.43, base_latency_ms=2.5)


@dataclass(frozen=True)
class TransportConfig:
    """Transport network parameters (Ruckus ICX 7150-C12P substitute)."""

    link_capacity_bps: float = 1e9    # 1 Gbps per port
    num_paths: int = 3
    #: Per-hop forwarding latency in ms.
    hop_latency_ms: float = 0.5
    #: Extra hops of the k-th alternative path relative to the shortest.
    path_extra_hops: Tuple[int, ...] = (0, 1, 2)

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise ValueError(
                f"TransportConfig.num_paths must be >= 1, got "
                f"{self.num_paths!r}")
        if self.num_paths != len(self.path_extra_hops):
            raise ValueError("TransportConfig.path_extra_hops must list "
                             "one entry per path")
        # Integers: the kernels cast the hops to intp while the ping
        # delay reads them as they are, so 0.5 would mean two things.
        if any(not isinstance(extra, numbers.Integral) or extra < 0
               for extra in self.path_extra_hops):
            raise ValueError(
                f"TransportConfig.path_extra_hops must be integers >= 0 "
                f"on every path, got {self.path_extra_hops!r}")
        _check_quantity(self, "link_capacity_bps")
        _check_quantity(self, "hop_latency_ms")


@dataclass(frozen=True)
class CoreConfig:
    """CUPS core network parameters."""

    #: Packet-processing capacity of one fully-provisioned SPGW-U, in
    #: packets/s (Docker on the Intel i7 workstation).
    sgwu_capacity_pps: float = 2.0e5
    num_sgwu_per_slice: int = 2
    #: Base control/user-plane latency in ms.
    base_latency_ms: float = 2.0
    mean_packet_bits: float = 12e3    # 1500-byte packets

    def __post_init__(self) -> None:
        if self.num_sgwu_per_slice < 1:
            raise ValueError(
                f"CoreConfig.num_sgwu_per_slice must be >= 1, got "
                f"{self.num_sgwu_per_slice!r}")
        _check_quantity(self, "sgwu_capacity_pps")
        _check_quantity(self, "base_latency_ms")
        _check_quantity(self, "mean_packet_bits", positive=True)


@dataclass(frozen=True)
class EdgeConfig:
    """Edge server parameters (co-located with SPGW-U containers)."""

    #: Compute-unit throughput at 100 % CPU (MAR ORB extraction ~ 20/s on
    #: the i7 workstation per the DARE/MAR literature the paper cites).
    compute_capacity_ups: float = 40.0
    total_cpu_cores: float = 8.0
    total_ram_gb: float = 32.0
    #: RAM (GB) needed per unit of sustained request throughput before
    #: swapping penalties kick in.
    ram_gb_per_ups: float = 0.25

    def __post_init__(self) -> None:
        _check_quantity(self, "compute_capacity_ups")
        _check_quantity(self, "total_ram_gb")


@dataclass(frozen=True)
class NetworkConfig:
    """Composite end-to-end infrastructure description."""

    ran: RANConfig = field(default_factory=lte_ran_config)
    transport: TransportConfig = field(default_factory=TransportConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    edge: EdgeConfig = field(default_factory=EdgeConfig)
    #: Number of users each slice serves (per-slice UE population used
    #: for channel realisations).
    users_per_slice: int = 3

    def __post_init__(self) -> None:
        if self.users_per_slice < 1:
            raise ValueError(
                f"NetworkConfig.users_per_slice must be >= 1, got "
                f"{self.users_per_slice!r}")


@dataclass(frozen=True)
class TrafficConfig:
    """Telecom-Italia-style synthetic trace parameters (Sec. 7.1)."""

    slot_minutes: float = 15.0
    slots_per_episode: int = 96       # 24 hours
    #: Diurnal profile: morning/evening peak hours.
    morning_peak_hour: float = 10.0
    evening_peak_hour: float = 20.0
    night_floor: float = 0.15         # fraction of peak at night
    #: Multiplicative log-normal noise sigma on each 10-min bin.
    noise_sigma: float = 0.18
    weekly_modulation: float = 0.12   # weekend dampening amplitude
    #: Seed for the synthesizer's own noise stream when the caller does
    #: not inject a Generator (kept at the historical value so default
    #: traces are unchanged).
    seed: int = 11

    def __post_init__(self) -> None:
        if self.slots_per_episode < 1:
            raise ValueError(
                "slots_per_episode must be >= 1, got "
                f"{self.slots_per_episode}")


@dataclass(frozen=True)
class PolicyNetConfig:
    """Architecture of all policy networks (paper Sec. 6: 128x64x32)."""

    hidden_sizes: Tuple[int, ...] = (128, 64, 32)
    activation: str = "relu"
    actor_output_activation: str = "sigmoid"  # actions in [0, 1]


@dataclass(frozen=True)
class PPOConfig:
    """Hyper-parameters of the clipped-surrogate PPO learner."""

    learning_rate: float = 2e-4
    value_learning_rate: float = 1e-3
    clip_ratio: float = 0.1
    gamma: float = 0.99
    gae_lambda: float = 0.95
    update_epochs: int = 4
    minibatch_size: int = 64
    entropy_coef: float = 0.0
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    #: Initial log standard deviation of the Gaussian policy.  Actions
    #: live in [0, 1], so exploration noise must be a small fraction of
    #: the box (std ~= 0.10).
    initial_log_std: float = -3.0
    #: Floor on the log std to keep minimal exploration.
    min_log_std: float = -4.0
    target_kl: float = 0.01


@dataclass(frozen=True)
class LagrangianConfig:
    """Constraint-aware update (paper Eq. 3-5)."""

    initial_multiplier: float = 3.0
    step_size: float = 10.0           # epsilon in Eq. 5
    max_multiplier: float = 50.0
    #: Floor on lambda.  The pure sub-gradient rule drives lambda to 0
    #: while the constraint is satisfied, after which the unconstrained
    #: usage-minimiser dives straight back over the SLA cliff; a small
    #: floor keeps the cost signal alive (the projected dual variable
    #: of a strictly-feasible point need not be exactly zero in finite
    #: time anyway).
    min_multiplier: float = 1.0
    #: Step-size multiplier applied when the constraint is satisfied
    #: (residual negative) -- slow decay avoids bang-bang oscillation
    #: between "safe" and "violating" policies.
    decay_fraction: float = 0.2


@dataclass(frozen=True)
class SwitchingConfig:
    """Proactive baseline switching (paper Eq. 8)."""

    enabled: bool = True
    #: Risk-preference factor eta; larger -> more conservative.
    eta: float = 1.0
    #: Use the Bayesian estimator pi_phi; when False the switch degrades
    #: to the OnSlicing-NE variant (reactive: switch only once the
    #: cumulative cost alone crosses the threshold).
    use_estimator: bool = True
    #: Gaussian noise std injected on pi_phi outputs (Table 2 robustness
    #: ablation "OnSlicing Est. Noise" uses 1.0).
    estimator_noise_std: float = 0.0


@dataclass(frozen=True)
class EstimatorConfig:
    """pi_phi: variational Bayesian cost-to-go estimator."""

    hidden_sizes: Tuple[int, ...] = (64, 32)
    learning_rate: float = 1e-3
    kl_weight: float = 1e-3
    train_epochs: int = 40
    minibatch_size: int = 128
    prior_std: float = 1.0


@dataclass(frozen=True)
class ModifierConfig:
    """pi_a: action modifier (paper Eq. 13) and coordination (Eq. 14)."""

    hidden_sizes: Tuple[int, ...] = (128, 64, 32)
    learning_rate: float = 1e-3
    train_epochs: int = 30
    minibatch_size: int = 128
    dataset_size: int = 4096
    #: epsilon step size of the parameter coordinator (Eq. 14).
    coordinator_step_size: float = 0.5
    max_coordination_rounds: int = 12
    #: Stop coordinating once relative over-request is below this.
    tolerance: float = 1e-3
    #: Warm-start beta from the previous slot (paper's initialisation).
    warm_start: bool = True
    #: Gaussian noise std on modifier outputs (Table 3 "Md. Noise" = 1.0).
    modifier_noise_std: float = 0.0
    #: When True use plain proportional projection instead of pi_a
    #: (Table 3 "OnSlicing-projection").
    use_projection: bool = False


@dataclass(frozen=True)
class BCConfig:
    """Behavior cloning from the rule-based baseline (paper Eq. 15)."""

    learning_rate: float = 1e-3
    epochs: int = 60
    minibatch_size: int = 128
    episodes_per_epoch: int = 10


@dataclass(frozen=True)
class AgentConfig:
    """Everything one OnSlicing agent needs."""

    policy: PolicyNetConfig = field(default_factory=PolicyNetConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    lagrangian: LagrangianConfig = field(default_factory=LagrangianConfig)
    switching: SwitchingConfig = field(default_factory=SwitchingConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    modifier: ModifierConfig = field(default_factory=ModifierConfig)
    bc: BCConfig = field(default_factory=BCConfig)


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level experiment description."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    slices: Tuple[SliceSpec, ...] = field(
        default_factory=lambda: tuple(default_slice_specs()))
    seed: int = 7
    #: Number of transitions per training epoch (paper: 1000).
    transitions_per_epoch: int = 1000

    def replace(self, **kwargs) -> "ExperimentConfig":
        """Functional update helper (dataclasses.replace passthrough)."""
        return dataclasses.replace(self, **kwargs)


def action_index(name: str) -> int:
    """Return the index of an action dimension by its canonical name."""
    try:
        return ACTION_NAMES.index(name)
    except ValueError as exc:
        raise KeyError(f"unknown action dimension {name!r}") from exc


def usage_from_action(action) -> float:
    """Resource usage of an action vector per paper Eq. 9.

    ``usage = U_u + U_d + U_b + U_l + U_c + U_r`` averaged to [0, 1] so a
    value of 1.0 means every counted resource is fully allocated.
    """
    import numpy as np

    arr = np.asarray(action, dtype=float)
    if arr.shape[-1] != NUM_ACTIONS:
        raise ValueError(
            f"action must have {NUM_ACTIONS} dims, got {arr.shape[-1]}")
    return float(np.mean(arr[..., list(USAGE_ACTION_INDICES)]))
