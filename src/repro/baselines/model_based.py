"""Model_Based: approximated analytic models + convex solver.

Paper Sec. 7.1: "we develop a model-based method by using approximated
performance models in each slice.  The end-to-end latency and frame
rate are formulated as p_MAR = (f*s)/U_u + l_s and p_HVS = U_d/(f*s)
... the MCS offset U_m = 6, U_s = 0 [for RDC] ... the problem of
minimizing the overall resource usage is solved by using the CVXPY
tool."  Each program is one-variable with a monotone constraint, so
its optimum is the closed form evaluated here (the SLSQP solve the
closed form replaced lives on as the oracle in
``tests/test_baselines.py``).

The method's weaknesses -- the reason the paper measures *both* higher
usage and more violations than Baseline -- are kept exactly as the
paper describes them:

* the models assume a pessimistic nominal link rate (they cannot see
  link adaptation or multi-user scheduling gains), so the bandwidth
  they provision is inflated -> highest resource usage;
* the MAR latency model ``(f*s)/U_u + l_s`` contains **no compute
  term**, so the edge/core CPU is a static rule-of-thumb that ignores
  load -> queueing violations at traffic peaks;
* the HVS model ignores HARQ retransmissions and the RDC offsets come
  from a one-off table read-off -> residual violations under channel
  dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.config import (
    NUM_ACTIONS,
    NetworkConfig,
    SliceSpec,
    action_index,
)
from repro.sim.env import SliceObservation
from repro.sim.phy import cqi_to_mcs, mcs_spectral_efficiency

#: Static non-modelled dimensions assumed by the model-based operator.
#: Notably the MAR compute share is a load-blind rule of thumb -- the
#: analytic latency model has no CPU term, so there is nothing to size
#: it from (the paper's central criticism of model-based methods).
_MB_DEFAULTS: Dict[str, Dict[str, float]] = {
    "mar": {
        "uplink_mcs_offset": 0.1, "uplink_scheduler": 0.5,
        "downlink_bandwidth": 0.15, "downlink_mcs_offset": 0.1,
        "downlink_scheduler": 0.5, "transport_path": 0.0,
        "cpu_allocation": 0.18, "ram_allocation": 0.4,
    },
    "hvs": {
        "uplink_bandwidth": 0.08, "uplink_mcs_offset": 0.1,
        "uplink_scheduler": 0.5, "downlink_mcs_offset": 0.0,
        "downlink_scheduler": 0.5, "transport_path": 0.0,
        "cpu_allocation": 0.35, "ram_allocation": 0.3,
    },
    "rdc": {
        "uplink_scheduler": 0.5, "downlink_scheduler": 0.5,
        "transport_bandwidth": 0.1, "transport_path": 0.0,
        "cpu_allocation": 0.25, "ram_allocation": 0.25,
    },
}


def _mb_default_action(app: str) -> np.ndarray:
    action = np.zeros(NUM_ACTIONS)
    for name, value in _MB_DEFAULTS[app].items():
        action[action_index(name)] = value
    return action


@dataclass(frozen=True)
class ModelBasedConfig:
    """Operator knobs of the model-based method."""

    #: Provisioning margin on model-derived bandwidth.
    provisioning_margin: float = 1.5
    #: Static latency l_s assumed by the MAR model (ms).
    static_latency_ms: float = 120.0
    #: Nominal CQI the models assume.  A pessimistic link budget --
    #: the models cannot account for link adaptation, so the operator
    #: plans against a conservative rate.
    nominal_cqi: int = 8
    #: RDC MCS offsets fixed from the paper's Fig. 6 read-off.
    rdc_uplink_offset: float = 0.6    # U_m = 6
    rdc_downlink_offset: float = 0.0  # U_s = 0


class ModelBasedPolicy:
    """Analytic per-slot resource calculator (one instance per slice)."""

    def __init__(self, spec: SliceSpec,
                 network_cfg: Optional[NetworkConfig] = None,
                 cfg: Optional[ModelBasedConfig] = None) -> None:
        self.spec = spec
        self.app = spec.app
        self.network_cfg = network_cfg or NetworkConfig()
        self.cfg = cfg or ModelBasedConfig()
        if (spec.app == "mar"
                and spec.sla.target <= self.cfg.static_latency_ms):
            raise ValueError(
                f"ModelBasedConfig.static_latency_ms "
                f"({self.cfg.static_latency_ms:g} ms) leaves no "
                f"latency budget under slice {spec.name!r}'s "
                f"sla.target ({spec.sla.target:g} ms); the MAR model "
                "p = (f*s)/(U_u R) + l_s has no feasible U_u")
        ran = self.network_cfg.ran
        eff = mcs_spectral_efficiency(cqi_to_mcs(self.cfg.nominal_cqi))
        base = ran.num_prbs * ran.prb_bandwidth_hz * (1.0 - ran.overhead)
        #: Nominal full-cell rate per direction assumed by the models.
        self._nominal_ul_bps = base * ran.uplink_fraction * eff
        self._nominal_dl_bps = base * ran.downlink_fraction * eff
        self._link_bps = self.network_cfg.transport.link_capacity_bps

    # ---- per-app analytic programs -----------------------------------

    def _solve_mar(self, arrival_rate: float) -> np.ndarray:
        """min U_u  s.t.  p_MAR = (f*s)/(U_u R) + l_s <= P (paper model).

        The constraint is monotone in the one variable, so the optimum
        is where it binds: ``U_u = f*s / (R * (P - l_s))``, clipped to
        the program's box ``[0.02, 1]``.
        """
        spec, cfg = self.spec, self.cfg
        f = arrival_rate * cfg.provisioning_margin
        s = spec.uplink_payload_bits
        budget_ms = spec.sla.target - cfg.static_latency_ms
        u_u = f * s * 1e3 / (self._nominal_ul_bps * budget_ms)
        action = _mb_default_action("mar")
        action[action_index("uplink_bandwidth")] = float(np.clip(
            u_u, 0.02, 1.0))
        action[action_index("transport_bandwidth")] = float(np.clip(
            f * s / self._link_bps * cfg.provisioning_margin,
            0.01, 1.0))
        return action

    def _solve_hvs(self, arrival_rate: float) -> np.ndarray:
        """U_d from p_HVS = U_d R/(f*s) >= target FPS (linear model)."""
        spec, cfg = self.spec, self.cfg
        f = arrival_rate * cfg.provisioning_margin
        demand_bps = f * spec.sla.target * spec.downlink_payload_bits
        u_d = demand_bps / self._nominal_dl_bps
        action = _mb_default_action("hvs")
        action[action_index("downlink_bandwidth")] = float(np.clip(
            u_d, 0.05, 1.0))
        action[action_index("transport_bandwidth")] = float(np.clip(
            demand_bps / self._link_bps * cfg.provisioning_margin,
            0.01, 1.0))
        return action

    def _solve_rdc(self, arrival_rate: float) -> np.ndarray:
        """Fixed offsets from the Fig. 6 read-off; bandwidth from demand."""
        spec, cfg = self.spec, self.cfg
        f = arrival_rate * cfg.provisioning_margin
        demand_bps = f * spec.uplink_payload_bits
        action = _mb_default_action("rdc")
        action[action_index("uplink_mcs_offset")] = cfg.rdc_uplink_offset
        action[action_index("downlink_mcs_offset")] = \
            cfg.rdc_downlink_offset
        share = demand_bps / self._nominal_ul_bps \
            * cfg.provisioning_margin
        action[action_index("uplink_bandwidth")] = float(np.clip(
            max(share, 0.05), 0.05, 1.0))
        action[action_index("downlink_bandwidth")] = float(np.clip(
            max(share, 0.05), 0.05, 1.0))
        return action

    # ---- runtime interface --------------------------------------------

    def action_for_rate(self, arrival_rate: float) -> np.ndarray:
        if self.spec.app == "mar":
            return self._solve_mar(arrival_rate)
        if self.spec.app == "hvs":
            return self._solve_hvs(arrival_rate)
        return self._solve_rdc(arrival_rate)

    def act(self, observation: SliceObservation) -> np.ndarray:
        """Resource allocation from the analytic models at the
        currently-observed traffic."""
        rate = observation.traffic * self.spec.max_arrival_rate
        return self.action_for_rate(rate)

    def act_vector(self, state_vector: np.ndarray) -> np.ndarray:
        rate = float(state_vector[1]) * self.spec.max_arrival_rate
        return self.action_for_rate(rate)

    def act_rows(self, states: np.ndarray) -> np.ndarray:
        """One :meth:`act_vector` program per stacked state row."""
        return np.stack([self.act_vector(state) for state in states])
