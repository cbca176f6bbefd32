"""Baseline: rule-based key-factor grid search (paper Sec. 7.1).

The paper builds its Baseline in three steps:

1. each slice is offline evaluated in a small-scale testbed to identify
   *key action factors* -- ``[U_u, U_b, U_c]`` for MAR, ``[U_d, U_b]``
   for HVS and ``[U_m, U_s]`` for RDC;
2. a grid search finds the minimum resource usage meeting the slice's
   performance requirement at each traffic level;
3. over-requested resources are resolved with projection.

We reproduce that: :func:`fit_rule_based_policy` grid-searches a
single-slice simulator ("small-scale testbed") per traffic bin with a
traffic safety margin and a tightened cost target -- the conservatism
that makes the Baseline safe but expensive (~2.5x OnSlicing's usage in
the paper) -- and :class:`RuleBasedPolicy` serves the per-bin table at
run time, keyed by the observed traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    NUM_ACTIONS,
    NetworkConfig,
    SliceSpec,
    action_index,
)
from repro.engine.kernels import WorldConditions, evaluate_rows
from repro.sim.env import SliceObservation
from repro.sim.network import EndToEndNetwork

#: Key action factors identified per application (paper Sec. 7.1).
KEY_FACTORS: Dict[str, Tuple[str, ...]] = {
    "mar": ("uplink_bandwidth", "transport_bandwidth",
            "cpu_allocation"),
    "hvs": ("downlink_bandwidth", "transport_bandwidth"),
    "rdc": ("uplink_mcs_offset", "downlink_mcs_offset"),
}

#: Static values for the non-key dimensions: a rule-of-thumb operator
#: configuration, moderately generous so only the key factors need
#: tuning.  Indexed by app.
DEFAULT_ACTIONS: Dict[str, Dict[str, float]] = {
    "mar": {
        "uplink_mcs_offset": 0.1, "uplink_scheduler": 0.5,
        "downlink_bandwidth": 0.15, "downlink_mcs_offset": 0.1,
        "downlink_scheduler": 0.5, "transport_path": 0.0,
        "ram_allocation": 0.4,
    },
    "hvs": {
        "uplink_bandwidth": 0.08, "uplink_mcs_offset": 0.1,
        "uplink_scheduler": 0.5, "downlink_mcs_offset": 0.2,
        "downlink_scheduler": 0.5, "transport_path": 0.0,
        "cpu_allocation": 0.35, "ram_allocation": 0.3,
    },
    "rdc": {
        "uplink_bandwidth": 0.08, "uplink_scheduler": 0.5,
        "downlink_bandwidth": 0.08, "downlink_scheduler": 0.5,
        "transport_bandwidth": 0.06, "transport_path": 0.0,
        "cpu_allocation": 0.15, "ram_allocation": 0.12,
    },
}

#: Grid values searched per key factor.
GRID_VALUES: Dict[str, Sequence[float]] = {
    "uplink_bandwidth": (0.1, 0.2, 0.3, 0.4, 0.5, 0.65),
    "downlink_bandwidth": (0.15, 0.3, 0.45, 0.6, 0.75),
    "transport_bandwidth": (0.02, 0.05, 0.1, 0.2, 0.35),
    "cpu_allocation": (0.15, 0.25, 0.4, 0.55, 0.7, 0.85),
    "uplink_mcs_offset": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    "downlink_mcs_offset": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
}


def default_action(app: str) -> np.ndarray:
    """The non-key-factor template action of an application."""
    action = np.zeros(NUM_ACTIONS)
    for name, value in DEFAULT_ACTIONS[app].items():
        action[action_index(name)] = value
    return action


@dataclass(frozen=True)
class GridSearchConfig:
    """Conservatism knobs of the offline grid search."""

    #: Traffic multiplier applied when evaluating a bin (headroom for
    #: Poisson bursts above the envelope).
    traffic_margin: float = 1.4
    #: Fraction of the SLA cost threshold the searched point must stay
    #: under (tighter than C_max -> safety margin).
    cost_margin: float = 0.5
    #: Traffic bins in normalised [0, 1] units (bin upper edges).
    bin_edges: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.3)
    #: Channel/queue slots averaged per grid-point evaluation.
    eval_slots: int = 3
    #: Grid steps each key factor is bumped *above* the found minimum --
    #: the classic operator over-provisioning that makes the Baseline
    #: safe-but-expensive (the paper's Baseline uses ~2.5x OnSlicing's
    #: resources at zero violation).
    safety_step: int = 1

    def __post_init__(self) -> None:
        if self.traffic_margin <= 0:
            raise ValueError("traffic_margin must be positive")
        if self.cost_margin <= 0:
            raise ValueError("cost_margin must be positive")
        if not self.bin_edges:
            raise ValueError("bin_edges must name at least one bin")
        if any(b <= a for a, b in zip(self.bin_edges,
                                      self.bin_edges[1:])):
            raise ValueError("bin_edges must be strictly increasing")
        if self.eval_slots < 1:
            raise ValueError("eval_slots must be >= 1")
        if self.safety_step < 0:
            raise ValueError("safety_step must be >= 0")


class RuleBasedPolicy:
    """Per-traffic-bin action table for one slice.

    ``act`` is the runtime interface used as the paper's pi_b: it looks
    up the bin of the current observed traffic and returns the
    pre-searched action.  Every form (``act``, ``act_vector``, the
    batch engine's ``act_rows``) is :meth:`action_for_traffic` -- one
    ``searchsorted`` over the stacked table, the scalar forms being
    its 0-d case.
    """

    def __init__(self, slice_name: str, app: str,
                 bin_edges: Sequence[float],
                 actions: Sequence[np.ndarray]) -> None:
        if len(bin_edges) != len(actions):
            raise ValueError("one action per traffic bin required")
        if len(actions) == 0:
            raise ValueError("at least one traffic bin required")
        self.slice_name = slice_name
        self.app = app
        self.bin_edges = np.asarray(bin_edges, dtype=float)
        #: ``(bins, NUM_ACTIONS)``: row ``i`` is bin ``i``'s action.
        self.actions = np.stack([np.asarray(a, dtype=float)
                                 for a in actions])

    def action_for_traffic(self, normalized_traffic) -> np.ndarray:
        """The grid-searched action of a normalised traffic level; an
        ``(R,)`` array of levels gives the ``(R, NUM_ACTIONS)`` rows."""
        idx = self.bin_edges.searchsorted(
            np.maximum(normalized_traffic, 0.0), side="left")
        # traffic above the last edge reads the last bin
        return self.actions.take(idx, axis=0, mode="clip")

    def act(self, observation: SliceObservation) -> np.ndarray:
        """pi_b(s): key on the observed traffic feature."""
        return self.action_for_traffic(observation.traffic)

    def act_vector(self, state_vector: np.ndarray) -> np.ndarray:
        """pi_b over a raw state vector (traffic is feature index 1)."""
        return self.action_for_traffic(state_vector[1])

    def act_rows(self, states: np.ndarray) -> np.ndarray:
        """pi_b over stacked state vectors, one action row each."""
        return self.action_for_traffic(states[:, 1])


def evaluate_grid(spec: SliceSpec, network_cfg: NetworkConfig,
                  search_cfg: GridSearchConfig, seed: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean cost and usage of every key-factor combo in every bin.

    Returns ``(candidates, cost, usage)``: the ``(n, NUM_ACTIONS)``
    candidate actions in ``itertools.product`` order over the slice's
    key-factor grids, and two ``(num_bins, n)`` tables averaged over
    ``eval_slots`` channel slots.

    The testbed is one single-slice network whose channels advance one
    slot per evaluation; neither the action nor the arrival rate feeds
    back into the channels, so candidate ``i``'s ``k``-th evaluation
    sees trajectory slot ``i * eval_slots + k`` in every bin.  The
    trajectory is therefore recorded once, and each bin is a single
    :func:`~repro.engine.kernels.evaluate_rows` call in which every
    (candidate, slot) pair is a row in a world of its own
    (:meth:`~repro.engine.kernels.SliceRows.repeat`) -- bit-identical
    to evaluating the pairs one at a time, because the kernels are
    row-independent apart from the per-world transport loads.
    """
    network = EndToEndNetwork(network_cfg, slices=[spec],
                              rng=np.random.default_rng(seed))
    factors = KEY_FACTORS[spec.app]
    combos = list(itertools.product(*(GRID_VALUES[f] for f in factors)))
    candidates = np.tile(default_action(spec.app), (len(combos), 1))
    candidates[:, [action_index(f) for f in factors]] = combos

    slots = search_cfg.eval_slots
    num_rows = len(combos) * slots
    cqi = np.empty((num_rows, network_cfg.users_per_slice), dtype=np.intp)
    margin = np.empty(cqi.shape)
    for row in range(num_rows):
        network.step_channels()
        slot_cqi, slot_margin = network.gather_channel_state()
        cqi[row] = slot_cqi[0]
        margin[row] = slot_margin[0]

    rows = network.slot_rows().repeat(num_rows)
    cond = WorldConditions.nominal(num_rows)    # a fresh fabric's state
    actions = np.repeat(candidates, slots, axis=0)
    shape = (len(search_cfg.bin_edges), len(combos))
    cost, usage = np.empty(shape), np.empty(shape)
    for b, bin_edge in enumerate(search_cfg.bin_edges):
        rates = np.full(num_rows, bin_edge * search_cfg.traffic_margin
                        * spec.max_arrival_rate)
        out = evaluate_rows(rows, cond, actions, rates, cqi, margin)
        cost[b] = out["cost"].reshape(-1, slots).mean(axis=1)
        usage[b] = out["usage"].reshape(-1, slots).mean(axis=1)
    return candidates, cost, usage


def select_candidate(cost: np.ndarray, usage: np.ndarray,
                     target_cost: float) -> int:
    """Index of the minimum-usage candidate meeting ``target_cost``.

    Ties go to the earliest candidate (``argmin`` returns the first
    minimum, as a strict-``<`` scan in grid order would); when nothing
    qualifies, the earliest minimum-cost candidate is the fallback.
    """
    qualifies = cost <= target_cost
    if qualifies.any():
        return int(np.argmin(np.where(qualifies, usage, np.inf)))
    return int(np.argmin(cost))


def fit_rule_based_policy(spec: SliceSpec,
                          network_cfg: Optional[NetworkConfig] = None,
                          search_cfg: Optional[GridSearchConfig] = None,
                          seed: int = 1234) -> RuleBasedPolicy:
    """Offline grid search in a single-slice small-scale testbed.

    For each traffic bin the search evaluates the key-factor grid at
    ``bin_edge * traffic_margin`` of the slice's peak arrival rate and
    keeps the minimum-usage point whose mean cost stays below
    ``cost_margin * C_max``; if nothing qualifies, the lowest-cost
    point is used -- mirroring an operator falling back to the best
    provisioning on offer.  Every bin sees the same channel
    trajectory (see :func:`evaluate_grid`).
    """
    network_cfg = network_cfg or NetworkConfig()
    search_cfg = search_cfg or GridSearchConfig()
    candidates, cost, usage = evaluate_grid(spec, network_cfg,
                                            search_cfg, seed)
    target_cost = spec.sla.cost_threshold * search_cfg.cost_margin
    actions: List[np.ndarray] = []
    for bin_cost, bin_usage in zip(cost, usage):
        chosen = candidates[
            select_candidate(bin_cost, bin_usage, target_cost)].copy()
        for factor in KEY_FACTORS[spec.app]:
            grid = GRID_VALUES[factor]
            idx = action_index(factor)
            pos = min(grid.index(chosen[idx]) + search_cfg.safety_step,
                      len(grid) - 1)
            chosen[idx] = grid[pos]
        actions.append(chosen)
    return RuleBasedPolicy(spec.name, spec.app,
                           search_cfg.bin_edges, actions)
