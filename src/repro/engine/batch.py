"""Batched episode engine: B worlds stepped in lockstep.

:class:`BatchSimulator` owns ``B`` independent
:class:`~repro.sim.env.ScenarioSimulator` worlds -- possibly
heterogeneous scenarios with different slice populations, horizons and
event timelines -- as struct-of-arrays state, and advances *all* of
them per slot through the vectorised kernels of
:mod:`repro.engine.kernels`.  The hot path is O(T) array ops instead
of O(B*T) Python iterations, which is where the fleet/serving layers'
single-process throughput comes from.

Determinism contract
--------------------
Each world keeps its *own* RNG (the simulator's), consumed in exactly
the scalar engine's order: event activation draws, then one
standard-normal block per channel (``ChannelProcess.step``), then one
Poisson draw per slice.  Array draws consume a ``numpy`` Generator
identically to the equivalent sequence of scalar draws, so a world
stepped inside a batch produces bit-identical traffic, channels,
rewards, costs and observations to the same world stepped alone --
``tests/test_engine.py`` pins this against the golden trace digests
for every catalog scenario.

Two costs are deliberately *not* paid per slot: per-slice
``SliceObservation``/``SlotReport`` object construction (results are
returned as stacked arrays; build objects only at the edges if you
need them) and container-runtime share mirroring (the kernels compute
allocations directly; a batch-driven world's ``ContainerRuntime``
bookkeeping is not refreshed each slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.config import NUM_ACTIONS
from repro.engine.arena import KernelArena
from repro.engine.kernels import (
    SliceRows,
    WorldConditions,
    concat_rows,
    evaluate_rows,
    rows_for_network,
)
from repro.obs.trace import trace
from repro.sim.env import ARRIVAL_WINDOW_S, STATE_DIM, ScenarioSimulator

#: Per-world actions for one slot: a mapping ``slice name -> action``
#: (scalar-simulator style), an ``(S, 10)`` array in
#: ``sim.slice_names`` order, or ``None`` to skip the world this slot.
WorldActions = Optional[Union[Mapping[str, np.ndarray], np.ndarray]]


@dataclass
class BatchStepResult:
    """One lockstep slot's outcome across the stepped worlds.

    All arrays cover *managed* slice rows only (background churn
    slices are driven internally, exactly like the scalar engine), in
    world-major order; ``offsets[i]:offsets[i+1]`` are world
    ``worlds[i]``'s rows.
    """

    worlds: List[int]
    offsets: np.ndarray               # (len(worlds)+1,)
    names: List[List[str]]            # managed slice names per world
    observations: np.ndarray          # (R, STATE_DIM)
    rewards: np.ndarray               # (R,) = -usage, paper Eq. 9
    costs: np.ndarray                 # (R,) paper Eq. 10
    usages: np.ndarray                # (R,)
    #: (R,) simulated end-to-end latency in ms (transport + core +
    #: edge, summed in that order -- bit-identical to the scalar
    #: path's SlotReport components), the deterministic latency
    #: signal SLO evaluation runs on.
    latencies: np.ndarray
    dones: List[bool]                 # per stepped world

    def rows_of(self, world: int) -> slice:
        """Row range of one stepped world (by world index)."""
        i = self.worlds.index(world)
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


class _WorldState:
    """Cached layout of one world's current slice set."""

    def __init__(self, sim: ScenarioSimulator) -> None:
        self.sim = sim
        self.rebuild()

    def rebuild(self) -> None:
        sim = self.sim
        network = sim.network
        self.signature = tuple(network.slice_names)
        self.rows = rows_for_network(network, horizon=sim.horizon)
        self.users = network.cfg.users_per_slice
        self.names = list(network.slice_names)
        self.managed = np.asarray(
            [name not in sim._event_slices for name in self.names],
            dtype=bool)
        self.managed_names = [name for name in self.names
                              if name not in sim._event_slices]
        self.max_arrival = self.rows.max_arrival
        self.cost_threshold = self.rows.cost_threshold[self.managed]
        self.horizon_cost = (sim.horizon
                             * self.rows.cost_threshold[self.managed])
        # Traffic envelopes in network row order (managed traces from
        # the episode's generation, churn slices pinned at 1.0).
        self.traces = np.stack([sim._traces[name]
                                for name in self.names])
        # Background churn slices play their fixed action every slot.
        self.event_actions = {
            name: np.asarray(action, dtype=float)
            for name, action in sim._event_slices.items()}
        # Poisson intensities for every (slice, slot) of the episode,
        # precomputed so the hot loop only slices a column.  Bit-equal
        # to the historical per-slot (envelope * max_arrival) *
        # ARRIVAL_WINDOW_S: the same elementwise products, evaluated
        # for all slots at once.
        self.lam_table = ((self.traces * self.max_arrival[:, None])
                          * ARRIVAL_WINDOW_S)
        # Managed cumulative episode cost, aligned with managed rows
        # (carried over from the simulator on churn rebuilds).
        self.cum_cost = np.asarray(
            [sim._cum_cost[name] for name in self.managed_names])

    def actions_matrix(self, actions: WorldActions,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Joint (S, NUM_ACTIONS) matrix in network row order.

        ``out`` receives the rows in place (the batch engine hands a
        view of its reused step matrix); values are identical either
        way.
        """
        matrix = (np.empty((len(self.names), NUM_ACTIONS))
                  if out is None else out)
        if isinstance(actions, np.ndarray):
            provided = np.asarray(actions, dtype=float)
            if provided.shape != (len(self.managed_names), NUM_ACTIONS):
                raise ValueError(
                    f"actions must have shape "
                    f"({len(self.managed_names)}, {NUM_ACTIONS}), "
                    f"got {provided.shape}")
            cursor = 0
            for i, name in enumerate(self.names):
                if self.managed[i]:
                    matrix[i] = provided[cursor]
                    cursor += 1
                else:
                    matrix[i] = self.event_actions[name]
            return matrix
        for i, name in enumerate(self.names):
            if self.managed[i]:
                arr = np.asarray(actions[name], dtype=float)
                if arr.shape != (NUM_ACTIONS,):
                    raise ValueError(
                        f"action must have shape ({NUM_ACTIONS},), "
                        f"got {arr.shape}")
                matrix[i] = arr
            else:
                matrix[i] = self.event_actions[name]
        return matrix


class BatchSimulator:
    """Vectorised lockstep driver over B scalar simulator worlds."""

    def __init__(self, simulators: Sequence[ScenarioSimulator],
                 engine: str = "vector") -> None:
        if not simulators:
            raise ValueError("need at least one world")
        if engine != "vector":
            raise ValueError(f"unknown engine {engine!r}; a "
                             "BatchSimulator only runs 'vector'")
        self.sims: List[ScenarioSimulator] = list(simulators)
        self.engine = engine
        self._arena = KernelArena()
        # Fleet-stacked channel state (all worlds, one AR(1) update
        # per slot); rebuilt whenever any world's bank changes.
        self._fleet = None
        self._fleet_key: object = None
        self._states: List[Optional[_WorldState]] = [None] * len(
            self.sims)
        self._bundle_key = None
        self._bundle: Optional[SliceRows] = None
        # Reused per-step staging buffers (rebuilt on layout changes).
        self._cond: Optional[WorldConditions] = None
        self._matrix: Optional[np.ndarray] = None
        self._rates: Optional[np.ndarray] = None
        self._cqi: Optional[np.ndarray] = None
        self._margin: Optional[np.ndarray] = None

    # ---- episode lifecycle ------------------------------------------

    @property
    def num_worlds(self) -> int:
        return len(self.sims)

    @property
    def dones(self) -> List[bool]:
        return [sim.done for sim in self.sims]

    def slice_names(self, world: int) -> List[str]:
        return list(self.sims[world].slice_names)

    def reset(self) -> np.ndarray:
        """Reset every world; returns the stacked initial observations
        (managed rows, world-major)."""
        rows = [self.reset_world(b) for b in range(self.num_worlds)]
        return np.concatenate(rows, axis=0)

    def reset_world(self, world: int) -> np.ndarray:
        """Reset one world (its own RNG stream; bit-identical to a
        scalar ``sim.reset()``) and return its initial observations."""
        sim = self.sims[world]
        observations = sim.reset()
        self._states[world] = _WorldState(sim)
        names = self._states[world].managed_names
        out = np.empty((len(names), STATE_DIM))
        for i, name in enumerate(names):
            observations[name].vector(out=out[i])
        return out

    def _require_state(self, world: int) -> _WorldState:
        state = self._states[world]
        if state is None:
            raise RuntimeError(
                f"world {world} was never reset; call reset() or "
                "reset_world() first")
        return state

    # ---- lockstep stepping ------------------------------------------

    def step(self, actions: Sequence[WorldActions]) -> BatchStepResult:
        """Advance every world with a non-``None`` action set by one
        slot, all through one kernel evaluation."""
        if len(actions) != self.num_worlds:
            raise ValueError(
                f"need one action set per world ({self.num_worlds}), "
                f"got {len(actions)}")
        stepping = [b for b, a in enumerate(actions) if a is not None]
        if not stepping:
            raise ValueError("no world to step (all actions None)")

        with trace("engine.step"):
            # 1. events + churn (may consume world RNG; may change
            #    layout)
            with trace("engine.events"):
                states: List[_WorldState] = []
                for b in stepping:
                    sim = self.sims[b]
                    if sim.done:
                        raise RuntimeError(
                            f"world {b}: episode finished; call "
                            "reset_world()")
                    state = self._require_state(b)
                    sim.apply_events()
                    if tuple(sim.network.slice_names) \
                            != state.signature:
                        state.rebuild()
                    states.append(state)

            # 2. channels (one standard-normal block per world,
            #    exactly the scalar step_channels stream; the fleet
            #    bank fuses all worlds' AR(1) updates into one)
            with trace("engine.channels"):
                fleet = self._fleet_bank()
                if fleet is not None:
                    fleet.step_worlds(stepping)
                else:
                    for b in stepping:
                        self.sims[b].network.step_channels()

            # 3. realised arrivals (one Poisson array draw per world
            #    == the scalar per-slice draw sequence)
            with trace("engine.arrivals"):
                total = sum(len(state.names) for state in states)
                if self._rates is None \
                        or self._rates.shape[0] != total:
                    self._rates = np.empty(total)
                rates = self._rates
                row = 0
                for state in states:
                    sim = state.sim
                    counts = sim._rng.poisson(
                        state.lam_table[:, sim._slot])
                    hi = row + len(state.names)
                    np.divide(counts, ARRIVAL_WINDOW_S,
                              out=rates[row:hi])
                    row = hi

            # 4. one kernel evaluation over every row of every world
            with trace("engine.kernel"):
                bundle = self._bundle_for(stepping, states)
                if self._matrix is None \
                        or self._matrix.shape[0] != total:
                    self._matrix = np.empty((total, NUM_ACTIONS))
                matrix = self._matrix
                row = 0
                for b, state in zip(stepping, states):
                    hi = row + len(state.names)
                    state.actions_matrix(actions[b],
                                         out=matrix[row:hi])
                    row = hi
                cqi, margin = self._gather_channels(states)
                fabrics = [state.sim.network.fabric
                           for state in states]
                if self._cond is None \
                        or self._cond.capacity_scale.shape[0] \
                        != len(fabrics):
                    self._cond = WorldConditions.nominal(len(fabrics))
                cond = self._cond.refresh(fabrics)
                out = evaluate_rows(bundle, cond, matrix, rates, cqi,
                                    margin, arena=self._arena)

            # 5. state write-back + stacked managed-row results
            with trace("engine.commit"):
                return self._commit(stepping, states, bundle, out,
                                    rates)

    def _bundle_for(self, stepping: List[int],
                    states: List[_WorldState]) -> SliceRows:
        # id(rows) keys the cache: rebuilds (churn, resets) swap the
        # rows object even when the slice-name signature is unchanged.
        key = tuple((b, id(state.rows))
                    for b, state in zip(stepping, states))
        if key != self._bundle_key:
            self._bundle = concat_rows([state.rows for state in states])
            self._bundle_key = key
        return self._bundle

    def _fleet_bank(self):
        """The all-worlds stacked channel bank (or ``None``).

        Keyed on the per-world bank identities, so slice churn or a
        non-bankable world anywhere in the fleet drops straight back
        to the per-network path.
        """
        from repro.sim.channel import FleetChannelBank

        banks = [sim.network.channel_bank() for sim in self.sims]
        key = tuple(id(bank) for bank in banks)
        if key != self._fleet_key:
            self._fleet = FleetChannelBank.adopt(
                banks, [sim.network._rng for sim in self.sims])
            self._fleet_key = key
        return self._fleet

    def _gather_channels(self, states: List[_WorldState]):
        umax = max(state.users for state in states)
        total = sum(len(state.names) for state in states)
        fleet = self._fleet
        if fleet is not None and len(states) == len(self.sims) \
                and fleet.cqi.shape == (total, umax):
            # Whole fleet stepping and uniform user counts: the fleet
            # block *is* the gather layout -- no per-world copies.
            if self._margin is None \
                    or self._margin.shape != (total, umax):
                self._margin = np.zeros((total, umax))
            np.subtract(fleet.snr_db, fleet.mean_snr_db,
                        out=self._margin)
            return fleet.cqi, self._margin
        if self._cqi is None or self._cqi.shape != (total, umax):
            # Padding lanes (beyond each row's user count) are
            # initialised once and never read unmasked by the kernels.
            self._cqi = np.ones((total, umax), dtype=np.intp)
            self._margin = np.zeros((total, umax))
        cqi, margin = self._cqi, self._margin
        row = 0
        for state in states:
            u = state.users
            bank = state.sim.network.channel_bank()
            if bank is not None:
                hi = row + len(state.names)
                cqi[row:hi, :u] = bank.cqi
                np.subtract(bank.snr_db, bank.mean_snr_db,
                            out=margin[row:hi, :u])
                row = hi
            else:
                for channel in state.sim.network.channels.values():
                    cqi[row, :u] = channel.cqi
                    margin[row, :u] = channel.margins_db
                    row += 1
        return cqi, margin

    def _commit(self, stepping: List[int], states: List[_WorldState],
                bundle: SliceRows, out: Dict[str, np.ndarray],
                rates: np.ndarray) -> BatchStepResult:
        managed = np.concatenate([state.managed for state in states])
        costs = out["cost"][managed]
        usages = out["usage"][managed]
        latencies = (out["transport_latency_ms"]
                     + out["core_latency_ms"]
                     + out["edge_latency_ms"])[managed]
        obs = np.empty((int(managed.sum()), STATE_DIM))

        sizes = [int(state.managed.sum()) for state in states]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        row_all = 0
        dones: List[bool] = []
        for i, state in enumerate(states):
            sim = state.sim
            world_rows = slice(row_all, row_all + len(state.names))
            row_all += len(state.names)
            lo, hi = offsets[i], offsets[i + 1]
            world_rates = rates[world_rows][state.managed]

            # transport loads mirror the scalar fabric state
            fabric = sim.network.fabric
            fabric.set_loads(out["path_loads"][i, :fabric.num_paths])

            sim._slot += 1
            state.cum_cost = state.cum_cost + costs[lo:hi]
            for j, name in enumerate(state.managed_names):
                sim._cum_cost[name] = float(state.cum_cost[j])
            sim._last_rates = {
                name: float(world_rates[j])
                for j, name in enumerate(state.managed_names)}
            dones.append(sim.done)

            block = obs[lo:hi]
            block[:, 0] = sim._slot / sim.horizon
            block[:, 1] = world_rates \
                / state.max_arrival[state.managed]
            block[:, 2] = out["channel_quality"][world_rows][
                state.managed]
            block[:, 3] = out["radio_usage"][world_rows][state.managed]
            block[:, 4] = out["workload"][world_rows][state.managed]
            block[:, 5] = usages[lo:hi]
            block[:, 6] = costs[lo:hi]
            block[:, 7] = state.cost_threshold
            block[:, 8] = state.cum_cost / state.horizon_cost

        return BatchStepResult(
            worlds=list(stepping),
            offsets=offsets,
            names=[state.managed_names for state in states],
            observations=obs,
            rewards=-usages,
            costs=costs,
            usages=usages,
            latencies=latencies,
            dones=dones,
        )
