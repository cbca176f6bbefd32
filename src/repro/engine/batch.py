"""The world stepper: B worlds advanced one slot in lockstep.

:class:`BatchSimulator` steps ``B`` independent
:class:`~repro.sim.env.ScenarioSimulator` worlds -- possibly
heterogeneous scenarios with different slice populations, horizons and
event timelines -- through one evaluation of the vectorised kernels of
:mod:`repro.engine.kernels` per slot.  :meth:`BatchSimulator.step` is
the only implementation of the paper's slot sequence (events ->
channels -> Poisson arrivals -> kernels -> Eq. 9 usage / Eq. 10 cost
-> next state); ``ScenarioSimulator.step`` is its ``B = 1`` case.
Each world's episode state (slot, traces, and the struct-of-arrays
:class:`~repro.sim.env.WorldLayout`) lives on its simulator, so the
engine keeps only staging buffers and a world may be stepped alone
and inside a shared batch interchangeably.

Determinism contract
--------------------
Each world keeps its *own* RNG (the simulator's), consumed in a fixed
order per slot: event activation draws, then one standard-normal block
for the world's channels, then one Poisson array draw over its slices.
A world stepped inside a batch therefore produces bit-identical
traffic, channels, rewards, costs and observations to the same world
stepped alone -- ``tests/test_engine.py`` pins this against the golden
trace digests for every catalog scenario.

Two costs are deliberately *not* paid per slot: per-slice
``SliceObservation``/``SlotReport`` object construction (results are
returned as stacked arrays; ``ScenarioSimulator.step`` builds objects
at the edge for callers that want them) and substrate mirroring (the
kernels compute path loads and container allocations directly; a
stepped world's ``ContainerRuntime`` shares are not refreshed -- they
are the domain managers' configuration surface, not a record of what
the stepper executed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import NUM_ACTIONS
from repro.engine.arena import KernelArena
from repro.engine.kernels import (
    SliceRows,
    WorldConditions,
    concat_rows,
    evaluate_rows,
)
from repro.obs.trace import trace
from repro.sim.env import (
    ARRIVAL_WINDOW_S,
    STATE_DIM,
    ScenarioSimulator,
    WorldLayout,
)

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


class BatchSimulator:
    """Vectorised lockstep stepper over B simulator worlds."""

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
        self._bundle_key = None
        self._bundle: Optional[SliceRows] = None
        # Reused per-step staging buffers (rebuilt on layout changes).
        self._cond: Optional[WorldConditions] = None
        self._matrix: Optional[np.ndarray] = None
        self._finite: Optional[np.ndarray] = None
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
        """Reset one world (``sim.reset()``, on its own RNG stream)
        and return its initial observations, stacked."""
        observations = self.sims[world].reset()
        out = np.empty((len(observations), STATE_DIM))
        for row, observation in zip(out, observations.values()):
            observation.vector(out=row)
        return out

    # ---- lockstep stepping ------------------------------------------

    def step(self, actions: Sequence[WorldActions]) -> BatchStepResult:
        """Advance every world with a non-``None`` action set by one
        slot, all through one kernel evaluation."""
        return self.step_rows(actions)[0]

    def step_rows(self, actions: Sequence[WorldActions]
                  ) -> Tuple[BatchStepResult, Dict[str, np.ndarray],
                             np.ndarray]:
        """:meth:`step`, also handing back what the kernels computed:
        ``(result, out, rates)`` with ``out`` the
        :func:`~repro.engine.kernels.evaluate_rows` arrays and
        ``rates`` the realised arrivals/s, both over *every* row of
        the stepped worlds (background churn slices included) and
        owned by this engine until its next step -- what a caller
        building per-slice reports at the edge reads."""
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
                states: List[WorldLayout] = []
                for b in stepping:
                    sim = self.sims[b]
                    if not sim._traces:
                        raise RuntimeError(
                            f"world {b} was never reset; call reset() "
                            "or reset_world() first")
                    if sim.done:
                        raise RuntimeError(
                            f"world {b}: episode finished; call "
                            "reset() or reset_world()")
                    sim.apply_events()
                    states.append(sim.layout())

            # 2. channels (one standard-normal block per world; the
            #    fleet bank fuses all worlds' AR(1) updates into one)
            with trace("engine.channels"):
                fleet = self._fleet_bank()
                if fleet is not None:
                    fleet.step_worlds(stepping)
                else:
                    for b in stepping:
                        self.sims[b].network.step_channels()

            # 3. realised arrivals (one Poisson array draw per world)
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
                    self._finite = np.empty((total, NUM_ACTIONS),
                                            dtype=bool)
                matrix = self._matrix
                row = 0
                for b, state in zip(stepping, states):
                    hi = row + len(state.names)
                    state.stage_actions(actions[b], matrix[row:hi])
                    row = hi
                # Out-of-range finite actions are the decode kernel's
                # to clip; NaN / inf would reach its integer decodes.
                if not np.isfinite(matrix, out=self._finite).all():
                    bad = int(np.argmin(self._finite.all(axis=1)))
                    raise ValueError(
                        f"world {stepping[bundle.world[bad]]}: "
                        f"non-finite action for slice "
                        f"{bundle.names[bad]!r}: {matrix[bad]}")
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
                return self._commit(stepping, states, out,
                                    rates), out, rates

    def _bundle_for(self, stepping: List[int],
                    states: List[WorldLayout]) -> SliceRows:
        # rows.uid keys the cache: churn swaps a world's rows object,
        # and a uid (unlike id()) is never reused after one is freed.
        key = tuple((b, state.rows.uid)
                    for b, state in zip(stepping, states))
        if key != self._bundle_key:
            self._bundle = concat_rows([state.rows for state in states])
            self._bundle_key = key
        return self._bundle

    def _fleet_bank(self):
        """The all-worlds stacked channel bank (or ``None``).

        Keyed on the per-world bank identities, so slice churn or a
        non-bankable world anywhere in the fleet drops straight back
        to the per-network path.  One world needs none: its own bank
        is already one contiguous block, and leaving its storage where
        it is keeps the world steppable by any other engine holding
        it.
        """
        if len(self.sims) == 1:
            return None
        from repro.sim.channel import FleetChannelBank

        banks = [sim.network.channel_bank() for sim in self.sims]
        key = tuple(id(bank) for bank in banks)
        if key != self._fleet_key:
            self._fleet = FleetChannelBank.adopt(
                banks, [sim.network._rng for sim in self.sims])
            self._fleet_key = key
        return self._fleet

    def _gather_channels(self, states: List[WorldLayout]):
        umax = max(state.users for state in states)
        total = sum(len(state.names) for state in states)
        block = None
        if len(states) == 1:
            block = states[0].sim.network.channel_bank()
        elif len(states) == len(self.sims):
            block = self._fleet
        if block is not None and block.cqi.shape == (total, umax):
            # One world stepping, or the whole fleet at uniform user
            # counts: the bank's block *is* the gather layout -- no
            # per-world copies.
            if self._margin is None \
                    or self._margin.shape != (total, umax):
                self._margin = np.zeros((total, umax))
            np.subtract(block.snr_db, block.mean_snr_db,
                        out=self._margin)
            return block.cqi, self._margin
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

    def _commit(self, stepping: List[int], states: List[WorldLayout],
                out: Dict[str, np.ndarray],
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

            sim._slot += 1
            state.cum_cost += costs[lo:hi]
            dones.append(sim.done)

            block = obs[lo:hi]
            block[:, 0] = sim._slot / sim.horizon
            block[:, 1] = rates[world_rows][state.managed] \
                / state.max_arrival
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
