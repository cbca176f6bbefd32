"""The world stepper: B worlds advanced one slot in lockstep.

:class:`BatchSimulator` steps ``B`` independent
:class:`~repro.sim.env.ScenarioSimulator` worlds -- possibly
heterogeneous scenarios with different slice populations, horizons and
event timelines -- through one evaluation of the vectorised kernels of
:mod:`repro.engine.kernels` per slot.  :meth:`BatchSimulator.step` is
the only implementation of the paper's slot sequence (events ->
channels -> Poisson arrivals -> kernels -> Eq. 9 usage / Eq. 10 cost
-> next state); ``ScenarioSimulator.step`` is its ``B = 1`` case.
Each world's episode state (slot, traces, generator and the
struct-of-arrays :class:`~repro.sim.env.WorldLayout`) lives on its
simulator, so a world may be stepped alone and inside a shared batch
interchangeably.

A slot costs a constant number of array operations whatever B is.
Per world the stepper only checks that it may step, draws its
innovations and arrivals from its own generator and advances its slot
counter; everything else is whole-batch:

* what is constant for a row layout -- concatenated kernel rows,
  managed-row index, offsets, per-row constants, name lists, buffers
  -- is a :class:`_Bundle`, keyed on the stepping worlds and their
  :attr:`SliceRows.uid` and *spliced* (the old bundle's kept runs of
  worlds, read in place, + the worlds that changed, one call per
  column block) when a retirement, a sit-out or a reshape by hand
  changes the key.  Churn changes no key: a world's rows are fixed
  when its simulator is built and churn flips which are attached
  (``EndToEndNetwork.active``, copied into the bundle's rows); an
  unattached row draws nothing, adds exactly ``0.0`` to its world's
  path loads and is in no output;
* the worlds' channels live in this engine's
  :class:`~repro.sim.channel.FleetChannelBank` block -- built at
  construction for any B, one world included, and as wide as the
  widest world's user count -- advanced by one fused AR(1) update over
  the stepped worlds' rows; only a world whose network the block does
  not hold (another engine stepped the world, or its rows were
  reshaped by hand) is re-adopted;
* cumulative episode costs are one stacked vector the worlds' layouts
  view (re-homed when a layout is new or another engine stepped the
  world), updated with one add;
* ``apply_events`` runs on a world's event slots only (the start and
  end slots of its timeline, ``ScenarioSimulator.event_slots``).

Every stepping world and every action is validated -- against the
worlds' managed slice names; layouts are built after the event pass --
before the first of these mutates anything, so a rejected step can
simply be retried.
:attr:`BatchSimulator.counters` counts the rebuilds.

Determinism contract
--------------------
Each world keeps its *own* RNG (the simulator's), consumed in a fixed
order per slot: event activation draws, then one standard-normal block
for the world's attached channels, then one scalar Poisson draw per
attached slice, in row order (the same values and generator state as
one array draw over the slices).  Attached rows are in attach order,
so these are the calls a world whose rows came and went would make.
A world stepped inside a batch therefore produces bit-identical
traffic, channels, rewards, costs and observations to the same world
stepped alone -- ``tests/test_engine.py`` pins this against the golden
trace digests for every catalog scenario.

Two costs are deliberately *not* paid per slot: per-slice
``SliceObservation``/``SlotReport`` object construction (results are
returned as stacked arrays; ``ScenarioSimulator.step`` builds objects
at the edge for callers that want them) and substrate mirroring (the
kernels compute path loads and container allocations directly; no
substrate object records what the stepper executed).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import NUM_ACTIONS
from repro.engine.kernels import (
    SliceRows,
    WorldConditions,
    evaluate_rows,
    splice_rows,
)
from repro.obs.trace import trace
from repro.sim.channel import FleetChannelBank
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


class _Bundle:
    """Everything that is constant for one row layout of the stepping
    worlds: built (or spliced from its predecessor) when the worlds or
    one of their :attr:`SliceRows.uid` change; between, only a
    churned world's segment of ``rows.active`` and ``counts`` is
    rewritten (:meth:`follow`).

    The stacked inputs are joined piece by piece -- the kernel row
    constants, the managed-row mask, the action matrix (a background
    churn slice's row holds its event's fixed allocation; managed
    rows are overwritten every slot), the horizons, the managed-name
    lists and the networks (whose link conditions each slot reads) --
    and everything else the slot needs (index
    vectors, per-managed-row constants, buffers sized for the layout)
    is derived from them with a constant number of array operations.
    """

    def __init__(self, worlds: List[int], uids: List[int],
                 churns: List[int], rows: SliceRows, mask: np.ndarray,
                 matrix: np.ndarray, horizons: np.ndarray,
                 names: List[List[str]], networks: list) -> None:
        self.worlds = worlds
        self.uids = uids
        #: the ``network.churn_count`` ``rows.active`` follows
        self.churns = churns
        self.rows = rows
        self.mask = mask
        self.matrix = matrix
        self.horizons = horizons
        self.names = names
        self.networks = networks
        count = len(worlds)
        #: first row of each world (all rows, managed or not)
        self.row_starts = np.searchsorted(rows.world,
                                          np.arange(count + 1))
        #: managed rows, their world (bundle position) and offsets
        self.managed = np.flatnonzero(mask)
        self.world_of = rows.world[self.managed]
        self.offsets = np.searchsorted(self.world_of,
                                       np.arange(count + 1))
        self.max_arrival = rows.max_arrival[self.managed]
        self.cost_threshold = rows.cost_threshold[self.managed]
        self.horizon_cost = (horizons[self.world_of]
                             * self.cost_threshold)
        self.counts = np.zeros(rows.num_rows, dtype=np.int64)
        self.rates = np.empty(rows.num_rows)
        self.cond = WorldConditions.nominal(count)
        #: where the worlds' managed rows / channel rows sit in the
        #: engine's stacked cumulative cost / the fleet channel block
        #: (set by the engine, which owns both)
        self.cum_rows: Union[slice, np.ndarray] = slice(None)
        self.channel_rows: Optional[np.ndarray] = None

    def follow(self, churns: List[int]) -> None:
        """Re-read the attached rows of every world whose network
        churned since ``self.churns``, and zero their arrival counts
        (an attached row's count is drawn afresh each slot)."""
        for i, (now, was) in enumerate(zip(churns, self.churns)):
            if now != was:
                lo, hi = self.row_starts[i], self.row_starts[i + 1]
                self.rows.active[lo:hi] = self.networks[i].active
                self.counts[lo:hi] = 0
        self.churns = churns

    def pieces(self, worlds: List[int], uids: List[int],
               churns: List[int], states: List[WorldLayout]) -> list:
        """How to make the bundle of ``worlds`` from this one: runs
        ``(lo, hi)`` of this bundle's worlds that carry over as they
        are, and the :class:`WorldLayout` of every world that is new,
        churned or whose rows changed, in output order."""
        position = {b: i for i, b in enumerate(self.worlds)}
        pieces: list = []
        for b, uid, churn, state in zip(worlds, uids, churns, states):
            i = position.get(b)
            if i is None or self.uids[i] != uid \
                    or self.churns[i] != churn:
                pieces.append(state)
            elif (pieces and isinstance(pieces[-1], tuple)
                    and pieces[-1][1] == i):
                pieces[-1] = (pieces[-1][0], i + 1)
            else:
                pieces.append((i, i + 1))
        return pieces


def _ranges(starts: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``starts[m]:starts[m + 1]`` for every ``m`` of ``members``, end
    to end, as one index vector."""
    first = starts[members]
    sizes = starts[members + 1] - first
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(first - (ends - sizes),
                                           sizes)


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
        self._bundle: Optional[_Bundle] = None
        self._counters = dict.fromkeys(
            ("bundle_builds", "bundle_splices", "fleet_adoptions",
             "bank_readoptions", "event_slots", "layout_builds",
             "row_edits"), 0)
        # Every world's channel state, stacked into the one block the
        # channel stage advances.
        self._fleet = FleetChannelBank([sim.network for sim in self.sims])
        self._counters["fleet_adoptions"] += 1
        # Every world's managed cumulative episode cost, stacked at
        # fixed positions; a stepped world's ``WorldLayout.cum_cost``
        # is re-homed as a view of its segment.
        self._restack()

    # ---- episode lifecycle ------------------------------------------

    @property
    def num_worlds(self) -> int:
        return len(self.sims)

    @property
    def dones(self) -> List[bool]:
        return [sim.done for sim in self.sims]

    @property
    def counters(self) -> Mapping[str, int]:
        """What this engine rebuilt so far (a read-only snapshot):
        full bundle builds and bundle splices (together, one per row
        layout the kernels saw), whole-fleet channel adoptions (always
        1: the block is built with the engine) and single-world
        re-adoptions (``bank_readoptions``), the world-slots on which
        an event boundary was handled, the
        :class:`~repro.sim.env.WorldLayout` builds its steps made (one
        per world and episode) and the row edits its event boundaries
        made (one per slice a timeline attached or detached: a row
        flipped, nothing rebuilt).  Worlds joining or leaving the
        stepped set, another engine stepping a world and a slice set
        reshaped by hand are the only things that move the others
        after the first step; churn moves none of them."""
        return MappingProxyType(dict(self._counters))

    def slice_names(self, world: int) -> List[str]:
        return list(self.sims[world].slice_names)

    def reset(self) -> np.ndarray:
        """Reset every world; returns the stacked initial observations
        (managed rows, world-major)."""
        rows = [self.reset_world(b) for b in range(self.num_worlds)]
        return np.concatenate(rows, axis=0)

    def reset_world(self, world: int) -> np.ndarray:
        """Reset one world (``sim.reset_rows()``, on its own RNG
        stream) and return its initial observations, stacked."""
        return self.sims[world].reset_rows()

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
        :func:`~repro.engine.kernels.evaluate_rows` arrays (fresh
        every step) and ``rates`` the realised arrivals/s (the
        bundle's buffer, owned by this engine until its next step),
        both over *every* row of the stepped worlds (background churn
        slices included) -- what a caller building per-slice reports
        at the edge reads.

        A step that is rejected (a world never reset or past its
        horizon, an action of the wrong shape, for an unknown slice,
        missing for a managed one or not finite) raises, naming the
        world and the slice, before anything changed: no event
        fired, no generator advanced, and the same worlds can be
        stepped again with valid actions.
        """
        if len(actions) != self.num_worlds:
            raise ValueError(
                f"need one action set per world ({self.num_worlds}), "
                f"got {len(actions)}")
        stepping = [b for b, a in enumerate(actions) if a is not None]
        if not stepping:
            raise ValueError("no world to step (all actions None)")

        with trace("engine.step"):
            staged = self._stage(stepping, actions)

            # 1. events + churn, on the worlds at an event boundary
            #    (may consume world RNG; flips rows), and in the same
            #    pass this engine's caches: re-home a cumulative cost
            #    vector that lives elsewhere (fresh episode, another
            #    engine stepped the world), re-adopt a network whose
            #    channel state the fleet block does not hold (another
            #    engine stepped it, or a reshape, which also brings
            #    a new uid -- ``replace`` re-reads the row starts, so
            #    later worlds' events find their rows), then splice the
            #    bundle if the worlds or layouts changed, or follow the
            #    worlds that churned
            with trace("engine.events"):
                fleet, counters = self._fleet, self._counters
                states: List[WorldLayout] = []
                uids, churns, strays = [], [], []
                for b in stepping:
                    sim = self.sims[b]
                    network = sim.network
                    if sim._slot in sim.event_slots:
                        churn = network.churn_count
                        sim.apply_events()
                        counters["event_slots"] += 1
                        counters["row_edits"] += \
                            network.churn_count - churn
                    current = sim._layout
                    state = sim.layout()
                    if state is not current:
                        counters["layout_builds"] += 1
                    states.append(state)
                    if state.cum_cost.base is not self._cum:
                        strays.append((b, state))
                    if network._home is not fleet:
                        fleet.replace(b, network)
                        counters["bank_readoptions"] += 1
                    uids.append(state.rows.uid)
                    churns.append(network.churn_count)
                if strays:
                    self._home_costs(strays, list(zip(stepping, states)))
                bundle = self._bundle
                if bundle is None or uids != bundle.uids \
                        or stepping != bundle.worlds:
                    bundle = self._bundle = self._rebundle(
                        stepping, uids, churns, states)
                elif churns != bundle.churns:
                    bundle.follow(churns)

            # 2. channels (one standard-normal block per world, one
            #    fused AR(1) update over all of them)
            with trace("engine.channels"):
                cqi, margin = self._fleet.step_worlds(
                    stepping, bundle.channel_rows)

            # 3. realised arrivals: one scalar Poisson draw per
            #    attached row, in row order on the world's own
            #    generator -- the values and end state of one array
            #    draw over those rows, without its per-call range
            #    checks (the layout ran them once).  The world's
            #    generator is done for the slot, so the slot counter
            #    advances here too.
            with trace("engine.arrivals"):
                counts = bundle.counts
                first = 0
                slots, dones = [], []
                for state in states:
                    sim = state.sim
                    slot = sim._slot
                    poisson = sim._rng.poisson
                    lams = state.lam_rows[slot].tolist()
                    for row in sim.network.attached:
                        counts[first + row] = poisson(lams[row])
                    first += len(lams)
                    sim._slot = slot = slot + 1
                    slots.append(slot)
                    dones.append(slot >= sim.horizon)
                rates = bundle.rates
                np.divide(counts, ARRIVAL_WINDOW_S, out=rates)

            # 4. one kernel evaluation over every row of every world
            with trace("engine.kernel"):
                matrix = bundle.matrix
                matrix[bundle.managed] = staged
                out = evaluate_rows(
                    bundle.rows, bundle.cond.refresh(bundle.networks),
                    matrix, rates, cqi, margin)

            # 5. stacked managed-row results + cumulative cost
            with trace("engine.commit"):
                return self._commit(bundle, slots, dones, out,
                                    rates), out, rates

    def _stage(self, stepping: List[int],
               actions: Sequence[WorldActions]) -> np.ndarray:
        """Check every stepping world and every action before the
        first mutation (against the worlds' managed slice names: the
        layouts are built after the event pass, once); returns the
        managed rows' actions stacked world-major,
        ``(M, NUM_ACTIONS)``."""
        names: List[List[str]] = []
        parts: List[np.ndarray] = []
        for b in stepping:
            sim = self.sims[b]
            if not sim._day:                # no episode started yet
                raise RuntimeError(
                    f"world {b} was never reset; call reset() "
                    "or reset_world() first")
            if sim.done:
                raise RuntimeError(
                    f"world {b}: episode finished; call "
                    "reset() or reset_world()")
            managed = sim._managed_names()
            episode = sim._layout       # None before the first step
            if episode is not None \
                    and episode.rows is not sim.network._rows \
                    and episode.managed_names != managed:
                raise ValueError(
                    f"world {b}: the managed slices changed "
                    f"mid-episode ({episode.managed_names} -> "
                    f"{managed}), which its cumulative costs cannot "
                    "follow; reset the world first")
            given = actions[b]
            if isinstance(given, np.ndarray):
                if given.shape != (len(managed), NUM_ACTIONS):
                    raise ValueError(
                        f"world {b}: actions must have shape "
                        f"{(len(managed), NUM_ACTIONS)}, got "
                        f"{given.shape}")
                parts.append(given)
            else:
                for name in given:
                    if name not in managed:
                        raise KeyError(
                            f"world {b}: action for unknown slice "
                            f"{name!r}; managed slices: {managed}")
                for name in managed:
                    if name not in given:
                        raise KeyError(f"world {b}: no action for "
                                       f"slice {name!r}")
                    row = np.asarray(given[name], dtype=float)
                    if row.shape != (NUM_ACTIONS,):
                        raise ValueError(
                            f"world {b}: action for slice {name!r} "
                            f"must have shape ({NUM_ACTIONS},), got "
                            f"{row.shape}")
                    parts.append(row[None])
            names.append(managed)
        staged = np.concatenate(parts, dtype=float)
        # Out-of-range finite actions are the decode kernel's to
        # clip; NaN / inf would reach its integer decodes.
        finite = np.isfinite(staged)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=1)))
            row = bad
            for b, managed in zip(stepping, names):
                if row < len(managed):
                    raise ValueError(
                        f"world {b}: non-finite action for slice "
                        f"{managed[row]!r}: {staged[bad]}")
                row -= len(managed)
        return staged

    # ---- what is cached per layout ----------------------------------

    def _restack(self) -> None:
        """(Re)lay out the stacked cumulative cost from the worlds'
        current managed slice counts.  Layouts homed in the previous
        vector keep reading it and are re-homed on their next step."""
        self._cum_starts = np.concatenate(
            [[0], np.cumsum([len(sim._managed_names())
                             for sim in self.sims])])
        self._cum = np.zeros(int(self._cum_starts[-1]))
        self._bundle = None

    def _home_costs(self, strays: list, everyone: list) -> None:
        """Make the cumulative cost of every ``(world, layout)`` of
        ``strays`` a view of the world's segment of the stacked
        vector, which is laid out afresh -- once, and then for
        ``everyone`` stepping -- when a world's managed slice count
        is not the one it was laid out for (it changed between
        episodes; :meth:`_stage` rejects a change inside one)."""
        def segment(b: int) -> np.ndarray:
            return self._cum[self._cum_starts[b]:self._cum_starts[b + 1]]

        if any(len(segment(b)) != len(state.cum_cost)
               for b, state in strays):
            self._restack()
            strays = everyone
        for b, state in strays:
            home = segment(b)
            home[:] = state.cum_cost
            state.cum_cost = home

    def _rebundle(self, stepping: List[int], uids: List[int],
                  churns: List[int],
                  states: List[WorldLayout]) -> _Bundle:
        old = self._bundle
        if old is None:
            pieces = list(states)
            self._counters["bundle_builds"] += 1
        else:
            pieces = old.pieces(stepping, uids, churns, states)
            self._counters["bundle_splices"] += 1
        runs, masks, matrices, horizons, names, networks = (
            [], [], [], [], [], [])
        for piece in pieces:
            if isinstance(piece, tuple):
                lo, hi = piece
                first, last = old.row_starts[lo], old.row_starts[hi]
                runs.append((old.rows, lo, hi))
                masks.append(old.mask[first:last])
                matrices.append(old.matrix[first:last])
                horizons.append(old.horizons[lo:hi])
                names += old.names[lo:hi]
                networks += old.networks[lo:hi]
            else:
                runs.append((piece.rows, 0, 1))
                masks.append(piece.managed)
                matrices.append(piece.fixed_actions)
                horizons.append([piece.sim.horizon])
                names.append(piece.managed_names)
                networks.append(piece.sim.network)
        bundle = _Bundle(stepping, uids, churns, splice_rows(runs),
                         np.concatenate(masks), np.concatenate(matrices),
                         np.concatenate(horizons), names, networks)
        if len(stepping) < len(self.sims):
            members = np.asarray(stepping)
            bundle.cum_rows = _ranges(self._cum_starts, members)
            bundle.channel_rows = _ranges(
                np.asarray(self._fleet.starts), members)
        return bundle

    def _commit(self, bundle: _Bundle, slots: List[int],
                dones: List[bool], out: Dict[str, np.ndarray],
                rates: np.ndarray) -> BatchStepResult:
        managed = bundle.managed
        costs = out["cost"][managed]
        usages = out["usage"][managed]
        latencies = (out["transport_latency_ms"]
                     + out["core_latency_ms"]
                     + out["edge_latency_ms"])[managed]
        cum = self._cum[bundle.cum_rows]
        cum += costs
        self._cum[bundle.cum_rows] = cum

        obs = np.empty((len(managed), STATE_DIM))
        obs[:, 0] = (np.asarray(slots)
                     / bundle.horizons)[bundle.world_of]
        obs[:, 1] = rates[managed] / bundle.max_arrival
        obs[:, 2] = out["channel_quality"][managed]
        obs[:, 3] = out["radio_usage"][managed]
        obs[:, 4] = out["workload"][managed]
        obs[:, 5] = usages
        obs[:, 6] = costs
        obs[:, 7] = bundle.cost_threshold
        obs[:, 8] = cum / bundle.horizon_cost
        return BatchStepResult(
            worlds=list(bundle.worlds),
            offsets=bundle.offsets,
            names=bundle.names,
            observations=obs,
            rewards=-usages,
            costs=costs,
            usages=usages,
            latencies=latencies,
            dones=dones,
        )
