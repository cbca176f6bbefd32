"""RL environments over the end-to-end network.

Implements the paper's MDP (Sec. 3):

* **State** -- current slot ``t``, last traffic ``f_{t-1}``, average
  channel ``h_{t-1}``, radio usage ``g_{t-1}``, VNF/edge workload
  ``w_{t-1}``, last reward and cost ``r_{t-1}, c_{t-1}``, the SLA
  threshold ``C_max`` and the cumulative episode cost.
* **Action** -- the ten resource dimensions in [0, 1].
* **Reward** -- negative total virtual-resource usage (Eq. 9).
* **Cost** -- SLA degradation ``1 - clip(p/P, 0, 1)`` (Eq. 10).

:class:`ScenarioSimulator` owns one world -- network, traffic traces,
event timeline, generator and the struct-of-arrays
:class:`WorldLayout` of its current episode -- and steps *all* its
slices jointly.  The slot sequence itself (events -> channels ->
Poisson arrivals -> kernels -> Eq. 9 / Eq. 10 -> next state) has one
implementation, :meth:`repro.engine.batch.BatchSimulator.step`;
:meth:`ScenarioSimulator.step` is its one-world case with the
per-slice objects built at the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.config import ExperimentConfig, NUM_ACTIONS, slice_spec_for_app
from repro.sim.network import EndToEndNetwork, SlotReport
from repro.sim.phy import NUM_CQI
from repro.sim.traffic import MAX_ENVELOPE, DiurnalTraffic

#: Number of features in the observation vector.
STATE_DIM = 9

#: Measurement window (seconds) over which slot arrivals are realised.
ARRIVAL_WINDOW_S = 60.0

#: The largest Poisson intensity numpy's ``Generator.poisson`` accepts
#: (its ``POISSON_LAM_MAX``); a :class:`WorldLayout` refuses any above.
POISSON_LAM_MAX = (np.iinfo("l").max
                   - np.sqrt(np.iinfo("l").max) * 10)

#: Event kinds that change the transport link conditions while active.
_CONDITION_EVENT_KINDS = ("link_degradation", "latency_surge",
                          "background_load")


@dataclass(frozen=True)
class SliceObservation:
    """The paper's state space for one slice, normalised to ~[0, 1]."""

    slot_fraction: float          # t / T
    traffic: float                # f_{t-1} / max arrival rate
    channel_quality: float        # h_{t-1}, mean CQI / 15
    radio_usage: float            # g_{t-1}
    workload: float               # w_{t-1}
    last_usage: float             # -r_{t-1} (usage form of the reward)
    last_cost: float              # c_{t-1}
    cost_threshold: float         # C_max
    cumulative_cost: float        # sum_m c_m / (T * C_max)

    def vector(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The observation as a ``(STATE_DIM,)`` float array.

        ``out`` writes into a pre-allocated buffer instead of
        allocating -- the serving/engine hot paths reuse one buffer
        per slice per episode.  Callers that *store* observations
        across slots (rollout buffers) must keep the allocating form.
        """
        if out is None:
            out = np.empty(STATE_DIM)
        out[0] = self.slot_fraction
        out[1] = self.traffic
        out[2] = self.channel_quality
        out[3] = self.radio_usage
        out[4] = self.workload
        out[5] = self.last_usage
        out[6] = self.last_cost
        out[7] = self.cost_threshold
        out[8] = self.cumulative_cost
        return out


@dataclass(frozen=True)
class SliceStepResult:
    """Outcome of one slot for one slice."""

    observation: SliceObservation
    reward: float                 # -usage, paper Eq. 9
    cost: float                   # paper Eq. 10
    usage: float
    report: SlotReport


class WorldLayout:
    """One world's current slice set and episode as struct-of-arrays.

    What the stepper reads per world, in network row order (managed
    and background churn slices alike): the kernel row constants, the
    managed-row mask, the background slices' fixed
    allocations, the episode's Poisson intensities and the managed
    slices' cumulative cost.  Owned by the simulator it describes (see
    :meth:`ScenarioSimulator.layout`), so every engine stepping the
    world -- alone or inside a shared batch -- sees the same episode.

    The intensity table is checked once, here, against the range
    ``Generator.poisson`` enforces (finite, ``>= 0``, at most
    :data:`POISSON_LAM_MAX`): a bad entry raises a ``ValueError``
    naming the slice and the slot when the layout is built (in the
    stepper's events stage), before that slot's channel and arrival
    draws, so no draw of the arrivals stage can fail partway through
    a world.
    """

    def __init__(self, sim: "ScenarioSimulator",
                 cum_cost: Optional[np.ndarray] = None) -> None:
        network = sim.network
        self.sim = sim
        #: ``network.churn_count`` this layout was built at.
        self.churn_count = network.churn_count
        self.rows = network.slot_rows()
        self.names = self.rows.names
        background = sim._event_slices
        self.managed = np.asarray(
            [name not in background for name in self.names],
            dtype=bool)
        self.managed_names = sim.slice_names
        #: ``(S, NUM_ACTIONS)``: a background churn slice's row is its
        #: event's fixed allocation (managed rows are never read).
        self.fixed_actions = np.zeros((len(self.names), NUM_ACTIONS))
        for row, name in enumerate(self.names):
            if name in background:
                self.fixed_actions[row] = background[name]
        # Poisson intensities for every (slot, slice) of the episode
        # (managed traces from the episode's generation, churn slices
        # pinned at 1.0), precomputed slot-major.  Bit-equal to a
        # per-slot (envelope * max_arrival) * ARRIVAL_WINDOW_S: the
        # same elementwise products, evaluated for all slots at once.
        traces = np.stack([sim._traces[name] for name in self.names],
                          axis=1)
        lam = (traces * self.rows.max_arrival) * ARRIVAL_WINDOW_S
        # ``0 <= x <= max`` is numpy's own per-call test (NaN fails
        # it), run once over the whole (T, S) table.
        bad = ~((lam >= 0.0) & (lam <= POISSON_LAM_MAX))
        if bad.any():
            slot, row = (int(i) for i in np.argwhere(bad)[0])
            raise ValueError(
                f"slice {self.names[row]!r}: Poisson intensity "
                f"{float(lam[slot, row])!r} at slot {slot} is not in "
                f"[0, {float(POISSON_LAM_MAX)!r}]")
        #: ``(T, S)``, slot-major: the arrivals stage draws one scalar
        #: ``poisson`` per entry of a slot's row (as Python floats).
        self.lam_rows = lam
        # Managed cumulative episode cost, aligned with managed rows;
        # a churn rebuild carries the episode's array over.  A batch
        # engine re-homes it as a view of its own stacked vector (see
        # ``BatchSimulator``), so always read it through this
        # attribute.
        self.cum_cost = (np.zeros(len(self.managed_names))
                         if cum_cost is None else cum_cost)


class ScenarioSimulator:
    """Joint multi-slice episode driver over :class:`EndToEndNetwork`.

    Beyond the paper's fixed world, the simulator executes a *scenario*:
    a traffic model draws each slice's envelope (``None`` is the
    paper's diurnal day, :class:`~repro.sim.traffic.DiurnalTraffic`),
    and an event timeline (duck-typed objects carrying a
    ``kind`` tag -- see :mod:`repro.scenarios.events`) injects
    mid-episode network faults and slice churn.  Churn events manage
    *background* slices: the simulator attaches them to the network,
    drives them with a fixed allocation, and keeps them out of the
    per-slice results, so learning agents see only resource pressure.
    """

    def __init__(self, cfg: Optional[ExperimentConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 traffic_model=None,
                 events: Sequence = ()) -> None:
        self.cfg = cfg or ExperimentConfig()
        if not self.cfg.slices:
            raise ValueError("cfg.slices is empty: a world needs at "
                             "least one slice to step")
        self._rng = rng if rng is not None else np.random.default_rng(
            self.cfg.seed)
        self.network = EndToEndNetwork(
            self.cfg.network, slices=self.cfg.slices, rng=self._rng)
        self.horizon = self.cfg.traffic.slots_per_episode
        self._traffic_model = (traffic_model if traffic_model is not None
                               else DiurnalTraffic())
        self._events = tuple(events)
        for event in self._events:
            if getattr(event, "kind", None) not in (
                    _CONDITION_EVENT_KINDS + ("slice_arrival",)):
                raise ValueError(f"unknown event kind on {event!r}")
        # The timeline at this horizon, resolved once: when each event
        # starts and ends, and the only slots at which
        # :meth:`apply_events` has anything to do.
        self._start_slot = [(event, event.start_slot(self.horizon))
                            for event in self._events]
        self._end_slot = {id(event): event.end_slot(self.horizon)
                          for event in self._events}
        #: Slots at which some event of the timeline starts or ends
        #: (the stepper calls :meth:`apply_events` on these only).
        self.event_slots = frozenset(
            slot for _, slot in self._start_slot).union(
                self._end_slot.values())
        self._active_events: List = []
        self._event_slices: Dict[str, np.ndarray] = {}
        self._traces: Dict[str, np.ndarray] = {}
        self._slot = 0
        self._day = 0
        self._layout: Optional[WorldLayout] = None
        self._managed: List[str] = []
        self._managed_at = -1       # network.churn_count of _managed
        #: The one-world stepper behind :meth:`step`, built on the
        #: first call (a world only ever stepped inside a shared
        #: batch never pays for it).
        self._engine = None

    @property
    def slice_names(self) -> List[str]:
        """The managed (agent-facing) slices -- churn slices excluded."""
        return list(self._managed_names())

    def _managed_names(self) -> List[str]:
        """:attr:`slice_names` without the copy, re-derived only when
        the network's slice set changed (do not mutate)."""
        churn = self.network.churn_count
        if self._managed_at != churn:
            self._managed = [name for name in self.network.slices
                             if name not in self._event_slices]
            self._managed_at = churn
        return self._managed

    @property
    def background_slice_names(self) -> List[str]:
        """Slices attached by churn events, driven by the simulator."""
        return list(self._event_slices)

    @property
    def active_events(self) -> List:
        return list(self._active_events)

    @property
    def slot(self) -> int:
        return self._slot

    def traces(self) -> Dict[str, np.ndarray]:
        """This episode's per-slice traffic envelopes (copies).

        Generated at :meth:`reset`; the golden-digest regression test
        hashes these so workload refactors that silently change what
        every scenario *is* fail loudly.
        """
        return {name: trace.copy()
                for name, trace in self._traces.items()}

    # ---- event timeline --------------------------------------------------

    def _remove_event_slice(self, name: str) -> None:
        self.network.remove_slice(name)
        del self._event_slices[name]
        self._traces.pop(name, None)

    def _activate(self, event) -> None:
        if event.kind == "slice_arrival":
            name = event.slice_name
            if name in self.network.slices:
                raise ValueError(
                    f"slice arrival {name!r} collides with an "
                    "existing slice")
            spec = slice_spec_for_app(event.app, name=name,
                                      arrival_scale=event.arrival_scale)
            self.network.add_slice(spec)
            self._event_slices[name] = np.full(NUM_ACTIONS,
                                               event.action_level)
            self._traces[name] = np.ones(self.horizon)
        self._active_events.append(event)

    def _deactivate(self, event) -> None:
        self._active_events.remove(event)
        if event.kind == "slice_arrival":
            self._remove_event_slice(event.slice_name)

    def _refresh_conditions(self) -> None:
        scale, extra, load = 1.0, 0.0, 0.0
        for event in self._active_events:
            if event.kind == "link_degradation":
                scale *= event.capacity_scale
            elif event.kind == "latency_surge":
                extra += event.extra_latency_ms
            elif event.kind == "background_load":
                load += event.load_fraction
        self.network.set_transport_conditions(
            capacity_scale=scale, extra_latency_ms=extra,
            background_load_fraction=min(load, 0.95))

    def apply_events(self) -> None:
        """Expire finished events, fire the ones due this slot and
        write the active events' transport conditions to the network.

        Between two slots of :attr:`event_slots` a call changes
        nothing the timeline owns, so the stepper makes it on those
        slots only (world by world; event draws consume this world's
        own RNG).  Transport conditions set by hand therefore hold
        until the world's next event boundary or ``reset()``.
        """
        if not self._events:
            return
        for event in list(self._active_events):
            if self._slot >= self._end_slot[id(event)]:
                self._deactivate(event)
        for event, start in self._start_slot:
            if start == self._slot \
                    and event not in self._active_events:
                self._activate(event)
        self._refresh_conditions()

    # ---- episode lifecycle -----------------------------------------------

    def _generate_traces(self) -> Dict[str, np.ndarray]:
        traces: Dict[str, np.ndarray] = {}
        for index, name in enumerate(self.slice_names):
            envelope = np.asarray(self._traffic_model.envelope(
                index, self.horizon, self._day, self.cfg.traffic,
                self._rng), dtype=float)
            if envelope.shape != (self.horizon,):
                raise ValueError(
                    f"traffic model returned shape {envelope.shape}, "
                    f"expected ({self.horizon},)")
            finite = np.isfinite(envelope)
            if not finite.all():
                slot = int(np.argmin(finite))
                model = type(self._traffic_model).__name__
                raise ValueError(
                    f"traffic model {model} returned a non-finite "
                    f"envelope for slice {name!r} "
                    f"({float(envelope[slot])!r} at slot {slot})")
            traces[name] = np.clip(envelope, 0.0, MAX_ENVELOPE)
        return traces

    def reset(self) -> Dict[str, SliceObservation]:
        """Start a new 24 h episode with fresh traffic traces.

        Restores the nominal world first: active events end, churn
        slices detach, and transport conditions clear -- the timeline
        replays relative to each episode.
        """
        self._slot = 0
        self._active_events = []
        for name in list(self._event_slices):
            self._remove_event_slice(name)
        self.network.clear_transport_conditions()
        self._traces = self._generate_traces()
        self._day += 1
        self._layout = None
        observations = {}
        cqi = self.network.cqi
        for row, (name, spec) in enumerate(self.network.slices.items()):
            observations[name] = SliceObservation(
                slot_fraction=0.0,
                traffic=float(self._traces[name][0]),
                channel_quality=float(cqi[row].mean()) / NUM_CQI,
                radio_usage=0.0,
                workload=0.0,
                last_usage=0.0,
                last_cost=0.0,
                cost_threshold=spec.sla.cost_threshold,
                cumulative_cost=0.0,
            )
        return observations

    def layout(self) -> WorldLayout:
        """The current episode's :class:`WorldLayout`.

        ``reset()`` drops it and the first step of the episode builds
        it, so trace edits made in between count; when churn swapped
        the network's row layout it is rebuilt with the episode's
        cumulative cost carried over.
        """
        current = self._layout
        if current is None:
            current = self._layout = WorldLayout(self)
        elif current.churn_count != self.network.churn_count:
            current = self._layout = WorldLayout(self,
                                                 current.cum_cost)
        return current

    def step(self, actions: Mapping[str, np.ndarray]
             ) -> Dict[str, SliceStepResult]:
        """Advance one slot with every slice's action.

        The one-world case of :meth:`repro.engine.batch.BatchSimulator
        .step` -- the only implementation of the slot sequence -- with
        the per-slice observation / report objects built from the
        stepped rows.  Raises once the episode horizon is exceeded;
        callers check :attr:`done` (or episode length) to reset.
        """
        if self._engine is None:
            from repro.engine.batch import BatchSimulator

            self._engine = BatchSimulator([self])
        step, out, rates = self._engine.step_rows([actions])
        reports = self.network.wrap_reports(out, rates)
        results: Dict[str, SliceStepResult] = {}
        for name, vector in zip(step.names[0],
                                step.observations.tolist()):
            report = reports[name]
            results[name] = SliceStepResult(
                observation=SliceObservation(*vector),
                reward=-report.usage, cost=report.cost,
                usage=report.usage, report=report)
        return results

    @property
    def done(self) -> bool:
        return self._slot >= self.horizon

    def cumulative_cost(self, name: str) -> float:
        """Summed per-slot cost of a managed slice this episode."""
        index = self.slice_names.index(name)
        if self._layout is None:        # nothing stepped since reset
            return 0.0
        return float(self._layout.cum_cost[index])

    def mean_cost(self, name: str) -> float:
        """Mean per-slot cost so far this episode."""
        if self._slot == 0:
            return 0.0
        return self.cumulative_cost(name) / self._slot

    def sla_violated(self, name: str) -> bool:
        """Episode-level SLA check: mean cost above ``C_max``."""
        sla = self.network.slices[name].sla
        return sla.violated(self.mean_cost(name))
