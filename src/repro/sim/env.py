"""RL environments over the end-to-end network.

Implements the paper's MDP (Sec. 3):

* **State** -- current slot ``t``, last traffic ``f_{t-1}``, average
  channel ``h_{t-1}``, radio usage ``g_{t-1}``, VNF/edge workload
  ``w_{t-1}``, last reward and cost ``r_{t-1}, c_{t-1}``, the SLA
  threshold ``C_max`` and the cumulative episode cost.
* **Action** -- the ten resource dimensions in [0, 1].
* **Reward** -- negative total virtual-resource usage (Eq. 9).
* **Cost** -- SLA degradation ``1 - clip(p/P, 0, 1)`` (Eq. 10).

:class:`ScenarioSimulator` steps *all* slices jointly (the orchestrator
uses this); :class:`SliceEnv` is a single-slice view that drives the
other slices with background policies, used for individual agent
training and unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.config import ExperimentConfig, NUM_ACTIONS, slice_spec_for_app
from repro.sim.network import EndToEndNetwork, SlotReport
from repro.sim.traffic import (
    MAX_ENVELOPE,
    PoissonArrivals,
    TelecomItaliaSynthesizer,
)

#: Number of features in the observation vector.
STATE_DIM = 9

#: Measurement window (seconds) over which slot arrivals are realised.
ARRIVAL_WINDOW_S = 60.0

#: Event kinds that change transport-fabric conditions while active.
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


class ScenarioSimulator:
    """Joint multi-slice episode driver over :class:`EndToEndNetwork`.

    Beyond the paper's fixed world, the simulator executes a *scenario*:
    an optional traffic model replaces the built-in diurnal synthesizer
    per slice, and an event timeline (duck-typed objects carrying a
    ``kind`` tag -- see :mod:`repro.scenarios.events`) injects
    mid-episode network faults and slice churn.  Churn events manage
    *background* slices: the simulator provisions them end to end,
    drives them with a fixed allocation, and keeps them out of the
    per-slice results, so learning agents see only resource pressure.
    """

    def __init__(self, cfg: Optional[ExperimentConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 traffic_model=None,
                 events: Sequence = ()) -> None:
        self.cfg = cfg or ExperimentConfig()
        self._rng = rng if rng is not None else np.random.default_rng(
            self.cfg.seed)
        self.network = EndToEndNetwork(
            self.cfg.network, slices=self.cfg.slices, rng=self._rng)
        self._synth = TelecomItaliaSynthesizer(self.cfg.traffic,
                                               rng=self._rng)
        self._arrivals = PoissonArrivals(rng=self._rng)
        self.horizon = self.cfg.traffic.slots_per_episode
        self._traffic_model = traffic_model
        self._events = tuple(events)
        for event in self._events:
            if getattr(event, "kind", None) not in (
                    _CONDITION_EVENT_KINDS
                    + ("slice_arrival", "slice_departure")):
                raise ValueError(f"unknown event kind on {event!r}")
        self._active_events: List = []
        self._event_slices: Dict[str, np.ndarray] = {}
        self._traces: Dict[str, np.ndarray] = {}
        self._slot = 0
        self._day = 0
        self._cum_cost: Dict[str, float] = {}
        self._last: Dict[str, SliceObservation] = {}
        self._last_rates: Dict[str, float] = {}

    @property
    def slice_names(self) -> List[str]:
        """The managed (agent-facing) slices -- churn slices excluded."""
        return [name for name in self.network.slice_names
                if name not in self._event_slices]

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
        if name in self._event_slices:
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
        elif event.kind == "slice_departure":
            if (event.slice_name in self.network.slices
                    and event.slice_name not in self._event_slices):
                raise ValueError(
                    f"cannot depart managed slice {event.slice_name!r};"
                    " churn applies to background slices only")
            self._remove_event_slice(event.slice_name)
            # also retire the arrival so its own expiry is a no-op
            self._active_events = [
                e for e in self._active_events
                if not (e.kind == "slice_arrival"
                        and e.slice_name == event.slice_name)]
        else:
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
        """Expire finished events and fire the ones due this slot.

        Called by :meth:`step` (and, world by world, by the batched
        engine -- event draws consume this world's RNG in the same
        order either way).
        """
        if not self._events:
            return
        for event in list(self._active_events):
            if self._slot >= event.end_slot(self.horizon):
                self._deactivate(event)
        for event in self._events:
            if (event.start_slot(self.horizon) == self._slot
                    and event not in self._active_events):
                self._activate(event)
        self._refresh_conditions()

    # ---- episode lifecycle -----------------------------------------------

    def _generate_traces(self) -> Dict[str, np.ndarray]:
        if self._traffic_model is None:
            return {
                name: self._synth.generate(day_of_week=self._day % 7)
                for name in self.slice_names
            }
        traces: Dict[str, np.ndarray] = {}
        for index, name in enumerate(self.slice_names):
            envelope = np.asarray(self._traffic_model.envelope(
                index, self.horizon, self._day, self.cfg.traffic,
                self._rng), dtype=float)
            if envelope.shape != (self.horizon,):
                raise ValueError(
                    f"traffic model returned shape {envelope.shape}, "
                    f"expected ({self.horizon},)")
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
        self._cum_cost = {name: 0.0 for name in self.slice_names}
        observations = {}
        for name in self.slice_names:
            spec = self.network.slices[name]
            channel = self.network.channels[name]
            observations[name] = SliceObservation(
                slot_fraction=0.0,
                traffic=float(self._traces[name][0]),
                channel_quality=channel.normalized_quality(),
                radio_usage=0.0,
                workload=0.0,
                last_usage=0.0,
                last_cost=0.0,
                cost_threshold=spec.sla.cost_threshold,
                cumulative_cost=0.0,
            )
        self._last = dict(observations)
        self._last_rates = {name: 0.0 for name in self.slice_names}
        return observations

    def realized_rate(self, name: str) -> float:
        """Poisson-realised arrivals/s of a slice at the current slot."""
        spec = self.network.slices[name]
        envelope = float(self._traces[name][self._slot])
        return self._arrivals.empirical_rate(
            envelope * spec.max_arrival_rate, ARRIVAL_WINDOW_S)

    def step(self, actions: Mapping[str, np.ndarray]
             ) -> Dict[str, SliceStepResult]:
        """Advance one slot with every slice's action.

        Raises once the episode horizon is exceeded; callers check
        :attr:`done` (or episode length) to reset.
        """
        if self._slot >= self.horizon:
            raise RuntimeError("episode finished; call reset()")
        self.apply_events()
        self.network.step_channels()
        rates = {name: self.realized_rate(name)
                 for name in self.network.slice_names}
        joint = {name: np.asarray(action, dtype=float)
                 for name, action in actions.items()}
        for name, action in self._event_slices.items():
            joint.setdefault(name, action)
        reports = self.network.evaluate_slot(joint, rates)
        self._slot += 1
        results: Dict[str, SliceStepResult] = {}
        for name, report in reports.items():
            if name in self._event_slices:
                continue    # background churn slice: not reported
            spec = self.network.slices[name]
            self._cum_cost[name] += report.cost
            horizon_cost = self.horizon * spec.sla.cost_threshold
            obs = SliceObservation(
                slot_fraction=self._slot / self.horizon,
                traffic=rates[name] / spec.max_arrival_rate,
                channel_quality=self.network.channels[name]
                .normalized_quality(),
                radio_usage=report.radio_usage,
                workload=report.workload,
                last_usage=report.usage,
                last_cost=report.cost,
                cost_threshold=spec.sla.cost_threshold,
                cumulative_cost=self._cum_cost[name] / horizon_cost,
            )
            self._last[name] = obs
            results[name] = SliceStepResult(
                observation=obs, reward=-report.usage,
                cost=report.cost, usage=report.usage, report=report)
        self._last_rates = {name: rates[name] for name in results}
        return results

    @property
    def done(self) -> bool:
        return self._slot >= self.horizon

    def cumulative_cost(self, name: str) -> float:
        return self._cum_cost[name]

    def mean_cost(self, name: str) -> float:
        """Mean per-slot cost so far this episode."""
        if self._slot == 0:
            return 0.0
        return self._cum_cost[name] / self._slot

    def sla_violated(self, name: str) -> bool:
        """Episode-level SLA check: mean cost above ``C_max``."""
        sla = self.network.slices[name].sla
        return sla.violated(self.mean_cost(name))


#: A background policy maps (slice_name, observation) -> action.
BackgroundPolicy = Callable[[str, SliceObservation], np.ndarray]


def constant_background(action: np.ndarray) -> BackgroundPolicy:
    """Background policy that always plays a fixed allocation."""
    action = np.asarray(action, dtype=float)
    if action.shape != (NUM_ACTIONS,):
        raise ValueError(f"action must have {NUM_ACTIONS} dims")

    def policy(_name: str, _obs: SliceObservation) -> np.ndarray:
        return action.copy()

    return policy


class SliceEnv:
    """Single-slice gym-like environment.

    Wraps a :class:`ScenarioSimulator`: the focal slice takes the
    caller's action while every other slice follows ``background``.
    """

    def __init__(self, simulator: ScenarioSimulator, slice_name: str,
                 background: Optional[BackgroundPolicy] = None) -> None:
        if slice_name not in simulator.slice_names:
            raise KeyError(f"no slice {slice_name!r} in simulator")
        self.simulator = simulator
        self.slice_name = slice_name
        default = np.full(NUM_ACTIONS, 0.15)
        self.background = (background if background is not None
                           else constant_background(default))
        self._observations: Dict[str, SliceObservation] = {}

    @property
    def state_dim(self) -> int:
        return STATE_DIM

    @property
    def action_dim(self) -> int:
        return NUM_ACTIONS

    @property
    def horizon(self) -> int:
        return self.simulator.horizon

    def reset(self) -> np.ndarray:
        self._observations = self.simulator.reset()
        return self._observations[self.slice_name].vector()

    def step(self, action: np.ndarray):
        """Returns ``(obs_vector, reward, cost, done, result)``."""
        actions = {}
        for name in self.simulator.slice_names:
            if name == self.slice_name:
                actions[name] = np.asarray(action, dtype=float)
            else:
                actions[name] = self.background(
                    name, self._observations[name])
        results = self.simulator.step(actions)
        for name, result in results.items():
            self._observations[name] = result.observation
        focal = results[self.slice_name]
        return (focal.observation.vector(), focal.reward, focal.cost,
                self.simulator.done, focal)
