"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is everything that turns the fixed paper
testbed into a *workload*: which slices populate the cell (spec
templates, scalable to N > 3), which traffic model drives them, which
network events fire mid-episode, and any infrastructure overrides.
Specs are frozen dataclasses -- hashable, comparable, and losslessly
serialisable through the runtime's tagged-JSON scheme (no pickle) --
and every stochastic element is realised from the experiment seed at
build time, never at declaration time.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    SliceSpec,
    TrafficConfig,
    slice_spec_for_app,
)
from repro.scenarios.events import NetworkEvent
from repro.scenarios.traffic_models import TrafficModel


@dataclass(frozen=True)
class SliceTemplate:
    """One slice of a scenario population, by app template.

    ``name`` defaults to ``{APP}{index}`` when the population is built,
    so ``(mar, hvs, rdc) * 2`` instantiates MAR1/HVS2/RDC3/MAR4/... .
    ``arrival_scale`` derates the template's peak arrival rate, keeping
    large populations within the fixed infrastructure's envelope.
    """

    app: str
    name: Optional[str] = None
    arrival_scale: float = 1.0

    def build(self, index: int) -> SliceSpec:
        name = self.name or f"{self.app.upper()}{index + 1}"
        return slice_spec_for_app(self.app, name=name,
                                  arrival_scale=self.arrival_scale)


def population(count: int, arrival_scale: Optional[float] = None
               ) -> Tuple[SliceTemplate, ...]:
    """A ``count``-slice population cycling mar/hvs/rdc templates.

    Without an explicit ``arrival_scale`` the per-slice load is
    derated by ``3 / count`` so the aggregate offered load stays near
    the paper's three-slice setup regardless of N.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    scale = arrival_scale if arrival_scale is not None \
        else min(3.0 / count, 1.0)
    apps = ("mar", "hvs", "rdc")
    return tuple(SliceTemplate(app=apps[i % 3], arrival_scale=scale)
                 for i in range(count))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative workload over the simulated testbed."""

    name: str
    description: str = ""
    #: Slice population; empty means the paper's MAR/HVS/RDC trio.
    slices: Tuple[SliceTemplate, ...] = ()
    #: Traffic model; ``None`` keeps the simulator's built-in diurnal
    #: synthesizer path (bit-for-bit the paper's traces).
    traffic: Optional[TrafficModel] = None
    #: Mid-episode network events, positioned by horizon fractions.
    events: Tuple[NetworkEvent, ...] = ()
    #: Infrastructure override (e.g. fixed-MCS RAN variants).
    network: Optional[NetworkConfig] = None
    #: Trace cadence/horizon override (e.g. short test episodes).
    traffic_cfg: Optional[TrafficConfig] = None
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")

    def build_config(self, seed: Optional[int] = None
                     ) -> ExperimentConfig:
        """Materialise the spec into a concrete experiment config."""
        kwargs = {"seed": self.seed if seed is None else seed}
        if self.network is not None:
            kwargs["network"] = self.network
        if self.traffic_cfg is not None:
            kwargs["traffic"] = self.traffic_cfg
        if self.slices:
            specs = tuple(t.build(i) for i, t in enumerate(self.slices))
            names = [s.name for s in specs]
            if len(set(names)) != len(names):
                raise ValueError(
                    f"duplicate slice names in population: {names}")
            kwargs["slices"] = specs
        return ExperimentConfig(**kwargs)

    def event_timeline(self) -> Tuple[Dict, ...]:
        """The resolved event schedule as plain JSON-safe rows.

        Each row carries the event ``kind``, its concrete
        ``start_slot`` / ``end_slot`` under the spec's own episode
        length, the fractional placement it was resolved from, and
        the event's remaining parameters under ``params``.  This is
        the shard-checkpoint / diagnosis view of
        "what was injected when" -- slot rounding goes through
        :func:`~repro.scenarios.events.slot_window` via the event
        methods, so it matches what the simulator executes exactly.
        """
        traffic = self.traffic_cfg if self.traffic_cfg is not None \
            else TrafficConfig()
        horizon = traffic.slots_per_episode
        rows = []
        for event in self.events:
            params = {
                name: getattr(event, name)
                for name in sorted(
                    f.name for f in dataclasses.fields(event))
                if name not in ("at_fraction", "duration_fraction")
            }
            rows.append({
                "kind": event.kind,
                "start_slot": event.start_slot(horizon),
                "end_slot": event.end_slot(horizon),
                "at_fraction": event.at_fraction,
                "duration_fraction": event.duration_fraction,
                "params": params,
            })
        rows.sort(key=lambda row: (row["start_slot"], row["end_slot"],
                                   row["kind"]))
        return tuple(rows)

    def build_simulator(self, cfg: Optional[ExperimentConfig] = None,
                        rng=None):
        """A :class:`~repro.sim.env.ScenarioSimulator` driving this
        scenario's traffic model and event timeline.

        ``cfg`` overrides the spec-derived config (callers that already
        resolved one -- e.g. experiment units -- pass it back in so the
        two stay consistent).
        """
        from repro.sim.env import ScenarioSimulator

        cfg = cfg if cfg is not None else self.build_config()
        return ScenarioSimulator(cfg, rng=rng, traffic_model=self.traffic,
                                 events=self.events)


def first_episode_trace_digest(spec: ScenarioSpec,
                               seed: Optional[int] = None) -> str:
    """SHA-256 over the first episode's per-slice traffic envelopes.

    The digest pins what a scenario's workload *is*: any refactor of
    the traffic models, the synthesizer, or RNG plumbing that changes
    the traces a seed produces changes this digest.  The golden-digest
    regression test asserts it for every catalog scenario, so silent
    workload drift fails loudly instead of quietly skewing results.
    """
    cfg = spec.build_config(seed=seed)
    simulator = spec.build_simulator(
        cfg, rng=np.random.default_rng(cfg.seed))
    simulator.reset()
    digest = hashlib.sha256()
    for name, trace in sorted(simulator.traces().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(
            trace, dtype=np.float64).tobytes())
    return digest.hexdigest()
