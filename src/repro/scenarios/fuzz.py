"""Seeded scenario fuzzing: random worlds from the compositional pieces.

The catalog holds eleven hand-written scenarios; this module generates
*thousands* by randomly composing the same pieces -- slice populations,
traffic models, :class:`~repro.scenarios.events.NetworkEvent`
timelines, horizon overrides, fixed-MCS network variants -- inside the
bounds of :class:`FuzzSpace`.  Every generated world is a plain
:class:`~repro.scenarios.spec.ScenarioSpec`: it runs through the same
engines, serialises through the same tagged-JSON scheme, and (once
shrunk) graduates into the same pinned catalog as a hand-written one.

Determinism contract
--------------------
World ``i`` of fuzz seed ``S`` is drawn from its *own* RNG stream,
``default_rng(SeedSequence((S, i)))``, so the corpus is prefix-stable:
``generate_corpus(S, 8)`` is exactly the first eight specs of
``generate_corpus(S, 100)``, independent of batch size, process, or
platform.  :func:`corpus_digest` pins that property in the
golden-digest suite.  All drawn floats are rounded to four decimals so
shrunk repros stay readable when committed as code.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import TrafficConfig
from repro.scenarios.events import (
    BackgroundLoadStep,
    LatencySurge,
    LinkDegradation,
    NetworkEvent,
    SliceArrival,
)
from repro.scenarios.spec import ScenarioSpec, population
from repro.scenarios.traffic_models import (
    ConstantTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    MixDriftTraffic,
    OnOffTraffic,
    ScaledTraffic,
    TrafficModel,
)

#: Apps a fuzzed churn slice may instantiate.
_CHURN_APPS = ("mar", "hvs", "rdc")

#: Traffic model family names drawn by the generator ("diurnal" means
#: ``traffic=None``, the simulator's built-in synthesizer path).
_TRAFFIC_FAMILIES = ("diurnal", "constant", "scaled", "flash_crowd",
                     "on_off", "mix_drift")


@dataclass(frozen=True)
class FuzzSpace:
    """Bounds of the fuzzed scenario space.

    The defaults stay inside ranges every compositional piece validates
    (see the ``__post_init__`` checks of the traffic models and
    events), so a generated spec always *builds*; whether it also meets
    its SLA is exactly what the fuzz oracle decides.
    ``load_factor_max > 1`` deliberately allows over-provisioned
    populations -- the interesting failures live there.
    """

    min_slices: int = 1
    max_slices: int = 9
    min_slots: int = 8
    max_slots: int = 32
    max_events: int = 4
    #: Per-slice arrival derate multiplier range, applied on top of the
    #: aggregate-preserving ``3 / count`` derate of :func:`population`.
    load_factor_min: float = 0.5
    load_factor_max: float = 1.6
    #: Probability that a generated world keeps the diurnal default
    #: instead of drawing another traffic family.
    p_diurnal: float = 0.25

    def __post_init__(self) -> None:
        if not 1 <= self.min_slices <= self.max_slices:
            raise ValueError("need 1 <= min_slices <= max_slices")
        if not 2 <= self.min_slots <= self.max_slots:
            raise ValueError("need 2 <= min_slots <= max_slots")
        if self.max_events < 0:
            raise ValueError("max_events must be >= 0")
        if not 0.0 < self.load_factor_min <= self.load_factor_max:
            raise ValueError("need 0 < load_factor_min <= "
                             "load_factor_max")
        if not 0.0 <= self.p_diurnal <= 1.0:
            raise ValueError("p_diurnal must be in [0, 1]")


def _round(value: float) -> float:
    """Four-decimal rounding: committed repros stay readable."""
    return round(float(value), 4)


def _draw_traffic(rng: np.random.Generator,
                  space: FuzzSpace) -> Optional[TrafficModel]:
    """One traffic model (or ``None`` for the diurnal default)."""
    if rng.uniform() < space.p_diurnal:
        return None
    family = _TRAFFIC_FAMILIES[1:][int(
        rng.integers(len(_TRAFFIC_FAMILIES) - 1))]
    if family == "constant":
        return ConstantTraffic(level=_round(rng.uniform(0.2, 1.0)))
    if family == "scaled":
        return ScaledTraffic(base=DiurnalTraffic(),
                             scale=_round(rng.uniform(0.5, 1.8)))
    if family == "flash_crowd":
        return FlashCrowdTraffic(
            base=DiurnalTraffic(),
            at_fraction=_round(rng.uniform(0.1, 0.8)),
            duration_fraction=_round(rng.uniform(0.05, 0.4)),
            magnitude=_round(rng.uniform(1.5, 4.0)))
    if family == "on_off":
        return OnOffTraffic(
            on_level=_round(rng.uniform(0.6, 1.0)),
            off_level=_round(rng.uniform(0.0, 0.3)),
            mean_on_slots=_round(rng.uniform(2.0, 12.0)),
            mean_off_slots=_round(rng.uniform(2.0, 12.0)))
    return MixDriftTraffic(base=DiurnalTraffic(),
                           drift=_round(rng.uniform(0.2, 1.2)))


def _draw_events(rng: np.random.Generator, space: FuzzSpace
                 ) -> Tuple[NetworkEvent, ...]:
    """A timeline of 0..max_events composable events.

    Churn arrivals get unique ``FZ<k>`` names, disjoint from the
    ``{APP}{index}`` population naming, so a generated spec never
    trips the simulator's arrival-collision guard.  An arrival
    departs when its window ends, so every event of a timeline stays
    independently droppable for the shrinker.
    """
    count = int(rng.integers(0, space.max_events + 1))
    events: List[NetworkEvent] = []
    for index in range(count):
        at = _round(rng.uniform(0.0, 1.0))
        duration = _round(rng.uniform(0.05, 0.6))
        kind = int(rng.integers(4))
        if kind == 0:
            events.append(LinkDegradation(
                at_fraction=at, duration_fraction=duration,
                capacity_scale=_round(rng.uniform(0.2, 0.9))))
        elif kind == 1:
            events.append(LatencySurge(
                at_fraction=at, duration_fraction=duration,
                extra_latency_ms=_round(rng.uniform(5.0, 60.0))))
        elif kind == 2:
            events.append(BackgroundLoadStep(
                at_fraction=at, duration_fraction=duration,
                load_fraction=_round(rng.uniform(0.1, 0.7))))
        else:
            events.append(SliceArrival(
                at_fraction=at, duration_fraction=duration,
                app=_CHURN_APPS[int(rng.integers(len(_CHURN_APPS)))],
                slice_name=f"FZ{index + 1}",
                arrival_scale=_round(rng.uniform(0.2, 0.8)),
                action_level=_round(rng.uniform(0.1, 0.4))))
    return tuple(events)


def generate_spec(seed: int, index: int,
                  space: Optional[FuzzSpace] = None) -> ScenarioSpec:
    """World ``index`` of fuzz seed ``seed`` (deterministic).

    The spec's own ``seed`` field is drawn from the same stream, so
    traffic realisation varies across worlds even when two worlds draw
    the same structure.
    """
    space = space if space is not None else FuzzSpace()
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    slots = int(rng.integers(space.min_slots, space.max_slots + 1))
    count = int(rng.integers(space.min_slices, space.max_slices + 1))
    load = rng.uniform(space.load_factor_min, space.load_factor_max)
    scale = _round(min(load * min(3.0 / count, 1.0), 1.0))
    traffic = _draw_traffic(rng, space)
    events = _draw_events(rng, space)
    return ScenarioSpec(
        name=f"fuzz-s{seed}-w{index}",
        description=f"fuzzed world {index} of seed {seed}",
        slices=population(count, arrival_scale=scale),
        traffic=traffic,
        events=events,
        traffic_cfg=TrafficConfig(slots_per_episode=slots),
        seed=int(rng.integers(0, 2 ** 31 - 1)))


def generate_corpus(seed: int, count: int,
                    space: Optional[FuzzSpace] = None
                    ) -> Tuple[ScenarioSpec, ...]:
    """The first ``count`` worlds of fuzz seed ``seed`` (prefix-stable)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(generate_spec(seed, index, space)
                 for index in range(count))


def spec_digest(spec: ScenarioSpec) -> str:
    """SHA-256 of a spec's canonical tagged-JSON form.

    This is the *identity* digest (what the spec is), complementing
    :func:`~repro.scenarios.spec.first_episode_trace_digest` (what
    workload it realises); the shrinker's determinism gate in CI pins
    the shrunk spec's identity with it.
    """
    # Lazy: repro.runtime.serialization imports this package.
    from repro.runtime.serialization import to_jsonable

    canonical = json.dumps(to_jsonable(spec), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def corpus_digest(specs) -> str:
    """SHA-256 over the spec digests of a generated corpus, in order."""
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec_digest(spec).encode("ascii"))
    return digest.hexdigest()


def scenario_family(spec: ScenarioSpec) -> str:
    """Coarse family label ``<traffic>/<events>`` for sweep heatmaps.

    Traffic is the model class name (``diurnal`` for the built-in
    path); the event profile distinguishes fault-only timelines,
    churn-only timelines, and mixtures.
    """
    traffic = ("diurnal" if spec.traffic is None
               else type(spec.traffic).__name__)
    kinds = {getattr(event, "kind", "?") for event in spec.events}
    if not kinds:
        profile = "none"
    elif kinds == {"slice_arrival"}:
        profile = "churn"
    elif "slice_arrival" in kinds:
        profile = "mixed"
    else:
        profile = "faults"
    return f"{traffic}/{profile}"
