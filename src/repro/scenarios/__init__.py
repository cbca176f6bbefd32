"""Scenario engine: declarative workloads over the simulated testbed.

The paper evaluates OnSlicing on exactly one world -- three slices,
one diurnal trace, a static network.  This package turns that world
into a parameter:

* :mod:`repro.scenarios.spec` -- :class:`ScenarioSpec`, a frozen
  declarative description (slice population, traffic model, event
  timeline, network overrides) with ``build_config`` /
  ``build_simulator`` materialisers;
* :mod:`repro.scenarios.traffic_models` -- compositional envelope
  generators (diurnal, flash crowd, MMPP on/off, mix drift);
* :mod:`repro.scenarios.events` -- mid-episode network events (link
  degradation, latency surge, background load, slice churn) executed
  through hooks in :class:`~repro.sim.env.ScenarioSimulator`;
* :mod:`repro.scenarios.registry` -- :class:`ScenarioRegistry` and the
  default instance experiment units resolve through;
* :mod:`repro.scenarios.catalog` -- the built-in scenarios
  (``python -m repro scenarios`` lists them);
* :mod:`repro.scenarios.fuzz` -- seeded random composition of specs
  from the pieces above (``python -m repro fuzz`` drives it).

Everything here sits *below* the methods/experiments layers: it
imports only ``repro.config`` and ``repro.sim``.
"""

from repro.scenarios.events import (
    EVENT_TYPES,
    BackgroundLoadStep,
    LatencySurge,
    LinkDegradation,
    NetworkEvent,
    SliceArrival,
)
from repro.scenarios.fuzz import (
    FuzzSpace,
    corpus_digest,
    generate_corpus,
    generate_spec,
    scenario_family,
    spec_digest,
)
from repro.scenarios.registry import (
    DEFAULT_REGISTRY,
    ScenarioRegistry,
    all_specs,
    get,
    names,
    register,
    unregister,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    SliceTemplate,
    first_episode_trace_digest,
    population,
)
from repro.scenarios.traffic_models import (
    ENVELOPE_MAX,
    TRAFFIC_MODEL_TYPES,
    ConstantTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    MixDriftTraffic,
    OnOffTraffic,
    ScaledTraffic,
    TrafficModel,
)

# Register the built-in catalog on import (idempotent per process).
from repro.scenarios import catalog as _catalog
from repro.scenarios.catalog import ROBUSTNESS_MATRIX

__all__ = [
    "DEFAULT_REGISTRY",
    "ENVELOPE_MAX",
    "EVENT_TYPES",
    "ROBUSTNESS_MATRIX",
    "TRAFFIC_MODEL_TYPES",
    "BackgroundLoadStep",
    "ConstantTraffic",
    "DiurnalTraffic",
    "FlashCrowdTraffic",
    "FuzzSpace",
    "LatencySurge",
    "LinkDegradation",
    "MixDriftTraffic",
    "NetworkEvent",
    "OnOffTraffic",
    "ScaledTraffic",
    "ScenarioRegistry",
    "ScenarioSpec",
    "SliceArrival",
    "SliceTemplate",
    "TrafficModel",
    "all_specs",
    "corpus_digest",
    "first_episode_trace_digest",
    "generate_corpus",
    "generate_spec",
    "get",
    "names",
    "population",
    "register",
    "scenario_family",
    "spec_digest",
    "unregister",
]
