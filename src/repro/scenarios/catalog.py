"""Built-in scenarios.

Four mirror the paper's canonical configurations (so the experiment
units keep their exact configs); the rest open the non-stationary /
faulty regimes where safe *online* learning actually differs from the
offline baselines: flash crowds, bursty MMPP sources, traffic-mix
drift, transport faults, slice churn, and an N > 3 population.

``python -m repro scenarios`` lists this catalog; the ``robustness``
artefact sweeps all four methods over :data:`ROBUSTNESS_MATRIX`.
"""

from __future__ import annotations

import dataclasses

from repro.config import NetworkConfig, TrafficConfig, lte_ran_config, \
    nr_ran_config
from repro.scenarios.events import (
    BackgroundLoadStep,
    LatencySurge,
    LinkDegradation,
    SliceArrival,
)
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec, SliceTemplate, population
from repro.scenarios.traffic_models import (
    DiurnalTraffic,
    FlashCrowdTraffic,
    MixDriftTraffic,
    OnOffTraffic,
    ScaledTraffic,
)


def _fixed_mcs_network(ran_factory) -> NetworkConfig:
    return NetworkConfig(
        ran=dataclasses.replace(ran_factory(), fixed_mcs=9))


register(ScenarioSpec(
    name="default",
    description="paper Sec. 7.1: MAR/HVS/RDC on LTE, diurnal day"))

register(ScenarioSpec(
    name="lte_fixed_mcs",
    description="4G LTE with MCS pinned to 9 (Table 4 protocol)",
    network=_fixed_mcs_network(lte_ran_config)))

register(ScenarioSpec(
    name="nr_fixed_mcs",
    description="5G NSA (40 MHz / 106 PRB) with MCS pinned to 9",
    network=_fixed_mcs_network(nr_ran_config)))

register(ScenarioSpec(
    name="short_horizon",
    description="12-slot episode with the paper's shape (fast tests)",
    traffic_cfg=TrafficConfig(slots_per_episode=12)))

register(ScenarioSpec(
    name="flash_crowd",
    description="3x crowd spike on the MAR slice mid-morning",
    traffic=FlashCrowdTraffic(at_fraction=0.42, duration_fraction=0.12,
                              magnitude=3.0, slice_indices=(0,))))

register(ScenarioSpec(
    name="bursty",
    description="MMPP-style on/off sources instead of the diurnal day",
    traffic=OnOffTraffic(on_level=1.0, off_level=0.1,
                         mean_on_slots=8.0, mean_off_slots=12.0)))

register(ScenarioSpec(
    name="drift",
    description="traffic mix drifts across the day (MAR/RDC up, "
                "HVS down)",
    traffic=MixDriftTraffic(drift=0.8)))

register(ScenarioSpec(
    name="link_degradation",
    description="transport link drops to 35% capacity for 30% of the "
                "episode",
    events=(LinkDegradation(at_fraction=0.4, duration_fraction=0.3,
                            capacity_scale=0.35),)))

register(ScenarioSpec(
    name="latency_surge",
    description="+25 ms transport forwarding latency mid-episode",
    events=(LatencySurge(at_fraction=0.5, duration_fraction=0.25,
                         extra_latency_ms=25.0),)))

register(ScenarioSpec(
    name="transport_brownout",
    description="+60 ms transport forwarding latency for half the "
                "episode -- sustained degradation for burn-rate "
                "alerting (cf. latency_surge's short blip)",
    events=(LatencySurge(at_fraction=0.25, duration_fraction=0.5,
                         extra_latency_ms=60.0),)))

register(ScenarioSpec(
    name="slice_churn",
    description="a background MAR slice attaches mid-episode, "
                "contends, then departs",
    events=(SliceArrival(at_fraction=0.3, duration_fraction=0.4,
                         app="mar", slice_name="MAR-churn",
                         arrival_scale=0.6, action_level=0.25),
            BackgroundLoadStep(at_fraction=0.3, duration_fraction=0.4,
                               load_fraction=0.2))))

register(ScenarioSpec(
    name="six_slices",
    description="6-slice population (2x MAR/HVS/RDC at derated load)",
    slices=population(6)))

# Graduated fuzz repro: world 4 of fuzz seed 11, shrunk under
# Model_Based by repro.experiments.fuzz.shrink_violation (8 predicate
# evaluations: 2 slices -> 1, 2 events -> 0, 22 slots -> 6).  A single
# over-provisioned MAR slice on a scaled diurnal day is enough to push
# Model_Based past its SLA -- the minimal witness that the analytic
# model under-allocates under arrival-rate derating.  Reproduce with
# ``python -m repro fuzz shrink --seed 11 --world 4 --method
# model_based``.
register(ScenarioSpec(
    name="fuzz_repro",
    description="shrunk fuzz witness: one derated MAR slice violates "
                "Model_Based (seed 11, world 4)",
    slices=(SliceTemplate(app="mar", arrival_scale=0.7795),),
    traffic=ScaledTraffic(base=DiurnalTraffic(), scale=0.6882),
    traffic_cfg=TrafficConfig(slots_per_episode=6),
    seed=1191539496))


#: The scenario sweep of the ``robustness`` artefact: the paper's
#: baseline world plus every stress regime.
ROBUSTNESS_MATRIX = ("default", "flash_crowd", "bursty", "drift",
                     "link_degradation", "latency_surge",
                     "slice_churn", "six_slices")
