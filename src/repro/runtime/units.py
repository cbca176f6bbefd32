"""Experiment units: the schedulable atoms of the evaluation.

One :class:`ExperimentUnit` is one ``(method, variant, scenario, seed)``
tuple plus its schedule parameters -- e.g. "train OnSlicing-NB on the
flash_crowd scenario with seed 42 for 6 epochs".  Units are plain
frozen dataclasses so they pickle across process boundaries (scenarios
travel *by name* and are resolved against the
:mod:`repro.scenarios` registry on the worker), and
:func:`execute_unit` is a top-level function so worker processes can
run them.  Every table/figure generator decomposes into units, submits
them to a :class:`~repro.runtime.runner.ParallelRunner`, and assembles
rows/series from the returned :class:`~repro.experiments.metrics`
objects.

Methods
-------
``onslicing``
    Offline stage + online phase (+ optional deterministic test); the
    ``variant`` field selects the paper's ablations (``full``, ``nb``,
    ``ne``, ``est_noise``, ``projection``, ``md_noise``).  Returns a
    :class:`MethodResult` whose ``trajectory`` is the online phase.
``onrl`` / ``baseline`` / ``model_based``
    The three comparison methods of Sec. 7.1.
``snapshot_eval``
    Evaluate a saved policy snapshot on the unit's scenario through
    the decision service -- no training.  ``params`` carry the store
    directory, the snapshot ref, and the snapshot's content digest
    (so the cache key changes when the snapshot does); ``variant``
    names the snapshotted method.
``figure``
    A whole single-run figure generator (``variant`` names it, e.g.
    ``fig12``); used for artefacts that cannot be decomposed further.
``fleet``
    A whole fleet campaign (:mod:`repro.fleet`) served from a
    digest-pinned snapshot; ``params`` carry the
    :class:`~repro.fleet.spec.FleetSpec`, the store directory, the
    snapshot ref and its content digest, and the result is the
    :class:`~repro.fleet.report.FleetReport`.  Shards run inline so
    the unit stays deterministic under the runner's own process pool.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import scenarios as scenario_registry
from repro.config import ExperimentConfig
from repro.runtime.cache import code_version, content_key

#: Figure generators runnable as whole-figure units.  The fan-out
#: figures (fig3/9/11/13) are *not* here: they decompose into method
#: units inside :mod:`repro.experiments.figures` instead.
FIGURE_UNITS = ("fig5", "fig6", "fig10", "fig12", "fig14", "fig15",
                "fig16", "fig17", "fig18", "fig19")

METHODS = ("onslicing", "onrl", "baseline", "model_based",
           "snapshot_eval", "figure", "fleet")

#: Methods whose execution actually consumes ``unit.seed`` (the static
#: baselines derive all randomness from the config's seed).  A seed
#: override only rewrites these, so it never forces a gratuitous
#: recompute of seed-independent units.
SEED_CONSUMING_METHODS = ("onslicing", "onrl", "snapshot_eval",
                          "fleet")

#: Methods that run without a (single) scenario: figures drive their
#: own protocol, fleet units carry a whole scenario *cycle* in their
#: FleetSpec.
SCENARIO_FREE_METHODS = ("figure", "fleet")


def schedule_epochs(scale: float, full_epochs: int) -> int:
    """Shrink a full training schedule by ``scale``, floored at the
    2 epochs every trajectory-shaped artefact needs.  The one schedule
    rule shared by tables, figures and the robustness matrix."""
    return max(int(round(full_epochs * scale)), 2)


@dataclass(frozen=True)
class ExperimentUnit:
    """One independently runnable (and cacheable) piece of work."""

    method: str
    variant: str = "full"
    scenario: str = "default"
    seed: int = 42
    #: Sorted ``(name, value)`` schedule parameters (epochs, episodes,
    #: ...).  A tuple so the unit stays hashable and picklable.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Explicit config override; when set it wins over ``scenario``.
    #: Excluded from equality/hash (configs are mutable dataclasses);
    #: cache identity comes from :func:`unit_cache_key`, which hashes
    #: the resolved config's full contents.
    cfg: Optional[ExperimentConfig] = field(default=None, compare=False)
    #: The resolved scenario spec, attached by :func:`make_unit` so the
    #: unit is self-contained across process boundaries: a worker under
    #: a spawn/forkserver start method only has the *built-in* registry,
    #: and a user-registered scenario would otherwise be unresolvable
    #: there.  Excluded from equality like ``cfg``; the cache key hashes
    #: its full contents.
    spec: Optional[Any] = field(default=None, compare=False)

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    def resolve_scenario(self):
        """The :class:`~repro.scenarios.spec.ScenarioSpec` this unit
        runs under (``None`` for figure units).

        Prefers the spec carried by the unit (attached at creation, so
        it travels to worker processes by pickle); falls back to the
        registry for hand-constructed units.  Resolved even when an
        explicit ``cfg`` overrides the spec's config: the scenario's
        traffic model and event timeline still drive the simulator
        (mirroring the harness semantics), so a custom config on a
        stress scenario keeps the stress.
        """
        if self.method in SCENARIO_FREE_METHODS:
            return None
        if self.spec is not None:
            return self.spec
        return scenario_registry.get(self.scenario)

    def resolve_config(self) -> ExperimentConfig:
        if self.cfg is not None:
            return self.cfg
        return self.resolve_scenario().build_config()


def make_unit(method: str, variant: str = "full",
              scenario: str = "default", seed: int = 42,
              cfg: Optional[ExperimentConfig] = None,
              **params: Any) -> ExperimentUnit:
    """Build a validated unit; ``params`` become the schedule tuple."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"expected one of {METHODS}")
    if method == "figure":
        # make_unit's own cfg/scenario/seed parameters would shadow
        # same-named figure kwargs and then be silently ignored by
        # execute_unit while still poisoning the cache key -- build
        # figure units with make_figure_unit, which forwards *every*
        # keyword to the figure function.
        raise ValueError("use make_figure_unit() for figure units")
    if method == "fleet":
        # fleet units need the FleetSpec + pinned snapshot params and
        # the resolved scenario cycle attached
        raise ValueError("use make_fleet_unit() for fleet units")
    if scenario not in scenario_registry.names():
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {scenario_registry.names()}")
    return ExperimentUnit(method=method, variant=variant,
                          scenario=scenario, seed=seed,
                          params=tuple(sorted(params.items())), cfg=cfg,
                          spec=scenario_registry.get(scenario))


def make_figure_unit(name: str, **params: Any) -> ExperimentUnit:
    """Build a whole-figure unit; every keyword (including ``seed``)
    reaches the figure function verbatim."""
    if name not in FIGURE_UNITS:
        raise ValueError(f"unknown figure unit {name!r}; "
                         f"expected one of {FIGURE_UNITS}")
    return ExperimentUnit(method="figure", variant=name,
                          params=tuple(sorted(params.items())))


def make_fleet_unit(spec: Any, store: str, snapshot: str,
                    digest: str) -> ExperimentUnit:
    """Build a unit that runs a whole fleet campaign.

    ``spec`` is a :class:`~repro.fleet.spec.FleetSpec`; the snapshot
    is pinned by store directory, ref *and* content digest (like
    ``snapshot_eval`` units), so the cache key changes whenever the
    served policy does.  The unit's seed mirrors the spec's so the
    runner's ``--seed`` override rewrites the campaign coherently.
    """
    from repro.fleet.spec import FleetSpec

    if not isinstance(spec, FleetSpec):
        raise TypeError(f"spec must be a FleetSpec, got {type(spec)}")
    unknown = [name for name in spec.scenario_cycle()
               if name not in scenario_registry.names()]
    if unknown:
        raise ValueError(f"fleet spec {spec.name!r} names unknown "
                         f"scenario(s): {', '.join(unknown)}")
    # The resolved cycle travels with the unit (like `spec` on method
    # units): a spawn/forkserver worker only has the built-in
    # registry, and a user-registered scenario would otherwise be
    # unresolvable there.  It also puts the resolved workloads into
    # the cache key via `params`.
    resolved = tuple(scenario_registry.get(name)
                     for name in spec.scenario_cycle())
    params = {"spec": spec, "store": store, "snapshot": snapshot,
              "digest": digest, "scenario_specs": resolved}
    return ExperimentUnit(method="fleet", variant=spec.name,
                          seed=spec.seed,
                          params=tuple(sorted(params.items())))


def unit_cache_key(unit: ExperimentUnit) -> str:
    """Content key: config + scenario spec + variant + seed + params +
    code version.

    The *resolved* scenario spec (traffic model, event timeline, slice
    population) is hashed alongside the config: two scenarios with the
    same infrastructure config but different workloads never share a
    key, and editing a registered spec invalidates its cached results.
    Fleet units hash every resolved spec of their scenario *cycle* for
    the same reason.
    """
    cfg = (None if unit.method in SCENARIO_FREE_METHODS
           else unit.resolve_config())
    spec: Any = unit.resolve_scenario()
    if unit.method == "fleet":
        # prefer the resolved cycle carried in params (hand-built
        # units without one fall back to the registry)
        params = unit.kwargs()
        spec = params.get("scenario_specs") or tuple(
            scenario_registry.get(name)
            for name in params["spec"].scenario_cycle())
    payload = {
        "config": dataclasses.asdict(cfg) if cfg is not None else None,
        "scenario_spec": spec,  # tagged-JSON encoded by content_key
        "method": unit.method,
        "variant": unit.variant,
        "scenario": unit.scenario,
        "seed": unit.seed,
        "params": [list(pair) for pair in unit.params],
        "code_version": code_version(),
    }
    return content_key(payload)


def execute_unit(unit: ExperimentUnit) -> Any:
    """Run one unit to completion (in this process) and return its
    result -- a :class:`MethodResult` for method units, the figure's
    series dict for figure units.  Deterministic given the unit, so
    parallel and in-process execution agree bit-for-bit.
    """
    # Imported lazily: workers only pay for what the unit needs, and
    # the figures module itself imports the runner (cycle otherwise).
    from repro.experiments import harness
    from repro.experiments.metrics import (
        MethodResult,
        online_phase_summary,
    )

    p = unit.kwargs()
    if unit.method == "figure":
        from repro.experiments import figures
        return getattr(figures, unit.variant)(**p)
    if unit.method == "fleet":
        from repro.fleet import run_fleet
        from repro.serve import PolicyStore

        fleet_spec = p["spec"]
        if unit.seed != fleet_spec.seed:
            # the runner's --seed override reaches the whole campaign
            fleet_spec = dataclasses.replace(fleet_spec, seed=unit.seed)
        snapshot = PolicyStore(p["store"]).load(p["snapshot"])
        if snapshot.digest != p["digest"]:
            raise ValueError(
                f"snapshot {p['snapshot']!r} changed since this fleet "
                f"unit was planned (digest {snapshot.digest[:12]} != "
                f"{p['digest'][:12]}); rebuild the units")
        carried = p.get("scenario_specs")
        scenarios = (dict(zip(fleet_spec.scenario_cycle(), carried))
                     if carried else None)
        # Shards stay inline (1): the unit itself is the parallelism
        # grain -- the runner may already be fanning units over
        # processes, and inline execution keeps results cache-exact.
        # The shard batch width (``engine``, vector by default) is
        # deliberately NOT part of the unit params/cache key: a cell
        # steps bit-identically alone and inside a batch
        # (tests/test_engine.py pins it), so reports are identical.
        return run_fleet(fleet_spec, p["store"],
                         snapshot_ref=p["snapshot"], shards=1,
                         scenarios=scenarios, snapshot=snapshot)
    cfg = unit.resolve_config()
    spec = unit.resolve_scenario()
    if unit.method == "onslicing":
        bundle = harness.build_onslicing(
            cfg, variant=unit.variant,
            offline_episodes=p.get("offline_episodes", 4),
            exploration_episodes=p.get("exploration_episodes", 6),
            seed=unit.seed, scenario=spec)
        trajectory = harness.run_online_phase(
            bundle, epochs=p.get("epochs", 12),
            episodes_per_epoch=p.get("episodes_per_epoch", 3),
            estimator_refresh_every=p.get("estimator_refresh_every", 4))
        test_episodes = p.get("test_episodes", 3)
        if test_episodes:
            result = harness.test_performance(bundle,
                                              episodes=test_episodes)
        else:
            # Online-phase-only protocols (Tables 2-4): summarise the
            # trajectory instead of running extra test episodes.
            summary = online_phase_summary(trajectory)
            result = MethodResult(
                method="OnSlicing",
                avg_resource_usage=summary["avg_res_usage_pct"],
                avg_sla_violation=summary["avg_sla_violation_pct"],
                mean_interactions=summary["mean_interactions"])
        return dataclasses.replace(result, trajectory=trajectory)
    if unit.method == "onrl":
        return harness.run_onrl_phase(
            cfg, epochs=p.get("epochs", 12),
            episodes_per_epoch=p.get("episodes_per_epoch", 3),
            seed=unit.seed, scenario=spec)
    if unit.method == "snapshot_eval":
        from repro.serve import PolicyStore, evaluate_snapshot

        snapshot = PolicyStore(p["store"]).load(p["snapshot"])
        if snapshot.digest != p["digest"]:
            raise ValueError(
                f"snapshot {p['snapshot']!r} changed since this unit "
                f"was planned (digest {snapshot.digest[:12]} != "
                f"{p['digest'][:12]}); rebuild the units")
        return evaluate_snapshot(snapshot, scenario=spec,
                                 episodes=p.get("episodes", 1),
                                 seed=unit.seed)
    if unit.method == "baseline":
        return harness.evaluate_static_policies(
            cfg, harness.fit_baselines(cfg),
            episodes=p.get("episodes", 3), method="Baseline",
            scenario=spec)
    if unit.method == "model_based":
        return harness.evaluate_static_policies(
            cfg, harness.make_model_based_policies(cfg),
            episodes=p.get("episodes", 3), method="Model_Based",
            scenario=spec)
    raise ValueError(f"unknown method {unit.method!r}")
