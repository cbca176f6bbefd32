"""Fuzz oracle, delta-debugging shrinker, and the ``fuzz_sweep`` artefact.

:mod:`repro.scenarios.fuzz` generates random worlds; this module
decides what they *mean*:

* :func:`run_fuzz_batch` drives generated specs through the batched
  engine under one method policy with per-slot invariant checks
  (finite kernels, non-negative costs/usages, post-projection capacity
  conservation, cumulative-cost consistency) plus the determinism
  contract's parity check (alone == inside the batch), and evaluates
  every world's SLA verdict;
* :func:`run_fuzz` fans a whole corpus over the four comparison
  methods, cached through the shared runtime result cache like any
  other experiment;
* :func:`shrink_spec` minimises a failing world -- shorter horizon,
  fewer slices, fewer events, simpler traffic -- while a predicate
  certifies the failure is preserved, so every fuzz finding ends as a
  tiny committed repro (see ``fuzz_repro`` in the catalog);
* :func:`fuzz_sweep` is the artefact: cost-vs-SLA Pareto frontiers and
  per-scenario-family method heatmaps over the fuzzed space
  (``python -m repro run fuzz_sweep`` / ``python -m repro fuzz sweep``).

Methods reuse the exact comparison implementations: the rule-based
Baseline and Model_Based run their vectorised batch policies, while
OnSlicing/OnRL evaluate train-once snapshots (shared with the
``robustness`` artefact's snapshot path) through deterministic
mean-action inference.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ExperimentConfig, TrafficConfig
from repro.engine.batch import BatchSimulator
from repro.engine.policies import (
    ModelBasedBatchPolicy,
    RoutedBatchPolicy,
    RuleBasedBatchPolicy,
    episode_totals,
    lockstep,
)
from repro.experiments.harness import (
    fit_baselines,
    make_model_based_policies,
    run_episodes,
)
from repro.experiments.metrics import METHOD_LABELS
from repro.experiments.robustness import _ensure_snapshots
from repro.scenarios.fuzz import (
    FuzzSpace,
    corpus_digest,
    generate_corpus,
    scenario_family,
    spec_digest,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim.network import CONSTRAINED_RESOURCES

#: Constrained action columns (world capacity is 1.0 per kind).
_KIND_COLUMNS = np.fromiter(CONSTRAINED_RESOURCES.values(),
                            dtype=np.intp)

#: Tolerance of the conservation / cumulative-cost cross-checks; both
#: compare quantities the engine computes through identical float ops,
#: so the slack only absorbs accumulation order.
_CHECK_ATOL = 1e-9

#: Methods whose fuzz policy needs no training (safe for CI smoke).
STATIC_METHODS = ("baseline", "model_based")


class SnapshotBatchPolicy(RoutedBatchPolicy):
    """Deterministic batch inference over a trained policy snapshot.

    Rebuilds each snapshot policy's actor-critic and serves its mean
    actions -- the same deterministic-test protocol as the Table 1
    evaluation -- through the router the static methods use, so
    ``MAR7`` of a fuzzed population lands on the snapshot's MAR
    policy.
    """

    def __init__(self, snapshot) -> None:
        from repro.serve.service import _LearnedPolicy

        if not snapshot.policies:
            raise ValueError(f"snapshot {snapshot.ref} has no policies")
        super().__init__({name: _LearnedPolicy(snapshot, name)
                          for name in snapshot.policies})


#: method -> ``(cfg, snapshot) -> batch policy``: the static methods
#: derive from the paper world's ``cfg`` (their app-level tables /
#: programs transfer to any fuzzed population via the router's prefix
#: rule), the learners from a trained snapshot.
BATCH_POLICY_FACTORIES = {
    "onslicing": lambda cfg, snapshot: SnapshotBatchPolicy(snapshot),
    "onrl": lambda cfg, snapshot: SnapshotBatchPolicy(snapshot),
    "baseline": lambda cfg, snapshot: RuleBasedBatchPolicy(
        fit_baselines(cfg)),
    "model_based": lambda cfg, snapshot: ModelBasedBatchPolicy(
        make_model_based_policies(cfg)),
}


def build_method_policies(methods: Optional[Sequence[str]] = None,
                          scale: float = 0.05,
                          snapshot_store: Optional[str] = None
                          ) -> Dict[str, Tuple[object, str]]:
    """``label -> (batch policy, cache signature)`` per method.

    The learners evaluate train-once snapshots from ``snapshot_store``
    (trained at ``scale`` if absent -- the same store entries the
    ``robustness`` snapshot path uses).  The signature feeds the
    result-cache key: static policies are pinned by the config they
    were fitted on, snapshots by their digest.
    """
    chosen = tuple(methods) if methods is not None \
        else tuple(METHOD_LABELS)
    unknown = [m for m in chosen if m not in METHOD_LABELS]
    if unknown:
        raise ValueError(f"unknown method(s) {unknown}; "
                         f"expected a subset of {tuple(METHOD_LABELS)}")
    learners = [m for m in chosen if m not in STATIC_METHODS]
    if learners and snapshot_store is None:
        raise ValueError(
            f"method(s) {learners} need a snapshot_store directory "
            "(their fuzz policies evaluate trained snapshots)")
    cfg = ExperimentConfig()
    snapshots = _ensure_snapshots(snapshot_store, learners,
                                  scale=scale, seed=42) \
        if learners else {}
    policies: Dict[str, Tuple[object, str]] = {}
    for method in chosen:
        snapshot = snapshots.get(method)
        policies[METHOD_LABELS[method]] = (
            BATCH_POLICY_FACTORIES[method](cfg, snapshot),
            f"static:{method}" if snapshot is None
            else f"snapshot:{snapshot.digest}")
    return policies


# ---- the instrumented oracle loop -------------------------------------


def _build_world(spec: ScenarioSpec):
    cfg = spec.build_config()
    sim = spec.build_simulator(cfg,
                               rng=np.random.default_rng(cfg.seed))
    return cfg, sim


def _breach(breaches: List[Dict[str, object]], world: int,
            scenario: str, kind: str, detail: str) -> None:
    breaches.append({"world": world, "scenario": scenario,
                     "kind": kind, "detail": detail})


def run_fuzz_batch(specs: Sequence[ScenarioSpec], policy,
                   check_parity: bool = True
                   ) -> List[Dict[str, object]]:
    """One instrumented episode of every spec under one batch policy.

    Every world runs in lockstep through the batched engine with the
    paper's projection, while the oracle checks the engine invariants
    the parity suite relies on:

    * every observation/cost/usage the kernels emit is finite;
    * costs and usages are non-negative;
    * post-projection per-world constrained-resource totals never
      exceed capacity (conservation);
    * the simulator's cumulative episode cost equals the summed
      per-slot costs (write-back consistency);
    * with ``check_parity``, a fresh copy of each world stepped alone
      produces the episode totals it produced inside the batch (the
      determinism contract of :mod:`repro.engine.batch`).

    Returns one dict per world: scenario name, family, violated
    slices, per-slice mean cost/usage, and any invariant breaches.
    """
    if not specs:
        raise ValueError("need at least one spec")
    built = [_build_world(spec) for spec in specs]
    cfgs = [cfg for cfg, _ in built]
    sims = [sim for _, sim in built]
    breaches: List[Dict[str, object]] = []

    slots = _checked(lockstep(BatchSimulator(sims), policy),
                     specs, sims, breaches)
    totals = [world[0] for world in episode_totals(slots, len(sims))]
    for b, sim in enumerate(sims):
        for name in sim.slice_names:
            drift = abs(sim.cumulative_cost(name)
                        - totals[b][name]["cost"])
            if drift > _CHECK_ATOL:
                _breach(breaches, b, specs[b].name, "cum_cost",
                        f"slice {name!r}: simulator cumulative "
                        f"cost drifts from summed costs by "
                        f"{drift:g}")

    if check_parity:
        fresh = [_build_world(spec)[1] for spec in specs]
        alone = [world[0] for world in
                 run_episodes(fresh, policy, episodes=1,
                              engine="scalar")]
        for b, spec in enumerate(specs):
            if totals[b] != alone[b]:
                _breach(breaches, b, spec.name, "parity",
                        "episode totals stepped alone and inside "
                        "the batch diverge")

    results: List[Dict[str, object]] = []
    for b, (spec, cfg, sim) in enumerate(zip(specs, cfgs, sims)):
        horizon = sim.horizon
        slas = {s.name: s.sla for s in cfg.slices}
        mean_cost = {name: t["cost"] / horizon
                     for name, t in totals[b].items()}
        mean_usage = {name: t["usage"] / horizon
                      for name, t in totals[b].items()}
        results.append({
            "world": b,
            "scenario": spec.name,
            "family": scenario_family(spec),
            "slices": len(cfg.slices),
            "horizon": horizon,
            "violations": sorted(
                name for name, cost in mean_cost.items()
                if slas[name].violated(cost)),
            "mean_cost": mean_cost,
            "mean_usage": mean_usage,
            "breaches": [row for row in breaches
                         if row["world"] == b],
        })
    return results


def _checked(slots, specs: Sequence[ScenarioSpec], sims: List,
             breaches: List[Dict[str, object]]):
    """Pass :func:`~repro.engine.policies.lockstep` slots through,
    recording a breach for every per-slot engine invariant a world
    breaks (finite, non-negative, within capacity)."""
    for states, matrix, step in slots:
        for i, b in enumerate(step.worlds):
            rows = slice(step.offsets[i], step.offsets[i + 1])
            slot = sims[b].slot     # already advanced by the step
            if slot == 1 and not np.all(np.isfinite(states[rows])):
                _breach(breaches, b, specs[b].name, "nonfinite",
                        "initial observation contains non-finite "
                        "values")
            over = matrix[rows, _KIND_COLUMNS].sum(axis=0) - 1.0
            if np.any(over > _CHECK_ATOL):
                _breach(breaches, b, specs[b].name, "conservation",
                        "post-projection constrained totals "
                        f"exceed capacity by {float(over.max()):g}")
            for arr, label in ((step.observations[rows],
                                "observation"),
                               (step.costs[rows], "cost"),
                               (step.usages[rows], "usage")):
                if not np.all(np.isfinite(arr)):
                    _breach(breaches, b, specs[b].name, "nonfinite",
                            f"non-finite {label} at slot {slot}")
            if np.any(step.costs[rows] < -_CHECK_ATOL) \
                    or np.any(step.usages[rows] < -_CHECK_ATOL):
                _breach(breaches, b, specs[b].name, "negative",
                        f"negative cost/usage at slot {slot}")
        yield states, matrix, step


def run_fuzz(seed: int = 11, count: int = 16,
             methods: Optional[Sequence[str]] = None,
             space: Optional[FuzzSpace] = None,
             batch: int = 8, check_parity: bool = True,
             scale: float = 0.05,
             snapshot_store: Optional[str] = None,
             use_cache: bool = True) -> Dict[str, object]:
    """Generate a corpus and run it across methods (cached).

    Per-method world results go through the shared runtime cache,
    keyed by the exact specs (tagged JSON), the method's policy
    signature, the parity setting, and the code version -- a re-run
    of an unchanged corpus is a cache fetch.

    Returns ``{"seed", "count", "corpus_digest",
    "methods": {label: {"worlds": [...], "summary": {...}}}}``.
    """
    from repro.runtime.cache import (
        MISSING,
        code_version,
        content_key,
        shared_cache,
    )
    from repro.runtime.serialization import to_jsonable

    if batch < 1:
        raise ValueError("batch must be >= 1")
    specs = generate_corpus(seed, count, space)
    policies = build_method_policies(methods, scale=scale,
                                     snapshot_store=snapshot_store)
    cache = shared_cache()
    result: Dict[str, object] = {
        "seed": seed, "count": count,
        "corpus_digest": corpus_digest(specs),
        "methods": {},
    }
    for label, (policy, signature) in policies.items():
        key = content_key({
            "kind": "fuzz_run",
            "specs": [to_jsonable(spec) for spec in specs],
            "method": label,
            "signature": signature,
            "parity": check_parity,
            "code_version": code_version(),
        })
        worlds = cache.fetch(key) if use_cache else MISSING
        if worlds is MISSING:
            worlds = []
            for start in range(0, len(specs), batch):
                worlds.extend(run_fuzz_batch(
                    specs[start:start + batch], policy,
                    check_parity=check_parity))
            for offset, row in enumerate(worlds):
                row["world"] = offset  # global corpus index
                for breach in row["breaches"]:
                    breach["world"] = offset
            if use_cache:
                cache.put(key, worlds)
        result["methods"][label] = {
            "worlds": worlds,
            "summary": summarize_worlds(worlds),
        }
    return result


def summarize_worlds(worlds: Sequence[Dict[str, object]]
                     ) -> Dict[str, object]:
    """Aggregate oracle rows into the sweep/CLI summary metrics."""
    pairs = sum(row["slices"] for row in worlds)
    violated = sum(len(row["violations"]) for row in worlds)
    usages = [np.mean(list(row["mean_usage"].values()))
              for row in worlds]
    return {
        "worlds": len(worlds),
        "violating_worlds": sum(bool(row["violations"])
                                for row in worlds),
        "violation_pct": round(100.0 * violated / pairs, 2)
        if pairs else 0.0,
        "usage_pct": round(100.0 * float(np.mean(usages)), 2)
        if usages else 0.0,
        "breaches": sum(len(row["breaches"]) for row in worlds),
    }


# ---- the delta-debugging shrinker -------------------------------------


def _shrink_candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Reduction candidates, biggest cut first.

    Every candidate is strictly smaller along one axis: horizon
    halved, population halved/truncated, one event dropped, composite
    traffic unwrapped (then removed), network override removed.
    """
    out: List[ScenarioSpec] = []
    traffic_cfg = spec.traffic_cfg if spec.traffic_cfg is not None \
        else TrafficConfig()
    slots = traffic_cfg.slots_per_episode
    half = max(slots // 2, 6)
    if half < slots:
        out.append(dataclasses.replace(
            spec, traffic_cfg=dataclasses.replace(
                traffic_cfg, slots_per_episode=half)))
    count = len(spec.slices)
    if count > 1:
        out.append(dataclasses.replace(
            spec, slices=spec.slices[:max(count // 2, 1)]))
        out.append(dataclasses.replace(spec,
                                       slices=spec.slices[:count - 1]))
    for index in range(len(spec.events)):
        out.append(dataclasses.replace(
            spec, events=spec.events[:index]
            + spec.events[index + 1:]))
    if spec.traffic is not None:
        base = getattr(spec.traffic, "base", None)
        if base is not None:
            out.append(dataclasses.replace(spec, traffic=base))
        out.append(dataclasses.replace(spec, traffic=None))
    if spec.network is not None:
        out.append(dataclasses.replace(spec, network=None))
    return out


def shrink_spec(spec: ScenarioSpec,
                predicate: Callable[[ScenarioSpec], bool],
                max_evals: int = 200
                ) -> Tuple[ScenarioSpec, int]:
    """Greedy delta debugging: minimise ``spec`` while ``predicate``
    holds.

    Starting from a failing spec, repeatedly tries the reduction
    candidates (biggest cut first) and restarts from the first one
    that still fails, until a fixpoint or the evaluation budget.
    A candidate whose spec / config validation raises ``ValueError``
    (the reduction went past what a world can be) counts as
    not-preserving; any other exception is a bug and propagates.
    Deterministic: same spec, predicate and budget always shrink to
    the same result.

    Returns ``(shrunk spec, predicate evaluations used)``.
    """
    if max_evals < 1:
        raise ValueError("max_evals must be >= 1")
    if not predicate(spec):
        raise ValueError(
            f"spec {spec.name!r} does not exhibit the failure; "
            "nothing to shrink")
    evals = 1
    current = spec
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _shrink_candidates(current):
            if evals >= max_evals:
                break
            evals += 1
            try:
                preserved = predicate(candidate)
            except ValueError:      # over-shrunk: not a valid world
                preserved = False
            if preserved:
                current = candidate
                improved = True
                break
    return current, evals


def violation_predicate(policy) -> Callable[[ScenarioSpec], bool]:
    """Failure witness: the world SLA-violates under ``policy``
    (parity off -- the shrink loop's hot path)."""
    def predicate(spec: ScenarioSpec) -> bool:
        rows = run_fuzz_batch([spec], policy, check_parity=False)
        return bool(rows[0]["violations"])

    return predicate


def shrink_violation(spec: ScenarioSpec, policy,
                     max_evals: int = 200
                     ) -> Tuple[ScenarioSpec, int]:
    """Shrink an SLA-violating world, preserving the violation."""
    return shrink_spec(spec, violation_predicate(policy),
                       max_evals=max_evals)


# ---- the sweep artefact -----------------------------------------------


def pareto_frontier(points: Sequence[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Non-dominated (usage, violation) pairs, ascending usage.

    A point survives iff no other point has <= usage *and* <=
    violation with at least one strict -- the cost-vs-SLA trade-off
    frontier of the paper's evaluation, over the fuzzed space.
    """
    frontier: List[Tuple[float, float]] = []
    best = float("inf")
    for usage, violation in sorted(points):
        if violation < best:
            frontier.append((usage, violation))
            best = violation
    return frontier


def fuzz_sweep(scale: float = 1.0, runner=None, seed: int = 11,
               count: Optional[int] = None,
               methods: Optional[Sequence[str]] = None,
               snapshot_store: Optional[str] = None,
               batch: int = 8,
               out_dir: Optional[str] = None
               ) -> Dict[str, Dict[str, object]]:
    """Sweep the fuzzed scenario space: Pareto data + family heatmap.

    One row per method (CLI-table shaped); with ``out_dir`` the full
    per-world Pareto point sets, per-method frontiers, and the
    family x method violation heatmap are written as JSON artefacts
    (``fuzz_pareto.json`` / ``fuzz_heatmap.json``).  ``scale`` sizes
    the corpus (and the learners' snapshot training schedule) exactly
    like the other artefacts' schedule knob.

    The learners evaluate train-once snapshots from
    ``snapshot_store`` (default: the CLI policy store); pass
    ``methods=("baseline", "model_based")`` for a training-free sweep.
    """
    if runner is not None and getattr(runner, "collect_only", False):
        return {}
    if count is None:
        count = max(int(round(32 * scale)), 6)
    if methods is None:
        methods = tuple(METHOD_LABELS)
    if snapshot_store is None and any(
            m not in STATIC_METHODS for m in methods):
        from repro.serve import DEFAULT_STORE_DIR

        snapshot_store = DEFAULT_STORE_DIR
    result = run_fuzz(seed=seed, count=count, methods=methods,
                      batch=batch, scale=scale,
                      snapshot_store=snapshot_store)
    specs = generate_corpus(seed, count)
    families = sorted({scenario_family(spec) for spec in specs})

    rows: Dict[str, Dict[str, object]] = {}
    pareto: Dict[str, object] = {}
    heatmap: Dict[str, Dict[str, float]] = {
        family: {} for family in families}
    for label, method_result in result["methods"].items():
        worlds = method_result["worlds"]
        points = [
            (float(np.mean(list(row["mean_usage"].values()))),
             len(row["violations"]) / row["slices"])
            for row in worlds
        ]
        frontier = pareto_frontier(points)
        pareto[label] = {
            "points": [{"world": row["world"],
                        "scenario": row["scenario"],
                        "family": row["family"],
                        "usage": point[0],
                        "violation": point[1]}
                       for row, point in zip(worlds, points)],
            "frontier": [{"usage": usage, "violation": violation}
                         for usage, violation in frontier],
        }
        for family in families:
            members = [point for row, point in zip(worlds, points)
                       if row["family"] == family]
            heatmap[family][label] = round(
                100.0 * float(np.mean([v for _, v in members])), 2) \
                if members else 0.0
        rows[label] = {
            "method": label,
            **method_result["summary"],
            "pareto_points": len(frontier),
        }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        meta = {"seed": seed, "count": count,
                "corpus_digest": result["corpus_digest"]}
        with open(os.path.join(out_dir, "fuzz_pareto.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({**meta, "methods": pareto}, fh, indent=2)
        with open(os.path.join(out_dir, "fuzz_heatmap.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({**meta, "families": heatmap}, fh, indent=2)
    return rows
