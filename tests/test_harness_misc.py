"""Tests: harness plumbing that needs no training (cheap paths)."""

import ast
import importlib
import os

import numpy as np
import pytest

from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.harness import build_onslicing, fit_baselines


class TestFitBaselinesCache:
    def test_cache_returns_same_objects(self):
        cfg = ExperimentConfig(
            traffic=TrafficConfig(slots_per_episode=8))
        first = fit_baselines(cfg)
        second = fit_baselines(cfg)
        for name in first:
            assert first[name] is second[name]

    def test_cache_bypass(self):
        cfg = ExperimentConfig(
            traffic=TrafficConfig(slots_per_episode=8))
        cached = fit_baselines(cfg)
        fresh = fit_baselines(cfg, use_cache=False)
        for name in cached:
            assert cached[name] is not fresh[name]
            for a, b in zip(cached[name].actions, fresh[name].actions):
                np.testing.assert_array_equal(a, b)


def test_build_onslicing_rejects_unknown_variant():
    with pytest.raises(ValueError):
        build_onslicing(variant="warp-speed")


@pytest.mark.parametrize("variant,expect", [
    ("nb", lambda cfg: not cfg.agent.switching.enabled),
    ("ne", lambda cfg: not cfg.agent.switching.use_estimator),
    ("est_noise",
     lambda cfg: cfg.agent.switching.estimator_noise_std == 1.0),
    ("projection", lambda cfg: cfg.agent.modifier.use_projection),
    ("md_noise",
     lambda cfg: cfg.agent.modifier.modifier_noise_std == 1.0),
])
def test_variant_config_wiring(variant, expect):
    """Each ablation label flips exactly its switch in the config."""
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=6))
    bundle = build_onslicing(cfg, variant=variant,
                             offline_episodes=1,
                             exploration_episodes=1)
    assert expect(bundle.cfg)


E2E_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "e2e")


def test_frozen_e2e_harness_imports_still_resolve():
    """``benchmarks/e2e/`` is what performance claims are judged by
    and may not be edited to follow a rename, so every ``from repro...
    import name`` in it must keep resolving."""
    wanted = set()
    for entry in sorted(os.listdir(E2E_DIR)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(E2E_DIR, entry), "r",
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=entry)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                wanted.update((node.module, alias.name)
                              for alias in node.names)
    assert ("repro.serve", "Telemetry") in wanted
    assert ("repro.fleet", "evaluate_checkpoint_slo") in wanted

    def resolves(module, name):
        if hasattr(importlib.import_module(module), name):
            return True
        try:        # ``from repro import scenarios``: a submodule
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            return False
        return True

    missing = [f"{module}.{name}" for module, name in sorted(wanted)
               if not resolves(module, name)]
    assert not missing, missing


def test_frozen_e2e_harness_calls_still_bind():
    """Same contract one level down: every keyword (and positional
    count) the frozen harness passes to the APIs it drives must still
    bind to the live signature, so deleting a parameter it uses fails
    here and not in the benchmark."""
    import inspect

    from repro import fleet, serve
    from repro.engine.batch import BatchSimulator
    from repro.experiments import harness

    live = {"BatchSimulator": BatchSimulator,
            "run_episodes": harness.run_episodes,
            "LoadGenerator": serve.LoadGenerator,
            "SlicingService": serve.SlicingService,
            "plan_shards": fleet.plan_shards,
            "run_fleet": fleet.run_fleet}
    seen = dict.fromkeys(live, 0)
    unbound = []
    for entry in sorted(os.listdir(E2E_DIR)):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(E2E_DIR, entry), "r",
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=entry)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None))
            if name not in live:
                continue
            seen[name] += 1
            positional = [arg for arg in node.args
                          if not isinstance(arg, ast.Starred)]
            keywords = {kw.arg: None for kw in node.keywords
                        if kw.arg is not None}
            try:
                inspect.signature(live[name]).bind_partial(
                    *positional, **keywords)
            except TypeError as exc:
                unbound.append(f"{entry}:{node.lineno} {name}: {exc}")
    assert all(seen.values()), seen
    assert not unbound, unbound


def test_frozen_e2e_harness_attributes_still_exist():
    """One more level down: every attribute the frozen harness reads
    on the objects the stepping and serving stack hands it -- a batch
    step result, the batch, a simulator and its per-slice step result,
    a load generator, a shard plan -- still exists on a live one."""
    from repro import fleet, scenarios
    from repro.engine.batch import BatchSimulator
    from repro.serve import LoadGenerator, snapshot_baseline

    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=6))
    simulator = scenarios.get("short_horizon").build_simulator(cfg)
    batch = BatchSimulator([simulator], engine="vector")
    states = batch.reset()
    step = batch.step([np.full((len(states), 10), 0.3)])
    result = next(iter(simulator.step(
        {n: np.full(10, 0.3) for n in simulator.slice_names}).values()))
    snapshot = snapshot_baseline("attrs", cfg, fit_baselines(cfg),
                                 seed=1)
    generator = LoadGenerator(snapshot, "short_horizon")
    generator.begin_run()
    spec = fleet.FleetSpec(name="attrs", cells=1,
                           scenarios=("short_horizon",))
    plan, = fleet.plan_shards(spec, 1, ".", snapshot.ref,
                              snapshot.digest, engine="vector")
    #: (harness file, driver function) -> variable name -> a live
    #: object of what that driver binds the name to.
    live = {
        ("wl_engine.py", "traced"): {"step": step, "batch": batch},
        ("wl_fleet.py", "_drive_shard"): {
            "step": step, "batch": batch, "plan": plan,
            "generator": generator, "g": generator,
            "generators[]": generator},
        ("wl_train.py", "traced"): {"simulator": simulator},
        ("wl_train.py", "_drive_episode"): {
            "simulator": simulator, "result": result},
        ("wl_serve.py", "_record"): {
            "simulator": simulator, "result": result}}
    seen = set()
    missing = []
    for (entry, driver), names in live.items():
        with open(os.path.join(E2E_DIR, entry), "r",
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=entry)
        function, = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == driver]
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Subscript):
                target = names.get(
                    getattr(owner.value, "id", "") + "[]")
            else:
                target = names.get(getattr(owner, "id", None))
            if target is None:
                continue
            seen.add((type(target).__name__, node.attr))
            if not hasattr(target, node.attr):
                missing.append(f"{entry}:{node.lineno} "
                               f"{type(target).__name__}.{node.attr}")
    assert not missing, missing
    assert seen >= {
        ("BatchStepResult", "rows_of"), ("BatchStepResult", "names"),
        ("BatchStepResult", "latencies"), ("BatchStepResult", "dones"),
        ("BatchSimulator", "reset_world"),
        ("BatchSimulator", "slice_names"),
        ("ScenarioSimulator", "horizon"), ("ScenarioSimulator", "done"),
        ("SliceStepResult", "observation"),
        ("LoadGenerator", "simulator"),
        ("LoadGenerator", "want_more_episodes"),
        ("LoadGenerator", "serve_slot"), ("ShardPlan", "engine")}, seen


def test_frozen_e2e_harness_selftest_passes():
    """All five workloads in tiny mode with traced drivers and digest
    checks (~7 s): a PR that breaks the benchmark fails here, not in
    the benchmark run that judges it."""
    import subprocess
    import sys

    done = subprocess.run(
        [sys.executable, os.path.join(E2E_DIR, "run.py"), "--selftest"],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "selftest ok" in done.stdout


def test_call_binding_check_catches_a_deleted_parameter():
    """The check above has teeth: a keyword the live signature lost
    does not bind."""
    import inspect

    from repro.serve import LoadGenerator

    with pytest.raises(TypeError):
        inspect.signature(LoadGenerator).bind_partial(
            None, None, batching=True)


# ---- evaluate_static_policies == the loop it replaced -----------------


def _old_evaluate_static_policies(cfg, policies, episodes=3,
                                  method="Baseline", scenario=None):
    """``harness.evaluate_static_policies`` as it was before it became
    ``run_episodes`` on one world, kept verbatim as the oracle."""
    from repro.baselines.projection import project_actions
    from repro.experiments.harness import make_simulator
    from repro.experiments.metrics import (
        MethodResult,
        usage_percent,
        violation_percent,
    )

    simulator = make_simulator(cfg, scenario)
    per_slice_u = {n: [] for n in simulator.slice_names}
    per_slice_v = {n: [] for n in simulator.slice_names}
    for _ in range(episodes):
        observations = simulator.reset()
        totals = {n: {"cost": 0.0, "usage": 0.0}
                  for n in simulator.slice_names}
        while not simulator.done:
            proposals = {
                name: np.asarray(policies[name].act(observations[name]),
                                 dtype=float)
                for name in simulator.slice_names
            }
            actions = project_actions(proposals)
            results = simulator.step(actions)
            for name, result in results.items():
                totals[name]["cost"] += result.cost
                totals[name]["usage"] += result.usage
                observations[name] = result.observation
        horizon = simulator.horizon
        for spec in cfg.slices:
            mean_cost = totals[spec.name]["cost"] / horizon
            mean_usage = totals[spec.name]["usage"] / horizon
            per_slice_u[spec.name].append(mean_usage)
            per_slice_v[spec.name].append(
                float(mean_cost > spec.sla.cost_threshold))
    per_usage = {n: float(np.mean(v)) for n, v in per_slice_u.items()}
    per_viol = {n: float(np.mean(v)) for n, v in per_slice_v.items()}
    return MethodResult(
        method=method,
        avg_resource_usage=usage_percent(
            float(np.mean(list(per_usage.values())))),
        avg_sla_violation=violation_percent(
            float(np.mean(list(per_viol.values())))),
        per_slice_usage=per_usage,
        per_slice_violation=per_viol)


@pytest.mark.parametrize("scenario", ["default", "transport_brownout"])
@pytest.mark.parametrize("method", ["Baseline", "Model_Based"])
def test_evaluate_static_policies_matches_the_old_loop(scenario,
                                                       method):
    import dataclasses

    from repro import scenarios
    from repro.experiments import harness

    spec = scenarios.get(scenario)
    cfg = spec.build_config().replace(
        traffic=TrafficConfig(slots_per_episode=24))
    policies = (fit_baselines(cfg) if method == "Baseline"
                else harness.make_model_based_policies(cfg))
    new = harness.evaluate_static_policies(
        cfg, policies, episodes=2, method=method, scenario=spec)
    old = _old_evaluate_static_policies(
        cfg, policies, episodes=2, method=method, scenario=spec)
    assert dataclasses.asdict(new) == dataclasses.asdict(old)
    assert list(new.per_slice_usage) == list(old.per_slice_usage)
