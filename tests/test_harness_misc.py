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
