"""Train-once entry points that end in a policy snapshot.

``python -m repro train --save NAME`` lands here: train one method on
one scenario at a schedule scale, snapshot the decision surface into a
:class:`~repro.serve.policy_store.PolicyStore`, and from then on the
service, the load generator and the robustness sweep evaluate from the
snapshot -- no retraining per run.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.config import ExperimentConfig
from repro.runtime.units import schedule_epochs
from repro.serve.policy_store import (
    PolicySnapshot,
    PolicyStore,
    snapshot_baseline,
    snapshot_model_based,
    snapshot_onrl,
    snapshot_onslicing,
)

#: Where ``python -m repro train --save`` (and every serving consumer)
#: keeps snapshots unless told otherwise.
DEFAULT_STORE_DIR = ".repro_policies"

#: Paper-equivalent full schedules scaled by ``scale`` (the same
#: shrink rule the robustness artefact uses, whose learners train for
#: more epochs: it passes its own ``full_epochs``).
FULL_EPOCHS = 12
FULL_OFFLINE_EPISODES = 4
FULL_EXPLORATION_EPISODES = 6


def train_snapshot(method: str, scenario="default",
                   scale: float = 0.1, seed: int = 42,
                   name: Optional[str] = None,
                   store: Optional[PolicyStore] = None,
                   cfg: Optional[ExperimentConfig] = None,
                   full_epochs: int = FULL_EPOCHS
                   ) -> PolicySnapshot:
    """Train ``method`` on ``scenario`` and build a snapshot.

    ``scale`` shrinks the training schedule exactly like the artefact
    generators: the learners run ``full_epochs`` online epochs at
    ``scale`` 1.  The static methods (baseline / model_based) have no
    schedule and ignore both.  When ``store`` is given the snapshot is
    saved (version assigned) before being returned.
    """
    from repro.experiments import harness

    spec = harness.resolve_scenario(scenario)
    scenario_name = spec.name if spec is not None else "default"
    if cfg is None:
        cfg = (spec.build_config() if spec is not None
               else ExperimentConfig())
    name = name or f"{method}-{scenario_name}-seed{seed}"

    epochs = schedule_epochs(scale, full_epochs)
    if method == "onslicing":
        bundle = harness.build_onslicing(
            cfg,
            offline_episodes=max(
                int(round(FULL_OFFLINE_EPISODES * scale)), 1),
            exploration_episodes=max(
                int(round(FULL_EXPLORATION_EPISODES * scale)), 1),
            seed=seed, scenario=spec)
        harness.run_online_phase(bundle, epochs=epochs,
                                 episodes_per_epoch=2)
        snapshot = snapshot_onslicing(name, bundle,
                                      scenario=scenario_name,
                                      seed=seed)
    elif method == "onrl":
        trained = harness.train_onrl(cfg, epochs=epochs,
                                     episodes_per_epoch=2, seed=seed,
                                     scenario=spec)
        snapshot = snapshot_onrl(name, cfg, trained["agents"],
                                 scenario=scenario_name, seed=seed)
    elif method == "baseline":
        snapshot = snapshot_baseline(name, cfg,
                                     harness.fit_baselines(cfg),
                                     scenario=scenario_name, seed=seed)
    elif method == "model_based":
        snapshot = snapshot_model_based(name, cfg,
                                        scenario=scenario_name,
                                        seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}")

    if store is not None:
        snapshot = store.save(snapshot)
    return snapshot


def resolve_serving_snapshot(store_dir: str,
                             ref: Optional[str] = None
                             ) -> PolicySnapshot:
    """The snapshot a serving consumer (serve/loadgen/fleet) should
    use: an explicit ``ref`` wins, else the newest stored snapshot,
    else an empty store bootstraps a model-based snapshot (the only
    method needing zero training) so every serving entry point works
    from a fresh checkout.  The bootstrap note goes to stderr.
    """
    store = PolicyStore(store_dir)
    if ref is not None:
        return store.load(ref)
    latest = store.latest()
    if latest is not None:
        return store.load(latest.ref)
    print(f"note: policy store {store_dir!r} is empty; "
          "bootstrapping a model_based snapshot (train your own with "
          "'python -m repro train --save')", file=sys.stderr)
    return train_snapshot("model_based", scenario="default",
                          store=store)
