"""The ``robustness`` artefact: every method across the scenario matrix.

The paper evaluates on one world; this generator sweeps all four
methods (OnSlicing, OnRL, Baseline, Model_Based) over the registered
stress scenarios -- flash crowds, bursty sources, mix drift, transport
faults, slice churn, and the 6-slice population -- through the shared
:class:`~repro.runtime.runner.ParallelRunner`, so the full matrix fans
out over worker processes and is served from the result cache on
re-runs.  It answers the question the fixed reproduction cannot: does
safe *online* learning keep its near-zero-violation edge once the
world stops matching the offline stage?

Rows are keyed ``"<scenario>/<method>"`` and carry the per-method
usage/violation metrics plus the scenario name, so downstream tooling
can pivot either way.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.metrics import METHOD_LABELS
from repro.runtime.runner import ParallelRunner
from repro.runtime.units import make_unit, schedule_epochs as _schedule

#: The learners' online epochs at ``scale`` 1.
FULL_EPOCHS = 40


def robustness(scale: float = 0.25,
               runner: Optional[ParallelRunner] = None,
               scenarios: Optional[Sequence[str]] = None,
               methods: Optional[Sequence[str]] = None,
               seed: int = 42,
               scenario: Optional[str] = None,
               snapshot_store: Optional[str] = None) -> Dict[str, dict]:
    """Sweep ``methods`` x ``scenarios`` and tabulate usage/violation.

    ``scale`` shrinks every training schedule like the table
    generators (offline/online episode counts scale together, so
    ``--scale 0.05`` smoke-runs the whole matrix in CI).  ``scenario``
    restricts the sweep to one named scenario (the CLI's
    ``--scenario`` flag); ``scenarios``/``methods`` select arbitrary
    subsets.  Expected shape on the stress rows: OnSlicing keeps the
    lowest violation among the learners, the static baselines pay
    their fixed over-provisioning, and OnRL's violations grow with
    non-stationarity.

    ``snapshot_store`` switches the learners to the train-once path:
    each learning method trains a *single* policy on the paper world
    (snapshotted into the given :class:`~repro.serve.policy_store
    .PolicyStore` directory, reused if already there) and every
    scenario row evaluates that snapshot through the decision service
    -- N scenarios cost one training run instead of N.  This measures
    *transfer* of one trained policy, whereas the default re-trains
    per scenario and measures online adaptation.
    """
    from repro.scenarios import ROBUSTNESS_MATRIX, get as get_scenario

    if scenario is not None:
        scenarios = (scenario,)
    names = tuple(scenarios) if scenarios is not None \
        else ROBUSTNESS_MATRIX
    for name in names:
        get_scenario(name)  # fail fast on unknown scenarios
    chosen = tuple(methods) if methods is not None \
        else tuple(METHOD_LABELS)
    unknown = [m for m in chosen if m not in METHOD_LABELS]
    if unknown:
        raise ValueError(f"unknown method(s) {unknown}; "
                         f"expected a subset of {tuple(METHOD_LABELS)}")

    runner = runner or ParallelRunner()
    epochs = _schedule(scale, FULL_EPOCHS)
    offline = max(int(round(4 * scale)), 1)
    exploration = max(int(round(6 * scale)), 1)
    episodes = max(int(round(3 * scale)), 1)

    snapshots = {}
    if snapshot_store is not None:
        snapshots = _ensure_snapshots(
            snapshot_store, [m for m in chosen
                             if m in ("onslicing", "onrl")],
            scale=scale, seed=seed)

    units = []
    labels = []
    for name in names:
        for method in chosen:
            if method in snapshots:
                snapshot = snapshots[method]
                unit = make_unit(
                    "snapshot_eval", variant=method, scenario=name,
                    seed=seed, store=snapshot_store,
                    snapshot=snapshot.ref, digest=snapshot.digest,
                    episodes=episodes)
            elif method == "onslicing":
                unit = make_unit(
                    "onslicing", scenario=name, seed=seed,
                    epochs=epochs, episodes_per_epoch=2,
                    offline_episodes=offline,
                    exploration_episodes=exploration,
                    test_episodes=0)
            elif method == "onrl":
                unit = make_unit(
                    "onrl", scenario=name, seed=seed, epochs=epochs,
                    episodes_per_epoch=2)
            else:
                # static methods never consume the unit seed; leaving
                # it at the default keeps their cache keys stable
                # across seed sweeps
                unit = make_unit(method, scenario=name,
                                 episodes=episodes)
            units.append(unit)
            labels.append((name, METHOD_LABELS[method]))

    results = runner.run(units)
    rows: Dict[str, dict] = {}
    for (name, label), result in zip(labels, results):
        rows[f"{name}/{label}"] = {
            **result.row(),
            "method": f"{name}/{label}",
            "scenario": name,
        }
    return rows


def _ensure_snapshots(store_dir: str, learners: Sequence[str],
                      scale: float, seed: int) -> Dict[str, object]:
    """Train-once: one snapshot per learning method on the paper
    world, reused across calls (keyed by method/scale/seed)."""
    from repro.serve import PolicyStore, train_snapshot

    store = PolicyStore(store_dir)
    snapshots = {}
    for method in learners:
        name = f"robustness-{method}-s{scale:g}-seed{seed}".replace(
            ".", "p")
        try:
            snapshots[method] = store.load(name)
        except KeyError:
            # the matrix's epoch rule, not train_snapshot's default
            snapshots[method] = train_snapshot(
                method, scale=scale, seed=seed, name=name, store=store,
                full_epochs=FULL_EPOCHS)
    return snapshots
