"""The decision core's stacked pi_theta / pi_phi passes against the
per-cell serving loop they replaced.

``tests/serve_oracle.py`` keeps that loop (``SlicingService._propose``:
per cell, one pi_theta forward and one pi_phi call per snapshot policy
group, a ``_switched`` set as the Eq. 8 latch).  The core stacks a
snapshot's policies as slabs: one forward per (snapshot, row count) and
one pass per (snapshot, open-row count), over every cell, ragged groups
padded with whole dummy slabs.  Slot by slot, while budgets fill up and
slices latch at their own pace, every case below must leave the same
bytes both ways: actions, fallback and held rows, the Eq. 8 latch after
the slot, and each open row's pi_phi ``(mu, sigma)`` (the oracle's
``CostToGoEstimator.predict_batch`` calls, ``mu`` floored at 0).

The floats rest on numpy running each slab as the BLAS call its group
makes alone, so the suite is meant to pass under any BLAS thread count
(CI runs it under ``OPENBLAS_NUM_THREADS=1`` and ``=2``).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import serve_oracle
from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.harness import build_onslicing, make_onrl_agents
from repro.rl.cost_estimator import CostToGoEstimator
from repro.scenarios import get as get_scenario
from repro.serve import (
    DecisionCore,
    DecisionRequest,
    SlicingService,
    scenario_with_population,
    snapshot_onrl,
    snapshot_onslicing,
)
from repro.serve.service import DECISION_STAGES, _Slabs

SLOTS = 10


def _perturbed(snapshot, name):
    """``snapshot`` under a new name with every pi_theta / pi_phi weight
    scaled by 1.1: a second snapshot whose tables differ from the
    first's in every float."""
    policies = {}
    for key, payload in snapshot.policies.items():
        payload = dict(payload)
        for part in ("model", "estimator"):
            payload[part] = {tensor: value * 1.1
                             for tensor, value in payload[part].items()}
        policies[key] = payload
    return dataclasses.replace(snapshot, name=name, policies=policies)


def _with_eta(snapshot, name, eta):
    """``snapshot`` under a new name with Eq. 8's risk preference set to
    ``eta``: pi_phi's sigma is a few thousandths of a cost unit, so at
    the trained ``eta = 1`` the ``eta * sigma`` term decides no row."""
    agent = snapshot.config.agent
    config = dataclasses.replace(snapshot.config, agent=dataclasses.replace(
        agent, switching=dataclasses.replace(agent.switching, eta=eta)))
    return dataclasses.replace(snapshot, name=name, config=config)


@pytest.fixture(scope="module")
def snapshots():
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=10),
                           seed=5)
    bundle = build_onslicing(cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    onslicing = snapshot_onslicing("slabs-s", bundle, seed=5)
    return {
        "onslicing": onslicing,
        "other": _perturbed(onslicing, "slabs-t"),
        "eta": _with_eta(onslicing, "slabs-e", 100.0),
        "onrl": snapshot_onrl("slabs-o", cfg,
                              make_onrl_agents(cfg, seed=3), seed=3),
    }


#: case -> one ``(snapshot key, slices, names kept)`` per cell: ``None``
#: keeps every slice name of the cell, else the first ``k`` names.
CASES = {
    # 1-row groups, three per policy but two for the policy whose
    # third cell gives it a 2-row group: G ragged across policies
    "ragged": [("onslicing", 3, None), ("onslicing", 3, None),
               ("onslicing", 4, None)],
    # a cell asked about two of its three slices: one policy short
    "missing": [("onslicing", 3, None), ("onslicing", 3, 2),
                ("onslicing", 3, None)],
    "n1": [("onslicing", 3, None)],
    "n3": [("onslicing", 9, None), ("onslicing", 9, None)],
    "n4": [("onslicing", 12, None), ("onslicing", 12, None)],
    "n21": [("onslicing", 63, None)],
    # big enough for a threaded BLAS to split a product: the case the
    # two-thread CI run is for
    "n64": [("onslicing", 192, None), ("onslicing", 192, None)],
    # every row count above in one core, one cell each
    "mixed": [("onslicing", 9, None), ("onslicing", 12, None),
              ("onslicing", 63, None), ("onslicing", 3, None)],
    "onrl": [("onrl", 3, None), ("onrl", 12, None), ("onrl", 4, None)],
    "two_snapshots": [("onslicing", 3, None), ("other", 3, None),
                      ("onslicing", 4, None), ("other", 12, None)],
    # Eq. 8's eta * sigma margin flips rows a margin-free verdict keeps
    "eta": [("eta", 3, None), ("eta", 12, None)],
}


def _cells(snapshots, case):
    services, names = [], []
    for index, (key, slices, kept) in enumerate(CASES[case]):
        cfg = scenario_with_population(
            get_scenario("lte_fixed_mcs"), slices).build_config(
                seed=9 + index)
        service = SlicingService(snapshots[key], cfg=cfg)
        services.append(service)
        names.append(service.slice_names[:kept])
    return DecisionCore(services), names


@pytest.mark.parametrize("case", list(CASES))
def test_stacked_passes_equal_the_per_policy_passes(
        snapshots, monkeypatch, case):
    recorded, asked = {}, {}
    padded = Counter()
    posterior = _Slabs.posterior
    predict_batch = CostToGoEstimator.predict_batch

    def spy(slabs, states, real, span):
        mu, sigma = posterior(slabs, states, real, span)
        padded["posterior"] += not real.all()
        for (position, group), mu_g, sigma_g in zip(np.argwhere(real),
                                                    mu, sigma):
            for row, mu_r, sigma_r in zip(states[position, group],
                                          mu_g, sigma_g):
                assert row.tobytes() not in recorded
                recorded[row.tobytes()] = (mu_r.tobytes(),
                                           sigma_r.tobytes())
        return mu, sigma

    def oracle_posterior(estimator, states):
        # the oracle's one pi_phi call per (cell, policy) group; Eq. 8
        # reads mu floored at 0, as the core's pass returns it
        mu, sigma = predict_batch(estimator, states)
        for row, mu_r, sigma_r in zip(states, np.maximum(mu, 0.0),
                                      sigma):
            assert row.tobytes() not in asked
            asked[row.tobytes()] = (mu_r.tobytes(), sigma_r.tobytes())
        return mu, sigma

    monkeypatch.setattr(_Slabs, "posterior", spy)
    monkeypatch.setattr(CostToGoEstimator, "predict_batch",
                        oracle_posterior)
    core, names = _cells(snapshots, case)
    # one per-cell service per cell, its ``_switched`` set the latch
    oracles = [serve_oracle.SlicingService(service.snapshot,
                                           cfg=service.cfg)
               for service in core.services]
    cells = list(range(len(names)))
    plan = core._route(cells, names)
    padded["forward"] = sum(not real.all()
                            for _, _, _, real, _ in plan.forwards)
    rng = np.random.default_rng(4)
    latched = set()
    for slot in range(SLOTS):
        if slot == 6:   # one cell re-arms
            core.begin_episode(cells[-1])
            oracles[-1].begin_episode()
        states = rng.uniform(0.0, 1.0, size=(plan.rows, 9))
        states[:, 8] *= 0.25 * slot     # budgets fill up slot by slot
        recorded.clear()
        asked.clear()
        actions, fallback, held, _ = core._propose(plan, states, 0.0)
        want, want_held = [], []
        rows = iter(states)
        for oracle, cell_names in zip(oracles, names):
            want_held += [name in oracle._switched for name in cell_names]
            proposed = oracle._propose(
                [DecisionRequest(name, next(rows)) for name in cell_names],
                dict.fromkeys(DECISION_STAGES, 0.0))
            want += [proposed[name] for name in cell_names]
        assert actions.tobytes() == np.stack(
            [action for action, _, _ in want]).tobytes(), slot
        assert fallback.tolist() == [flag for _, flag, _ in want], slot
        assert held.tolist() == want_held, slot
        assert core._latched.tolist() == [
            name in oracle._switched
            for oracle in oracles for name in oracle.slice_names], slot
        assert recorded == asked, slot
        if plan.posteriors:
            latched.add(int(core._latched.sum()))
    # not vacuous: slices latched at different slots, and where the
    # case is ragged whole dummy slabs were stacked and dropped
    if case == "onrl":
        assert not core._latched.any() and not latched
    else:
        assert len(latched) > 2
    if case in ("ragged", "missing", "two_snapshots"):
        assert padded["forward"] and padded["posterior"]


def test_one_forward_and_one_pass_per_row_count(snapshots):
    """Two 3-slice cells of one snapshot: every slot is one pi_theta
    forward and, until every row latched, one pi_phi pass -- not one
    per snapshot policy."""
    core, names = _cells(snapshots, "ragged")
    core, names = DecisionCore(core.services[:2]), names[:2]
    rng = np.random.default_rng(4)
    for slot in range(SLOTS):
        states = rng.uniform(0.0, 1.0, size=(6, 9))
        states[:, 8] *= 0.25 * slot
        before = core.counters
        held = core._latched.copy()
        core.decide_rows(states, names)
        after = core.counters
        assert after["forward_calls"] - before["forward_calls"] == 1
        assert after["posterior_calls"] - before["posterior_calls"] == \
            int(not held.all())
    assert core._latched.any()


def test_tables_are_built_once_per_snapshot_and_core(snapshots,
                                                     monkeypatch):
    """A core builds one :class:`_Slabs` per snapshot it serves, however
    many cells serve it and however many plans route to it."""
    built = []
    init = _Slabs.__init__

    def spy(slabs, snapshot):
        built.append(snapshot.name)
        init(slabs, snapshot)

    monkeypatch.setattr(_Slabs, "__init__", spy)
    core, names = _cells(snapshots, "two_snapshots")
    rng = np.random.default_rng(4)
    for count in (4, 2, 4):
        rows = sum(map(len, names[:count]))
        core.decide_rows(rng.uniform(0.0, 1.0, size=(rows, 9)),
                         names[:count], list(range(count)))
    assert core.counters["plan_builds"] == 3
    assert len(built) == 2 and len(core._slabs) == 2


def test_an_expected_cost_at_the_budget_falls_back(snapshots,
                                                    monkeypatch):
    """Eq. 8 as served reads ``E_t >= T * C_max``: with pi_phi's
    posterior pinned at zero, a row whose cumulative-cost feature is
    exactly 1 (its cost so far is the whole episode budget, to the last
    bit) falls back to pi_b and latches; one ulp under it, or less,
    keeps pi_theta."""
    monkeypatch.setattr(_Slabs, "posterior",
                        lambda slabs, states, real, span: (0.0, 0.0))
    core, names = _cells(snapshots, "n1")
    plan = core._route([0], names)
    assert plan.rows == 3
    states = np.full((3, 9), 0.5)
    states[:, 7] = 0.25             # C_max: T * C_max is exact
    states[:, 8] = [1.0, np.nextafter(1.0, 0.0), 0.5]
    _, fallback, held, _ = core._propose(plan, states, 0.0)
    assert not held.any()
    assert fallback.tolist() == [True, False, False]
    assert core._latched.tolist() == [True, False, False]
