"""The row-wise decision core against the per-cell loop it replaced.

``tests/serve_oracle.py`` is the parent commit's serving loop, verbatim
(one ``decide`` per cell and slot, per-request objects, per-name dict
accounting, one ``observe`` per sample).  Every cell below is driven
through it and through the row-wise path three ways -- all cells in
one ``drive_lockstep``, each cell alone, and the one-cell dict edge
(``serve_slot`` / ``record_step``) called per slot the way the frozen
benchmark harness calls it -- and must come out the same: report,
decision digest, every counter, every deterministic histogram sample
for sample, the incident timeline of an attached SLO evaluator, and
the simulator generator left behind.  Wall-clock instruments agree in
count.  A run with a decision budget is driven alone only:
``LoadGenerator.run`` is the one driver that takes one.

A histogram's state is bucket counts, so every histogram of this
module also records the values it is given, in order, whichever of
``observe`` / ``observe_many`` takes them (:func:`recorded_samples`),
and the deterministic ones are compared sample for sample as well.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import re
import sys
from collections import Counter

import numpy as np
import pytest

import serve_oracle
from repro import scenarios, serve
from repro.config import NUM_ACTIONS, ExperimentConfig, TrafficConfig
from repro.core.offline import collect_baseline_rollouts
from repro.engine import batch as engine_batch
from repro.engine.batch import BatchSimulator
from repro.engine.policies import RoutedBatchPolicy, lockstep
from repro.experiments import figures, harness
from repro.experiments.harness import (
    build_onslicing,
    fit_baselines,
    make_model_based_policies,
    make_onrl_agents,
    make_simulator,
    run_episodes,
    run_online_phase,
)
from repro.fleet import FleetSpec, plan_shards
from repro.fleet.shard import run_fleet_shard
from repro.nn.bayesian import BayesianMLP
from repro.obs.metrics import Histogram
from repro.obs.slo import SloEvaluator, default_slo_spec
from repro.obs.trace import configure, disable
from repro.runtime.cli import main as cli_main
from repro.scenarios import ROBUSTNESS_MATRIX
from repro.scenarios import get as get_scenario
from repro.serve import (
    DecisionCore,
    DecisionRequest,
    LoadGenerator,
    SlicingService,
    scenario_with_population,
    snapshot_baseline,
    snapshot_model_based,
    snapshot_onrl,
    snapshot_onslicing,
)
from repro.serve.loadgen import drive_lockstep
from repro.serve.service import PENDING_SLOTS, _Slabs
from repro.sim.network import CONSTRAINED_RESOURCES

#: The ``repro`` package directory the driver spy reports callers in.
PACKAGE = os.path.dirname(os.path.dirname(serve.__file__))
#: Constrained action columns, in CONSTRAINED_RESOURCES order.
KIND_COLUMNS = list(CONSTRAINED_RESOURCES.values())

#: LoadReport fields that read a clock.
WALL_CLOCK_FIELDS = {"service_time_s", "wall_time_s",
                     "decisions_per_sec", "p50_latency_ms",
                     "p99_latency_ms"}
#: Histograms that read a clock: equal in count only.
WALL_CLOCK_HISTOGRAMS = {"decision_latency_ms", "batch_latency_ms",
                         "stage_assemble_ms", "stage_forward_ms",
                         "stage_fallback_ms", "stage_coordinate_ms"}


@pytest.fixture(autouse=True)
def recorded_samples(monkeypatch):
    """Wrap ``Histogram.observe`` / ``observe_many`` so each histogram
    keeps ``recorded``: every value it took, in order (a one-value
    ``observe_many`` that hands over to ``observe`` records once)."""
    observe, observe_many = Histogram.observe, Histogram.observe_many

    def observe_one(histogram, value):
        observe(histogram, value)
        if not histogram.__dict__.get("in_bulk"):
            histogram.__dict__.setdefault("recorded", []).append(
                float(value))

    def observe_bulk(histogram, values):
        histogram.in_bulk = True
        try:
            observe_many(histogram, values)
        finally:
            histogram.in_bulk = False
        histogram.__dict__.setdefault("recorded", []).extend(
            np.asarray(values, dtype=float).ravel().tolist())

    monkeypatch.setattr(Histogram, "observe", observe_one)
    monkeypatch.setattr(Histogram, "observe_many", observe_bulk)


def recorded(histogram):
    return histogram.__dict__.get("recorded", [])


@pytest.fixture(scope="module")
def snapshots():
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=10),
                           seed=5)
    bundle = build_onslicing(cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    return {
        "baseline": snapshot_baseline("rows-b", cfg, fit_baselines(cfg),
                                      seed=3),
        "model_based": snapshot_model_based("rows-m", cfg),
        "onrl": snapshot_onrl("rows-o", cfg,
                              make_onrl_agents(cfg, seed=3), seed=3),
        "onslicing": snapshot_onslicing("rows-s", bundle, seed=5),
    }


def cell_specs():
    """Every robustness scenario at a horizon of its own (so cells
    finish, roll over and retire at different slots), a 50-slice cell
    and the scenario Eq. 8 fires on."""
    cells = [(name, None) for name in ROBUSTNESS_MATRIX]
    cells += [("default", 50), ("lte_fixed_mcs", None)]
    specs = []
    for index, (name, slices) in enumerate(cells):
        spec = scenario_with_population(get_scenario(name), slices)
        traffic = spec.traffic_cfg if spec.traffic_cfg is not None \
            else TrafficConfig()
        specs.append(dataclasses.replace(
            spec, traffic_cfg=dataclasses.replace(
                traffic, slots_per_episode=8 + index)))
    return specs


def make_cells(module, snapshot, slo_every):
    """One generator per cell spec from ``module`` (this repo's
    serving stack or the oracle's), each with an SLO evaluator of its
    own when ``slo_every`` is set."""
    cells = []
    for index, spec in enumerate(cell_specs()):
        kwargs = {}
        if slo_every is not None:
            kwargs = {"slo": SloEvaluator(default_slo_spec(
                latency_budget_ms=150.0, fast_window=4.0,
                slow_window=12.0)), "slo_every": slo_every}
        cells.append(module.LoadGenerator(
            snapshot, spec, seed=11 + index,
            trace_attrs={"cell": index, "scenario": spec.name},
            **kwargs))
    return cells


def drive_edge(generators, episodes):
    """The lockstep loop re-traced through the one-cell dict edge, the
    way ``benchmarks/e2e/wl_fleet.py`` drives it."""
    batch = BatchSimulator([g.simulator for g in generators])
    active = []
    for index, generator in enumerate(generators):
        generator.begin_run(episodes)
        generator.begin_episode(observations=batch.reset_world(index))
        active.append(index)
    while active:
        actions = [None] * len(generators)
        for cell in active:
            actions[cell] = generators[cell].serve_slot()
        step = batch.step(actions)
        still_active = []
        for i, cell in enumerate(active):
            generator = generators[cell]
            rows = step.rows_of(cell)
            names = step.names[i]
            generator.record_step(
                dict(zip(names, step.costs[rows].tolist())),
                dict(zip(names, step.usages[rows].tolist())),
                dict(zip(names, step.observations[rows])),
                dict(zip(names, step.latencies[rows].tolist())))
            if not step.dones[i]:
                still_active.append(cell)
                continue
            generator.end_episode()
            if generator.want_more_episodes:
                generator.begin_episode(
                    observations=batch.reset_world(cell))
                still_active.append(cell)
        active = still_active


def assert_same_cell(new, old, where):
    """One cell of the row-wise path against the oracle's."""
    report, expected = new.finish_run(), old.finish_run()
    for field in dataclasses.fields(report):
        if field.name not in WALL_CLOCK_FIELDS:
            assert getattr(report, field.name) == \
                getattr(expected, field.name), (where, field.name)
    assert report.service_time_s > 0.0
    assert report.p99_latency_ms >= report.p50_latency_ms > 0.0
    counters = {key: counter.value for key, counter
                in new.telemetry.counters().items()}
    assert counters == {key: counter.value for key, counter
                        in old.telemetry.counters().items()}, where
    histograms = new.telemetry.histograms()
    wanted = old.telemetry.histograms()
    assert set(histograms) == set(wanted), where
    samples = 0
    for key, histogram in histograms.items():
        if key in WALL_CLOCK_HISTOGRAMS:
            assert histogram.count == wanted[key].count, (where, key)
            assert histogram.total > 0.0
        else:
            assert histogram.state() == wanted[key].state(), (where, key)
            assert recorded(histogram) == recorded(wanted[key]), \
                (where, key)
            samples += len(recorded(histogram))
    assert samples >= report.decisions, where
    assert new.simulator._rng.bit_generator.state == \
        old.simulator._rng.bit_generator.state, where
    if new.slo is not None:
        def incidents(generator):
            return [{key: value for key, value in record.items()
                     if key != "wall_time"}
                    for record in generator.slo.timeline.records]

        assert incidents(new) == incidents(old), where
        assert new.slo.timeline.digest() == old.slo.timeline.digest()


#: (slo_every, max_decisions) per run: no observer, an observer at
#: every slot, one whose cadence straddles episode ends together with a
#: stop in the middle of an episode, and the default cadence.
VARIANTS = [(None, None), (1, None), (7, 40), (16, None)]


@pytest.mark.parametrize("method, slo_every, limit", [
    (method, slo_every, limit)
    for method, variants in (("baseline", VARIANTS),
                             ("model_based", VARIANTS[::2]),
                             ("onrl", VARIANTS[::2]),
                             ("onslicing", VARIANTS))
    for slo_every, limit in variants])
def test_rows_match_the_per_cell_loop(snapshots, method, slo_every,
                                      limit):
    snapshot = snapshots[method]
    oracle = make_cells(serve_oracle, snapshot, slo_every)
    serve_oracle.drive_lockstep(oracle, 2, limit)

    alone = make_cells(serve, snapshot, slo_every)
    for generator in alone:
        generator.run(2, limit)
    runs = [("alone", alone)]
    if limit is None:
        # a decision budget is one cell's (``LoadGenerator.run``); a
        # fleet shard and the edge always run every episode
        together = make_cells(serve, snapshot, slo_every)
        drive_lockstep(together, 2)
        edge = make_cells(serve, snapshot, slo_every)
        drive_edge(edge, 2)
        runs += [("together", together), ("edge", edge)]

    for index, old in enumerate(oracle):
        for label, cells in runs:
            assert_same_cell(cells[index], old,
                             (method, label, old.spec.name))
    # the comparison is not vacuous: cells stopped mid-episode or ran
    # both episodes, and some batches were projected while others fit
    reports = [old.finish_run() for old in oracle]
    if limit is None:
        assert all(r.episodes == 2 for r in reports)
        assert {r.decisions // r.slices for r in reports} == \
            {2 * (8 + index) for index in range(len(reports))}
    else:
        assert any(r.decisions % (r.slices * (8 + index)) for index, r
                   in enumerate(reports))
    outcomes = {key for old in oracle
                for key in old.telemetry.counters()
                if key.startswith("admissions{")}
    assert 'admissions{outcome="projected"}' in outcomes
    # (an untrained OnRL policy over-requests in every slot)
    assert ('admissions{outcome="feasible"}' in outcomes) == \
        (method != "onrl")
    if slo_every == 1:
        assert any(old.slo.timeline.records for old in oracle)


# ---- served = evaluated, within capacity ----------------------------


@pytest.fixture(scope="module")
def table_snapshots():
    cfg = ExperimentConfig(seed=5)
    return {"baseline": (snapshot_baseline("eval-b", cfg,
                                           fit_baselines(cfg), seed=5),
                         lambda target: fit_baselines(cfg)),
            "model_based": (snapshot_model_based("eval-m", cfg),
                            make_model_based_policies)}


@pytest.mark.parametrize("method", ["baseline", "model_based"])
@pytest.mark.parametrize("name", scenarios.names())
def test_a_served_cell_uses_what_run_episodes_evaluates(
        table_snapshots, name, method):
    """Serving projects a cell over capacity exactly as evaluation
    does (and leaves one that fits untouched), so a pi_b or
    Model_Based cell served by the load generator uses, slice for
    slice, what ``run_episodes`` reports for the same world."""
    snapshot, policies = table_snapshots[method]
    spec = scenarios.get(name)
    report = LoadGenerator(snapshot, spec, seed=5).run(episodes=2)
    target = spec.build_config(seed=5)
    episodes, = run_episodes(
        [make_simulator(target, spec)],
        RoutedBatchPolicy(policies(target)), episodes=2)
    slots = target.traffic.slots_per_episode
    evaluated = {slice_name: float(np.mean(
        [episode[slice_name]["usage"] / slots for episode in episodes]))
        for slice_name in episodes[0]}
    assert report.per_slice_usage == evaluated


def test_served_actions_stay_within_capacity(snapshots, monkeypatch):
    """Eq. 9: every cell's executed allocations of a constrained kind
    add up to at most its capacity, in every slot, for every method."""
    totals = []
    step = BatchSimulator.step

    def spy(batch, actions):
        for action in actions:
            if action is not None:
                totals.append(np.asarray(action)[:, KIND_COLUMNS]
                              .sum(axis=0))
        return step(batch, actions)

    monkeypatch.setattr(BatchSimulator, "step", spy)
    for snapshot in snapshots.values():
        drive_lockstep(make_cells(serve, snapshot, None), 2)
    totals = np.asarray(totals)
    assert len(totals) == 4 * 2 * sum(
        8 + index for index in range(len(cell_specs())))
    assert totals.max() <= 1.0 + 1e-12
    # not vacuous: some cells were projected down to capacity
    assert np.isclose(totals, 1.0).any()


def test_onslicing_cells_exercise_eq8(snapshots):
    """The OnSlicing comparison above covers fresh Eq. 8 triggers and
    latched slices (else it would only compare the forward)."""
    cells = make_cells(serve_oracle, snapshots["onslicing"], None)
    serve_oracle.drive_lockstep(cells, 2, None)
    causes = {}
    for cell in cells:
        for key, counter in cell.telemetry.counters().items():
            if key.startswith("fallbacks{"):
                causes[key] = causes.get(key, 0) + counter.value
    assert causes.get('fallbacks{cause="eq8"}', 0) > 0
    assert causes.get('fallbacks{cause="latched"}', 0) > 0


def test_long_episodes_fold_when_the_buffers_fill(snapshots):
    """An episode longer than the pending buffers folds mid-episode
    and still leaves what the per-sample loop leaves."""
    spec = get_scenario("bursty")
    spec = dataclasses.replace(spec, traffic_cfg=dataclasses.replace(
        spec.traffic_cfg or TrafficConfig(),
        slots_per_episode=PENDING_SLOTS + 9))
    old = serve_oracle.LoadGenerator(snapshots["baseline"], spec, seed=4)
    old.run(1)
    new = LoadGenerator(snapshots["baseline"], spec, seed=4)
    new.run(1)
    assert_same_cell(new, old, "long")
    assert new.service.core.counters["telemetry_folds"] == 2


# ---- Eq. 8 asks pi_phi only about slices it can still switch ----------


def _eq8_service(snapshot, seed=9, slices=12):
    cfg = scenario_with_population(
        get_scenario("lte_fixed_mcs"), slices).build_config(seed=seed)
    return SlicingService(snapshot, cfg=cfg, rng_seed=seed)


def _requests(service, states):
    return [DecisionRequest(name, state)
            for name, state in zip(service.slice_names, states)]


def test_posterior_never_sees_a_latched_row(snapshots, monkeypatch):
    asked = _posterior_spy(monkeypatch)
    service = _eq8_service(snapshots["onslicing"])
    core = service.core
    rng = np.random.default_rng(9)
    mixed = 0
    for _ in range(6):
        states = rng.uniform(0.0, 1.0, size=(12, 9))
        states[:, 8] *= 1.2             # some rows over budget: Eq. 8
        latched = core._segment(service._cell).copy()
        asked.clear()
        rows = core.counters["posterior_rows"]
        decisions = service.decide(_requests(service, states))
        # every open row asked once, no latched row asked at all, and
        # no snapshot policy asked twice
        passes = [entry for slot in asked for each in slot
                  for entry in each]
        assert len({name for name, _ in passes}) == len(passes)
        seen = [block.reshape(-1, 9) for _, block in passes]
        assert sorted(map(tuple, np.concatenate(seen or [states[:0]]))) \
            == sorted(map(tuple, states[~latched]))
        assert core.counters["posterior_rows"] - rows == (~latched).sum()
        assert all(decisions[name].fallback for name, held
                   in zip(service.slice_names, latched) if held)
        mixed += 0 < latched.sum() < len(latched)
    assert mixed >= 2


def test_a_fully_latched_cell_draws_nothing(snapshots):
    """A slot where every learned row of a cell is latched runs no
    posterior for that cell; a cell beside it still asks, one pass
    per open-row count over every snapshot policy's open rows."""
    latched, live = (_eq8_service(snapshots["onslicing"], seed)
                     for seed in (9, 10))
    rng = np.random.default_rng(9)
    states = rng.uniform(0.1, 1.0, size=(12, 9))
    states[:, 8] = 5.0                  # five budgets spent: all switch
    assert all(d.fallback for d in latched.decide(
        _requests(latched, states)).values())
    alone = latched.core.counters
    states[:, 8] = 0.0
    latched.decide(_requests(latched, states))
    counters = latched.core.counters
    assert counters["posterior_calls"] == alone["posterior_calls"]
    assert counters["posterior_rows"] == alone["posterior_rows"]
    core = DecisionCore([latched, live])
    names = [latched.slice_names, live.slice_names]
    out = core.decide_rows(np.vstack([states, states]), names)
    assert out.fallback[:12].all() and not out.fallback[12:].all()
    assert core.counters["posterior_rows"] == 12
    open_counts = Counter(live._routes[name][0]
                          for name in live.slice_names)
    assert core.counters["posterior_calls"] == \
        len(set(open_counts.values())) == 1


def test_posterior_counters_follow_the_latch(snapshots):
    """Slot by slot, while budgets fill up: one pass per open-row count
    among the snapshot policies that still have an open row (every
    policy's group of that count a slab of it), and ``posterior_rows``
    grows by exactly the rows the latch left open -- all of them until
    the first latch, fewer from then on."""
    service = _eq8_service(snapshots["onslicing"])
    core = service.core
    rng = np.random.default_rng(4)
    phases = set()
    for slot in range(8):
        states = rng.uniform(0.0, 1.0, size=(12, 9))
        states[:, 8] *= 0.2 * slot      # budgets fill up slot by slot
        held = core._segment(service._cell).copy()
        before = core.counters
        service.decide(_requests(service, states))
        after = core.counters
        open_keys = Counter(service._routes[name][0] for name, done
                            in zip(service.slice_names, held) if not done)
        assert after["posterior_rows"] - before["posterior_rows"] == \
            (~held).sum(), slot
        assert after["posterior_calls"] - before["posterior_calls"] == \
            len(set(open_keys.values())), slot
        phases.add(bool(held.any()))
    assert phases == {False, True}


def test_rng_seed_changes_nothing(snapshots):
    """``SlicingService(rng_seed=)`` is kept for callers written when
    the pi_phi posterior was sampled: services built with different
    seeds, or none, decide the same floats slot after slot, latching
    included."""
    cfg = scenario_with_population(
        get_scenario("lte_fixed_mcs"), 12).build_config(seed=9)
    services = [SlicingService(snapshots["onslicing"], cfg=cfg,
                               rng_seed=seed)
                for seed in (None, 0, 9, 12345)]
    rng = np.random.default_rng(4)
    for slot in range(6):
        states = rng.uniform(0.0, 1.0, size=(12, 9))
        states[:, 8] *= 0.3 * slot      # budgets fill up slot by slot
        outs = [service.core.decide_rows(states, [service.slice_names])
                for service in services]
        for out in outs[1:]:
            assert np.array_equal(out.actions, outs[0].actions), slot
            assert np.array_equal(out.fallback, outs[0].fallback), slot
    assert outs[0].fallback.any() and not outs[0].fallback.all()


def test_serving_builds_each_posterior_table_once(snapshots, monkeypatch):
    """pi_phi's weight-side tables are built when a snapshot policy is
    loaded and read by every Eq. 8 pass after that: over a 2 x 96-slot
    replay of recorded ``lte_fixed_mcs`` slots, ``BayesianMLP
    .posterior`` runs once per learned policy that has pi_phi, however
    many passes ask it."""
    built = []
    posterior = BayesianMLP.posterior

    def spy(net):
        built.append(net)
        return posterior(net)

    monkeypatch.setattr(BayesianMLP, "posterior", spy)
    snapshot = snapshots["onslicing"]
    spec = scenario_with_population(get_scenario("lte_fixed_mcs"), 12)
    spec = dataclasses.replace(spec, traffic_cfg=dataclasses.replace(
        spec.traffic_cfg or TrafficConfig(), slots_per_episode=96))
    cfg = spec.build_config(seed=7)
    simulator = spec.build_simulator(cfg, rng=np.random.default_rng(7))
    service = SlicingService(snapshot, cfg=cfg)
    action = np.full(NUM_ACTIONS, 0.3)
    for _ in range(2):
        observations = simulator.reset()
        service.begin_episode()
        while not simulator.done:
            service.decide([DecisionRequest(name, observation.vector())
                            for name, observation
                            in observations.items()])
            results = simulator.step({name: action
                                      for name in observations})
            observations = {name: result.observation
                            for name, result in results.items()}
    with_pi_phi = sum("estimator" in payload
                      for payload in snapshot.policies.values())
    assert with_pi_phi > 0
    assert len(built) == with_pi_phi
    assert service.core.counters["posterior_calls"] >= 2 * 96


@pytest.mark.parametrize("slices", [None, 12])
@pytest.mark.parametrize("method", ["onslicing", "onrl"])
def test_a_cell_decides_alone_what_it_decides_in_a_fleet(
        snapshots, monkeypatch, method, slices):
    """Stacking (cell, policy) groups as slabs moves no float: each
    cell of a 3-cell core decides, slot by slot across an episode in
    which its slices latch at their own pace, what the same cell
    decides in a one-cell core of its own -- every group's pi_phi
    ``(mu, sigma)``, actions, fallbacks, latch and the generator left
    behind -- with 1-row groups (the scenario's own 3 slices, the
    fleet's shape) and 4-row groups (12 slices)."""
    seen = {}
    posterior = _Slabs.posterior

    def spy(slabs, states, real, span):
        mu, sigma = posterior(slabs, states, real, span)
        names = slabs.eq8_names[span]
        for (position, group), mu_g, sigma_g in zip(np.argwhere(real),
                                                    mu, sigma):
            seen.setdefault(states[position, group].tobytes(), []).append(
                (names[position], mu_g.tobytes(), sigma_g.tobytes()))
        return mu, sigma

    monkeypatch.setattr(_Slabs, "posterior", spy)
    seeds = (9, 10, 11)
    fleet = [_eq8_service(snapshots[method], seed, slices)
             for seed in seeds]
    alone = [_eq8_service(snapshots[method], seed, slices)
             for seed in seeds]
    core = DecisionCore(fleet)
    names = [service.slice_names for service in fleet]
    width = len(names[0])
    rng = np.random.default_rng(4)
    counts = set()
    for slot in range(10):
        states = rng.uniform(0.0, 1.0, size=(3, width, 9))
        states[:, :, 8] *= 0.25 * slot  # budgets fill up slot by slot
        out = core.decide_rows(states.reshape(-1, 9), names)
        for index, service in enumerate(alone):
            own = service.core.decide_rows(states[index],
                                           [service.slice_names])
            rows = slice(width * index, width * (index + 1))
            assert np.array_equal(own.actions, out.actions[rows])
            assert np.array_equal(own.fallback, out.fallback[rows])
            assert own.fallbacks[0] == out.fallbacks[index]
            assert np.array_equal(service.core._segment(0),
                                  core._segment(index))
        counts.add(tuple(core._segment(index).sum() for index in range(3)))
    # every group asked in the fleet was asked alone, with equal floats
    assert all(len(asked) == 2 and asked[0] == asked[1]
               for asked in seen.values())
    lone = [service.core.counters for service in alone]
    counters = core.counters
    assert counters["forward_calls"] < sum(c["forward_calls"] for c in lone)
    if method == "onrl":
        assert not core._latched.any() and not seen
        return
    # not vacuous: cells latched different slices at different slots,
    # and the passes still stacked groups across cells
    assert len(counts) > 2 and any(len(set(c)) > 1 for c in counts)
    assert counters["posterior_rows"] == \
        sum(c["posterior_rows"] for c in lone)
    assert counters["posterior_calls"] < \
        sum(c["posterior_calls"] for c in lone)


# ---- bugfix: a batch is validated before it changes anything ----------


def _service_state(service):
    core, cell = service.core, service._cell
    return (core._segment(cell).tolist(),
            [{k: v for k, v in row.items()}
             for row in service.telemetry.snapshot()
             if row["metric"] not in WALL_CLOCK_HISTOGRAMS])


def _warm(snapshot, seed=9, slots=4, slices=12, **kwargs):
    """A service (and the requests it was asked) a few decisions in,
    so latch and telemetry are not all zeros."""
    cfg = scenario_with_population(
        get_scenario("lte_fixed_mcs"), slices).build_config(seed=seed)
    service = SlicingService(snapshot, cfg=cfg, rng_seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    for _ in range(slots):
        states = rng.uniform(0.0, 1.0, size=(slices, 9))
        states[:, 8] *= 3.0             # some rows over budget: Eq. 8
        service.decide([DecisionRequest(name, state) for name, state
                        in zip(service.slice_names, states)])
    return service, rng


@pytest.mark.parametrize("method", ["baseline", "onslicing"])
@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_state_is_rejected_whole(snapshots, method, poison):
    """(a) At the parent a NaN traffic feature was served MAR's
    top-bin allocation and counted as a decision."""
    service, rng = _warm(snapshots[method])
    twin, _ = _warm(snapshots[method])
    assert _service_state(service) == _service_state(twin)
    states = rng.uniform(0.0, 1.0, size=(12, 9))
    bad = states.copy()
    bad[4, 1] = poison
    names = service.slice_names
    with pytest.raises(ValueError, match=f"non-finite state for slice "
                                         f"'{names[4]}'"):
        service.decide([DecisionRequest(name, state)
                        for name, state in zip(names, bad)])
    assert _service_state(service) == _service_state(twin)
    # and it still serves what the untouched twin serves
    good = [DecisionRequest(name, state)
            for name, state in zip(names, states)]
    mine, theirs = service.decide(good), twin.decide(good)
    for name in names:
        assert np.array_equal(mine[name].action, theirs[name].action)
        assert mine[name].fallback == theirs[name].fallback


@pytest.mark.parametrize("method", ["baseline", "onslicing"])
def test_duplicate_slice_is_rejected_whole(snapshots, method):
    """(b) At the parent a batch naming a slice twice counted two
    decisions, returned one and priced one row."""
    service, rng = _warm(snapshots[method])
    twin, _ = _warm(snapshots[method])
    names = service.slice_names
    states = rng.uniform(0.0, 1.0, size=(12, 9))
    requests = [DecisionRequest(name, state)
                for name, state in zip(names, states)]
    with pytest.raises(ValueError, match=f"slice '{names[2]}' is named "
                                         "twice"):
        service.decide(requests + [requests[2]])
    with pytest.raises(KeyError, match="unknown slice 'NOPE'"):
        service.decide(requests + [DecisionRequest("NOPE", states[0])])
    with pytest.raises(ValueError, match=f"state for '{names[5]}' must "
                                         "have shape"):
        service.decide(requests[:5]
                       + [DecisionRequest(names[5], np.zeros(4))])
    assert _service_state(service) == _service_state(twin)
    assert service.telemetry.counter("decisions").value == \
        twin.telemetry.counter("decisions").value == 4 * 12


#: A malformed state among 64 well-formed ones, as ``(position, state
#: from the row's good one, the shape the error reports)``; ``None``
#: position: every state is malformed, the first is named.
MALFORMED = {
    "short": (37, lambda good: good[:8], (8,)),
    "column": (37, lambda good: good[:, None], (9, 1)),
    "scalar": (37, lambda good: float(good[0]), ()),
    "list": (63, lambda good: list(good) + [0.5], (10,)),
    "every": (None, lambda good: good[:8], (8,)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_state_in_a_64_request_batch_is_rejected_whole(
        snapshots, case):
    """The edge stacks a batch's states in one call and walks the
    requests only when the stack is not ``(64, STATE_DIM)``: a ragged
    or wrong-shaped batch still raises naming the first offending
    slice, before anything changed."""
    position, malform, shape = MALFORMED[case]
    service, rng = _warm(snapshots["onslicing"], slices=64)
    twin, _ = _warm(snapshots["onslicing"], slices=64)
    names = service.slice_names
    states = rng.uniform(0.0, 1.0, size=(64, 9))
    states[:, 8] *= 3.0
    requests = [DecisionRequest(name, state)
                for name, state in zip(names, states)]
    bad = [DecisionRequest(request.slice_name, malform(request.state))
           if position in (None, at) else request
           for at, request in enumerate(requests)]
    named = names[position or 0]
    with pytest.raises(ValueError, match=re.escape(
            f"state for {named!r} must have shape (9,), got {shape}")):
        service.decide(bad)
    assert _service_state(service) == _service_state(twin)
    mine, theirs = service.decide(requests), twin.decide(requests)
    assert list(mine) == names
    for name in names:
        assert mine[name].action.tobytes() == theirs[name].action.tobytes()
        assert mine[name].fallback == theirs[name].fallback
    assert _service_state(service) == _service_state(twin)


def test_a_decision_is_immutable(snapshots):
    service, rng = _warm(snapshots["onslicing"], slots=1)
    name = service.slice_names[0]
    decision = service.decide_one(
        DecisionRequest(name, rng.uniform(0.0, 1.0, 9)))
    assert decision._fields == ("slice_name", "action", "fallback",
                                "policy")
    assert decision.slice_name == name
    for field in decision._fields:
        with pytest.raises(AttributeError):
            setattr(decision, field, None)


def test_lockstep_rejection_names_the_cell(snapshots):
    snapshot = snapshots["baseline"]
    services = [
        SlicingService(snapshot, trace_attrs={"cell": 40 + index})
        for index in range(3)]
    core = DecisionCore(services)
    names = [service.slice_names for service in services]
    states = np.random.default_rng(2).uniform(size=(9, 9))
    core.decide_rows(states, names)
    core.flush()
    before = [_service_state(service) for service in services]
    bad = states.copy()
    bad[4, 6] = np.nan                 # second cell, second slice
    with pytest.raises(ValueError, match="cell 41: non-finite state "
                                         "for slice 'HVS'"):
        core.decide_rows(bad, names)
    with pytest.raises(ValueError, match="shape"):
        core.decide_rows(states[:8], names)
    with pytest.raises(ValueError, match="cell 42: slice 'MAR' is "
                                         "named twice"):
        core.decide_rows(states[:7],
                         [names[0], ["MAR", "MAR"]], [0, 2])
    with pytest.raises(KeyError, match="cell 40: unknown slice 'X'"):
        core.decide_rows(states[:1], [["X"]], [0])
    core.flush()
    assert [_service_state(service) for service in services] == before
    core.decide_rows(states, names)     # still serving
    core.flush()
    assert [s.telemetry.counter("batches").value for s in services] \
        == [2.0, 2.0, 2.0]


def test_a_cell_moves_between_cores_with_its_state(snapshots):
    """A service decided alone, then stacked with others, then alone
    again is one continuous stream: latch and telemetry move
    with it (what a generator run twice relies on)."""
    service, rng = _warm(snapshots["onslicing"])
    twin, _ = _warm(snapshots["onslicing"])
    other, _ = _warm(snapshots["onslicing"], seed=3)
    own = service.core
    stacked = DecisionCore([other, service])
    assert service.core is stacked and service._cell == 1
    assert own.counters["telemetry_folds"] == 4
    assert _service_state(service) == _service_state(twin)
    states = rng.uniform(0.0, 1.0, size=(12, 9))
    requests = [DecisionRequest(name, state) for name, state
                in zip(service.slice_names, states)]
    mine, theirs = service.decide(requests), twin.decide(requests)
    for name in mine:
        assert np.array_equal(mine[name].action, theirs[name].action)
    assert _service_state(service) == _service_state(twin)


# ---- observability: the core's counters -------------------------------


def _fleet_generators(snapshot, scenarios, cells=8, slots=12):
    spec = FleetSpec(name="rows", cells=cells, scenarios=scenarios,
                     slots=slots, episodes=2, seed=5)
    plan, = plan_shards(spec, 1, "unused", snapshot.ref,
                        snapshot.digest)
    resolved = spec.resolve_scenarios()
    return [LoadGenerator(snapshot,
                          spec.cell_scenario(resolved[cell.scenario]),
                          seed=cell.seed) for cell in plan.cells]


def _posterior_spy(monkeypatch):
    """Record every pi_phi pass, slot by slot: per slot, one list per
    pass, holding one ``(policy name, (G, n, STATE_DIM) states)`` per
    snapshot policy the pass stacks -- its real slabs, the padding
    dropped."""
    asked = []
    propose = DecisionCore._propose
    posterior = _Slabs.posterior

    def slot(core, plan, states, start):
        asked.append([])
        return propose(core, plan, states, start)

    def spy(slabs, states, real, span):
        asked[-1].append([(name, states[position][real[position]].copy())
                          for position, name
                          in enumerate(slabs.eq8_names[span])
                          if real[position].any()])
        return posterior(slabs, states, real, span)

    monkeypatch.setattr(DecisionCore, "_propose", slot)
    monkeypatch.setattr(_Slabs, "posterior", spy)
    return asked


def test_core_counters_on_a_fleet(snapshots, monkeypatch):
    generators = _fleet_generators(
        snapshots["baseline"], ("default", "bursty", "drift"))
    drive_lockstep(generators, episodes=2)
    core = generators[0].service.core
    assert all(g.service.core is core for g in generators)
    counters = core.counters
    assert counters["decide_calls"] == 12 * 2           # slots x episodes
    assert counters["rows_decided"] == 12 * 2 * 8 * 3
    assert counters["plan_builds"] == 1
    assert counters["telemetry_folds"] == 8 * 2         # cells x episodes
    assert counters["projections"] == sum(
        g.telemetry.counter("projections").value for g in generators)
    assert counters["forward_calls"] == counters["posterior_calls"] \
        == counters["posterior_rows"] == 0
    with pytest.raises(TypeError):
        counters["decide_calls"] = 0

    # OnSlicing: per slot at most one pass, every cell's open group of
    # every snapshot policy a slab of it, on exactly the rows the latch
    # was not holding
    asked = _posterior_spy(monkeypatch)
    generators = _fleet_generators(
        snapshots["onslicing"], ("default", "lte_fixed_mcs"))
    drive_lockstep(generators, episodes=2)
    core = generators[0].service.core
    core.flush()
    counters = core.counters
    held = sum(g.telemetry.counter("fallbacks", {"cause": "latched"})
               .value for g in generators)
    assert held > 0
    assert counters["posterior_calls"] == \
        sum(len(slot) for slot in asked)
    assert all(len(slot) <= 1 for slot in asked)
    passes = [entry for slot in asked for each in slot
              for entry in each]
    assert counters["posterior_rows"] == \
        sum(block.shape[0] * block.shape[1] for _, block in passes) \
        == counters["rows_decided"] - held
    assert len(asked) == counters["decide_calls"]
    policies = {slabs.eq8_names[position]
                for slabs, position, _ in core._plan.posteriors}
    for slot in asked:
        entries = [entry for each in slot for entry in each]
        assert len({name for name, _ in entries}) == len(entries) \
            <= len(policies)
    assert max(block.shape[0] for _, block in passes) == 8
    # and one pi_theta forward per slot, not one per snapshot policy or
    # per (cell, policy)
    assert len(core._plan.forwards) == 1 < len(policies) < int(
        core._plan.groups.sum())
    assert counters["forward_calls"] == counters["decide_calls"]
    # whole groups were skipped, not only rows
    groups = len(core._plan.posteriors)
    assert sum(block.shape[0] for _, block in passes) < \
        counters["decide_calls"] * groups


def test_churn_does_not_rebuild_the_plan(snapshots):
    """Churn slices are background load the engine drives: a cell's
    *managed* names do not change at a churn boundary, so the routing
    plan (keyed on the name sequences, not on the engine's row layout)
    survives them; a cell retiring is what rebuilds it."""
    generators = _fleet_generators(
        snapshots["baseline"], ("default", "slice_churn"), cells=4)
    drive_lockstep(generators, episodes=2)
    assert generators[0].service.core.counters["plan_builds"] == 1
    ragged = [LoadGenerator(snapshots["baseline"], spec, seed=index)
              for index, spec in enumerate(cell_specs()[:3])]
    drive_lockstep(ragged, episodes=1)
    assert ragged[0].service.core.counters["plan_builds"] == 3


def test_traced_shard_reports_one_decide_row_per_cell_and_slot(
        snapshots):
    snapshot = snapshots["onrl"]
    spec = FleetSpec(name="rows", cells=3,
                     scenarios=("default", "six_slices"), slots=6,
                     seed=5)
    plan, = plan_shards(spec, 1, "unused", snapshot.ref,
                        snapshot.digest)
    tracer = configure()
    try:
        run_fleet_shard(plan, snapshot=snapshot)
        rollup = tracer.rollup()
    finally:
        disable()
    decide = {dict(attrs)["cell"]: row for (path, attrs), row
              in rollup.items()
              if path == "fleet.shard/serve.decide"}
    assert sorted(decide) == ["0", "1", "2"]
    assert all(row["count"] == 6 for row in decide.values())
    assert all(row["total_ms"] >= row["child_ms"] > 0.0
               for row in decide.values())
    forwards = {dict(attrs)["cell"]: row["count"]
                for (path, attrs), row in rollup.items()
                if path.endswith("serve.decide/serve.forward")}
    # one forward per (cell, snapshot policy) and slot
    assert forwards == {"0": 18, "1": 18, "2": 18}
    shard = rollup[("fleet.shard", (("shard", "0"),))]
    assert shard["child_ms"] >= sum(row["total_ms"]
                                    for row in decide.values())


def test_obs_profile_reports_the_serve_counters(capsys):
    import json

    from repro.runtime.cli import main

    assert main(["obs", "profile", "--scenario", "slice_churn",
                 "--json"]) == 0
    counters = json.loads(capsys.readouterr().out)["serve_counters"]
    assert set(counters) == {"decide_calls", "rows_decided",
                             "plan_builds", "projections",
                             "telemetry_folds", "forward_calls",
                             "posterior_calls", "posterior_rows",
                             "pass_layouts"}
    assert (counters["decide_calls"], counters["rows_decided"],
            counters["plan_builds"], counters["telemetry_folds"]) == \
        (96, 288, 1, 1)
    # the rule-based snapshot has no pi_theta or pi_phi to ask
    assert counters["forward_calls"] == counters["posterior_calls"] \
        == counters["posterior_rows"] == 0
    assert main(["obs", "profile", "--scenario", "default"]) == 0
    out = capsys.readouterr().out
    assert out.index("engine counters: ") < \
        out.index("serve counters: decide_calls 96, ")


# ---- one replay driver -------------------------------------------------


def test_every_step_is_taken_by_lockstep(snapshots, monkeypatch, capsys):
    """Serving (one cell, with and without a decision budget), fleet
    shards (vector and scalar plans), evaluation, the offline pi_b
    rollouts, OnSlicing's online and test episodes, figures 14, 15,
    17, 18 and 19 and ``obs profile`` all step their worlds from one
    loop, ``engine/policies.py::lockstep``.  The spy sits on
    ``BatchSimulator.step_rows``, which ``ScenarioSimulator.step``
    calls too, so a hand-written loop over either stepper fails
    here."""
    callers = []
    step_rows = BatchSimulator.step_rows

    def spy(batch, actions):
        frame = sys._getframe(1)
        while frame.f_code.co_filename == engine_batch.__file__:
            frame = frame.f_back            # BatchSimulator.step
        callers.append((os.path.relpath(frame.f_code.co_filename,
                                        PACKAGE), frame.f_code.co_name))
        return step_rows(batch, actions)

    monkeypatch.setattr(BatchSimulator, "step_rows", spy)
    snapshot = snapshots["baseline"]
    spec = FleetSpec(name="one-driver", cells=3,
                     scenarios=("default", "short_horizon"), slots=4,
                     seed=5)
    for engine in ("vector", "scalar"):
        plan, = plan_shards(spec, 1, "unused", snapshot.ref,
                            snapshot.digest, engine=engine)
        run_fleet_shard(plan, snapshot=snapshot)
    cell = cell_specs()[0]
    LoadGenerator(snapshot, cell, seed=5).run(2)
    LoadGenerator(snapshot, cell, seed=5).run(2, 10)

    def tiny(**kwargs):
        return ExperimentConfig(
            traffic=TrafficConfig(slots_per_episode=4), seed=5, **kwargs)

    cfg = tiny()
    baselines = fit_baselines(cfg)
    run_episodes([make_simulator(cfg), make_simulator(cfg)],
                 RoutedBatchPolicy(baselines), episodes=2)
    collect_baseline_rollouts(make_simulator(cfg), baselines, 2)
    bundle = build_onslicing(cfg, offline_episodes=1,
                             exploration_episodes=1)
    run_online_phase(bundle, epochs=1, episodes_per_epoch=1)
    harness.test_performance(bundle, episodes=1)
    monkeypatch.setattr(figures, "ExperimentConfig", tiny)
    figures.fig14(cfg, betas=(0.5,))
    figures.fig15(scale=0.02, cfg=cfg)
    figures.fig17()
    figures.fig18(scale=0.02, user_counts=(30,))
    figures.fig19(slice_counts=(3,))
    assert cli_main(["obs", "profile", "--scenario", "short_horizon",
                     "--json"]) == 0
    capsys.readouterr()
    assert len(callers) > 6 * 4
    assert set(callers) == {
        (os.path.join("engine", "policies.py"), "lockstep")}


def test_lockstep_keeps_its_parameters():
    """Serving rides ``lockstep`` as a batch policy and slot consumer:
    it needed no option of its own."""
    parameters = [(p.name, p.kind, p.default) for p
                  in inspect.signature(lockstep).parameters.values()]
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    empty = inspect.Parameter.empty
    assert parameters == [("batch", kind, empty),
                          ("policy", kind, empty),
                          ("episodes", kind, 1),
                          ("project", kind, True)]


@pytest.mark.parametrize("where", ["mid-episode", "episode 1's last slot",
                                   "the run's last slot"])
def test_a_decision_budget_stops_as_the_per_cell_loop_did(snapshots,
                                                          where):
    """``run(2, m)`` against the oracle's: the episode the budget
    ends is counted once -- also when it ends on an episode's last
    slot -- and neither the latch is re-armed nor the world reset."""
    spec = cell_specs()[-1]             # lte_fixed_mcs: Eq. 8 fires
    slices = len(spec.build_config().slices)
    horizon = spec.traffic_cfg.slots_per_episode
    limit = {"mid-episode": slices * (horizon // 2) + 1,
             "episode 1's last slot": slices * horizon,
             "the run's last slot": 2 * slices * horizon}[where]
    snapshot = snapshots["onslicing"]
    new = LoadGenerator(snapshot, spec, seed=3)
    old = serve_oracle.LoadGenerator(snapshot, spec, seed=3)
    new.run(2, limit)
    old.run(2, limit)
    assert_same_cell(new, old, where)
    assert new.finish_run().episodes == \
        (2 if where == "the run's last slot" else 1)
    service = new.service
    latched = {name for name, held in zip(
        service.slice_names, service.core._segment(service._cell))
        if held}
    assert latched == old.service._switched
    # not vacuous: the latch is holding slices when the budget ends
    assert latched
