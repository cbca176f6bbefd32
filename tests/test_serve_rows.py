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
the generators left behind.  Wall-clock instruments agree in count.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import serve_oracle
from repro import serve
from repro.config import ExperimentConfig, TrafficConfig
from repro.engine.batch import BatchSimulator
from repro.experiments.harness import (
    build_onslicing,
    fit_baselines,
    make_onrl_agents,
)
from repro.fleet import FleetSpec, plan_shards
from repro.fleet.shard import run_fleet_shard
from repro.obs.slo import SloEvaluator, default_slo_spec
from repro.obs.trace import configure, disable
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
from repro.serve.service import PENDING_SLOTS

#: LoadReport fields that read a clock.
WALL_CLOCK_FIELDS = {"service_time_s", "wall_time_s",
                     "decisions_per_sec", "p50_latency_ms",
                     "p99_latency_ms"}
#: Histograms that read a clock: equal in count only.
WALL_CLOCK_HISTOGRAMS = {"decision_latency_ms", "batch_latency_ms",
                         "stage_assemble_ms", "stage_forward_ms",
                         "stage_fallback_ms", "stage_coordinate_ms"}


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


def drive_edge(generators, episodes, max_decisions):
    """The lockstep loop re-traced through the one-cell dict edge, the
    way ``benchmarks/e2e/wl_fleet.py`` drives it."""
    batch = BatchSimulator([g.simulator for g in generators])
    active = []
    for index, generator in enumerate(generators):
        generator.begin_run(episodes, max_decisions)
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
            stopped = generator._run.stopped[generator._cell]
            if not step.dones[i] and not stopped:
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
    for key, histogram in histograms.items():
        if key in WALL_CLOCK_HISTOGRAMS:
            assert histogram.count == wanted[key].count, (where, key)
            assert histogram.total > 0.0
        else:
            assert histogram.state() == wanted[key].state(), (where, key)
    for mine, theirs in ((new.service._rng, old.service._rng),
                         (new.simulator._rng, old.simulator._rng)):
        assert mine.bit_generator.state == theirs.bit_generator.state, \
            where
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

    together = make_cells(serve, snapshot, slo_every)
    drive_lockstep(together, 2, limit)
    alone = make_cells(serve, snapshot, slo_every)
    for generator in alone:
        generator.run(2, limit)
    edge = make_cells(serve, snapshot, slo_every)
    drive_edge(edge, 2, limit)

    for index, old in enumerate(oracle):
        for label, cells in (("together", together), ("alone", alone),
                             ("edge", edge)):
            assert_same_cell(cells[index], old,
                             (method, label, old.spec.name))
    # the comparison is not vacuous: cells stopped mid-episode or ran
    # both episodes, and rounds beyond the first were priced
    reports = [old.finish_run() for old in oracle]
    if limit is None:
        assert all(r.episodes == 2 for r in reports)
        assert {r.decisions // r.slices for r in reports} == \
            {2 * (8 + index) for index in range(len(reports))}
    else:
        assert any(r.decisions % (r.slices * (8 + index)) for index, r
                   in enumerate(reports))
    assert any(old.telemetry.histogram("coordination_rounds").total
               > old.telemetry.histogram("coordination_rounds").count
               for old in oracle)
    if slo_every == 1:
        assert any(old.slo.timeline.records for old in oracle)


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


# ---- bugfix: a batch is validated before it changes anything ----------


def _service_state(service):
    core, cell = service.core, service._cell
    return (core._betas[cell].tolist(), core._segment(cell).tolist(),
            service._rng.bit_generator.state,
            [{k: v for k, v in row.items()}
             for row in service.telemetry.snapshot()
             if row["metric"] not in WALL_CLOCK_HISTOGRAMS])


def _warm(snapshot, seed=9, slots=4, **kwargs):
    """A service (and the requests it was asked) a few decisions in,
    so betas, latch and telemetry are not all zeros."""
    cfg = scenario_with_population(
        get_scenario("lte_fixed_mcs"), 12).build_config(seed=seed)
    service = SlicingService(snapshot, cfg=cfg, rng_seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    for _ in range(slots):
        states = rng.uniform(0.0, 1.0, size=(12, 9))
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
    again is one continuous stream: betas, latch and telemetry move
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


def test_core_counters_on_a_fleet(snapshots):
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
    rounds = sum(g.telemetry.histogram("coordination_rounds").total
                 for g in generators)
    assert counters["extra_rounds"] == rounds - 12 * 2 * 8
    assert counters["projections"] == sum(
        g.telemetry.counter("projections").value for g in generators)
    with pytest.raises(TypeError):
        counters["decide_calls"] = 0


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
                             "plan_builds", "extra_rounds",
                             "projections", "telemetry_folds"}
    assert (counters["decide_calls"], counters["rows_decided"],
            counters["plan_builds"], counters["telemetry_folds"]) == \
        (96, 288, 1, 1)
    assert main(["obs", "profile", "--scenario", "default"]) == 0
    out = capsys.readouterr().out
    assert out.index("engine counters: ") < \
        out.index("serve counters: decide_calls 96, ")
