"""The stepper's caches and guards.

:class:`~repro.engine.batch.BatchSimulator` keeps everything that is
constant for a row layout (the bundle), a fleet-wide channel block, a
stacked cumulative cost and, per world, the slots at which its event
timeline has work.  This suite pins what those caches may not change:

* a rejected step (bad action, world never reset or finished) leaves
  every world exactly where an untouched twin is;
* the counters move only when churn, a retirement or a changed stepping
  set gives them a reason to;
* fuzz corpora with churn, faults and ragged horizons reproduce the
  episode totals recorded at the commit before the caches existed,
  batched and alone, also under random sit-outs and a mid-episode
  reset;
* calling ``apply_events`` on a world's event slots only is the same
  timeline as calling it every slot (the old loop, kept here as the
  oracle), and dropping one end slot from the set is not;
* the router's cached plan follows the name sequence.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import scenarios
from repro.config import ExperimentConfig, NUM_ACTIONS, TrafficConfig
from repro.engine import (
    BatchSimulator,
    ConstantBatchPolicy,
    RoutedBatchPolicy,
    RuleBasedBatchPolicy,
)
from repro.engine.kernels import SliceRows, concat_rows
from repro.engine.policies import lockstep
from repro.experiments.harness import (
    fit_baselines,
    make_simulators,
    run_episodes,
)
from repro.scenarios import (
    FuzzSpace,
    ScenarioSpec,
    SliceArrival,
    generate_corpus,
    generate_spec,
)
from repro.sim.channel import FleetChannelBank
from repro.sim.network import EndToEndNetwork


def _with_horizon(spec, slots):
    traffic = dataclasses.replace(spec.build_config().traffic,
                                  slots_per_episode=slots)
    return dataclasses.replace(spec, traffic_cfg=traffic)


def _build(spec, seed=None):
    cfg = spec.build_config(seed=seed)
    return spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))


def _fingerprint(sim):
    """Everything a step may change, short of stepping."""
    fabric = sim.network.fabric
    return (json.dumps(sim._rng.bit_generator.state, sort_keys=True),
            sim.slot, sim.active_events, tuple(sim.network.slices),
            sorted(sim.background_slice_names),
            (fabric.capacity_scale, fabric.extra_latency_ms,
             fabric.background_load_fraction))


def _step_arrays(step):
    return (list(step.worlds), step.offsets.tolist(), step.names,
            step.observations.tolist(), step.costs.tolist(),
            step.usages.tolist(), step.latencies.tolist(), step.dones)


# ---- a rejected step mutates nothing ----------------------------------


#: World 0 of the trio: a churn slice attaches at slot 0 and another
#: at slot 6, so an ``apply_events`` that runs before a rejection
#: leaves a trace (slice set, active events, generator) at both.
CHURNING = ScenarioSpec(
    name="churn_at_the_rejected_slots",
    events=(SliceArrival(at_fraction=0.0, duration_fraction=0.5,
                         slice_name="bg0"),
            SliceArrival(at_fraction=0.25, duration_fraction=0.25,
                         app="hvs", slice_name="bg1")),
    traffic_cfg=TrafficConfig(slots_per_episode=24))

REJECTIONS = ("nan", "shape", "never_reset", "finished")


def _trio():
    return [_build(CHURNING),
            _build(_with_horizon(scenarios.get("default"), 24)),
            _build(_with_horizon(scenarios.get("default"), 6), seed=3)]


def _valid(sim):
    return np.full((len(sim.slice_names), NUM_ACTIONS), 0.3)


class TestRejectedStepLeavesWorldsUntouched:
    """Every stepping world and every action is checked before the
    first mutation: after a rejection the worlds' generators, slots,
    active events and slice sets equal an untouched twin's, and so
    does the next valid step."""

    @staticmethod
    def _prepare(sims, kind):
        """Bring ``sims`` to the slot the rejection happens at."""
        batch = BatchSimulator(sims)
        for b, sim in enumerate(sims):
            if kind == "never_reset" and sim is sims[-1]:
                continue
            batch.reset_world(b)
        if kind == "finished":      # the last world runs out first
            while not sims[-1].done:
                batch.step([_valid(sim) for sim in sims])
        return batch

    @staticmethod
    def _rejected_actions(sims, kind):
        actions = [_valid(sim) for sim in sims]
        victim = len(sims) // 2     # never the first world
        if kind == "nan":
            actions[victim][1, 6] = np.nan
        elif kind == "shape":
            actions[victim] = actions[victim][:, :-1]
        return actions

    @pytest.mark.parametrize("kind", REJECTIONS)
    def test_inside_a_three_world_batch(self, kind):
        sims, twins = _trio(), _trio()
        batch = self._prepare(sims, kind)
        twin_batch = self._prepare(twins, kind)
        error = RuntimeError if kind in ("never_reset",
                                         "finished") else ValueError
        with pytest.raises(error):
            batch.step(self._rejected_actions(sims, kind))
        assert [_fingerprint(sim) for sim in sims] == \
            [_fingerprint(twin) for twin in twins]
        for engine, worlds in ((batch, sims), (twin_batch, twins)):
            if not worlds[-1]._traces or worlds[-1].done:
                engine.reset_world(len(worlds) - 1)
        assert _step_arrays(batch.step([_valid(s) for s in sims])) == \
            _step_arrays(twin_batch.step([_valid(s) for s in twins]))
        assert [_fingerprint(sim) for sim in sims] == \
            [_fingerprint(twin) for twin in twins]

    @pytest.mark.parametrize("kind", REJECTIONS)
    def test_lone_world(self, kind):
        sim, twin = _build(CHURNING), _build(CHURNING)

        def mapping(world):
            return {n: np.full(NUM_ACTIONS, 0.3)
                    for n in world.slice_names}

        for world in (sim, twin):
            if kind != "never_reset":
                world.reset()
            if kind == "finished":
                while not world.done:
                    world.step(mapping(world))
        bad = mapping(sim)
        if kind == "nan":
            bad["HVS"][2] = np.inf
        elif kind == "shape":
            bad["HVS"] = np.full(NUM_ACTIONS + 1, 0.3)
        error = RuntimeError if kind in ("never_reset",
                                         "finished") else ValueError
        with pytest.raises(error):
            sim.step(bad)
        assert _fingerprint(sim) == _fingerprint(twin)
        for world in (sim, twin):
            if not world._traces or world.done:
                world.reset()
        assert sim.step(mapping(sim)) == twin.step(mapping(twin))
        assert _fingerprint(sim) == _fingerprint(twin)

    def test_missing_slice_is_rejected_before_anything_moves(self):
        sim, twin = _build(CHURNING), _build(CHURNING)
        sim.reset()
        twin.reset()
        with pytest.raises(KeyError, match="world 0: no action for "
                                           "slice 'RDC'"):
            sim.step({"MAR": np.full(NUM_ACTIONS, 0.3),
                      "HVS": np.full(NUM_ACTIONS, 0.3)})
        assert _fingerprint(sim) == _fingerprint(twin)

    @pytest.mark.parametrize("fault", ("typo", "background", "missing"))
    @pytest.mark.parametrize("lone", (True, False))
    def test_a_slice_the_world_does_not_manage_names_both(self, lone,
                                                          fault):
        """An action for a slice the world does not manage (a typo, or
        its background churn slice) or no action for one it does is a
        ``KeyError`` naming the world and the slice, raised before
        anything moved; the world then steps like an untouched twin.
        Dict actions used to drop an unknown slice silently."""
        name = {"typo": "TYPO", "background": "bg0",
                "missing": "RDC"}[fault]

        def mapping(world):
            return {n: np.full(NUM_ACTIONS, 0.3)
                    for n in world.slice_names}

        def worlds():
            churning = _build(CHURNING)
            if lone:
                return [churning]
            return [_build(_with_horizon(scenarios.get("default"), 24)),
                    churning]

        sims, twins = worlds(), worlds()
        victim = len(sims) - 1
        engines = [BatchSimulator(group) for group in (sims, twins)]
        for engine, group in zip(engines, (sims, twins)):
            engine.reset()
            engine.step([mapping(world) for world in group])
        assert sims[victim].background_slice_names == ["bg0"]
        actions = [mapping(world) for world in sims]
        if fault == "missing":
            del actions[victim][name]
        else:
            actions[victim][name] = np.full(NUM_ACTIONS, 0.3)
        with pytest.raises(KeyError,
                           match=f"world {victim}: .*'{name}'"):
            if lone:
                sims[victim].step(actions[victim])
            else:
                engines[0].step(actions)
        assert [_fingerprint(sim) for sim in sims] == \
            [_fingerprint(twin) for twin in twins]
        assert _step_arrays(engines[0].step(
            [mapping(sim) for sim in sims])) == _step_arrays(
            engines[1].step([mapping(twin) for twin in twins]))

    def test_a_rejected_first_step_keeps_trace_edits_open(self):
        """Trace edits between ``reset()`` and the first step count;
        a rejected first step is not that step, so it must not build
        the episode's layout (which freezes the intensities)."""
        sim, twin = _build(CHURNING), _build(CHURNING)
        for world in (sim, twin):
            world.reset()
        with pytest.raises(ValueError, match="non-finite"):
            sim.step({n: np.full(NUM_ACTIONS, np.nan)
                      for n in sim.slice_names})
        for world in (sim, twin):
            world._traces["MAR"][:] = 0.0
        actions = {n: np.full(NUM_ACTIONS, 0.3) for n in sim.slice_names}
        result = sim.step(actions)
        assert result == twin.step(actions)
        assert result["MAR"].observation.traffic == 0.0

    @pytest.mark.parametrize("lone", (True, False))
    def test_managed_slices_changing_mid_episode_are_rejected(self,
                                                              lone):
        """The episode's cumulative costs are aligned with the managed
        slices it started with: a hand-attached managed slice is an
        error naming the world, raised before anything moved."""
        extra = scenarios.get("six_slices").build_config().slices[4]
        sims = _trio()[:1] if lone else _trio()
        batch = BatchSimulator(sims)
        batch.reset()
        batch.step([_valid(sim) for sim in sims])
        victim = sims[-1]
        victim.network.add_slice(extra)
        victim._traces[extra.name] = np.ones(victim.horizon)
        before = [_fingerprint(sim) for sim in sims]
        with pytest.raises(ValueError,
                           match=f"world {len(sims) - 1}: the managed "
                                 "slices changed mid-episode"):
            batch.step([_valid(sim) for sim in sims])
        assert [_fingerprint(sim) for sim in sims] == before
        batch.reset_world(len(sims) - 1)
        step = batch.step([_valid(sim) for sim in sims])
        assert step.names[-1] == victim.slice_names
        assert len(step.names[-1]) == 4


def test_step_rows_outputs_outlive_the_next_step():
    """The kernel arrays ``step_rows`` hands back are the caller's:
    after the next step they still hold their own slot's values."""
    sim = _build(scenarios.get("default"))
    batch = BatchSimulator([sim])
    batch.reset()
    rng = np.random.default_rng(8)
    shape = (len(sim.slice_names), NUM_ACTIONS)
    _, out, _ = batch.step_rows([rng.uniform(0.0, 1.0, shape)])
    kept = {key: column.copy() for key, column in out.items()}
    _, later, _ = batch.step_rows([rng.uniform(0.0, 1.0, shape)])
    for key, column in kept.items():
        np.testing.assert_array_equal(out[key], column, err_msg=key)
    # the second slot is a different one, so the check has teeth
    assert not np.array_equal(later["value"], kept["value"])


# ---- the counters show the mechanism ----------------------------------


def _run(sims, episodes):
    batch = BatchSimulator(sims)
    policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
    for _ in lockstep(batch, policy, episodes):
        pass
    return batch.counters


class TestCounters:
    def test_churn_free_fleet_builds_everything_once(self):
        spec = _with_horizon(scenarios.get("default"), 12)
        counters = _run(make_simulators(spec.build_config(), spec,
                                        count=8), episodes=2)
        assert dict(counters) == {
            "bundle_builds": 1, "bundle_splices": 0,
            "fleet_adoptions": 1, "bank_readoptions": 0,
            "event_slots": 0}
        with pytest.raises(TypeError):
            counters["bundle_builds"] = 0

    def test_churn_costs_one_splice_per_boundary(self):
        """``slice_churn`` attaches its slice at 0.3 and detaches it
        at 0.7 of every episode: two boundaries an episode, each one
        bundle splice and one bank re-adoption -- and the churn-free
        world beside it costs nothing."""
        churn = _with_horizon(scenarios.get("slice_churn"), 20)
        calm = _with_horizon(scenarios.get("default"), 20)
        lone = _build(churn)
        boundaries = 0
        for _ in range(2):
            lone.reset()
            population = tuple(lone.network.slices)
            while not lone.done:
                lone.step({n: np.full(NUM_ACTIONS, 0.25)
                           for n in lone.slice_names})
                boundaries += tuple(lone.network.slices) != population
                population = tuple(lone.network.slices)
        assert boundaries == 4
        # a world only ever stepped alone owns a one-world block:
        # adopted once, re-adopted at the churn boundaries only
        assert lone._engine.counters["fleet_adoptions"] == 1
        assert lone._engine.counters["bank_readoptions"] == boundaries

        counters = _run([_build(churn), _build(calm)], episodes=2)
        assert counters["bundle_builds"] == 1
        assert counters["fleet_adoptions"] == 1
        assert counters["bundle_splices"] == boundaries
        assert counters["bank_readoptions"] == boundaries
        # one layout per build or splice
        assert counters["bundle_builds"] + counters["bundle_splices"] \
            == 1 + boundaries
        # two events x (start, end) x two episodes, one world
        assert counters["event_slots"] == 4

    def test_churn_splices_bit_identically(self):
        """Mid-episode churn in a mixed-size batch splices the bundle
        exactly once, and every world -- the churned one included --
        stays bit-identical to a lone simulator replaying the same
        action stream."""
        names = ["default", "slice_churn", "six_slices"]
        sims = [_build(scenarios.get(name)) for name in names]
        slots = int(0.5 * sims[1].horizon)      # churn fires at 0.3

        def lone_rows(name):
            sim = _build(scenarios.get(name))
            sim.reset()
            rng = np.random.default_rng(321)
            out = []
            for _ in range(slots):
                results = sim.step({n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                                    for n in sim.slice_names})
                out.append({n: (tuple(results[n].observation.vector()),
                                results[n].cost, results[n].usage)
                            for n in sim.slice_names})
            return out

        expected = {name: lone_rows(name) for name in names}
        batch = BatchSimulator(sims)
        batch.reset()
        rngs = [np.random.default_rng(321) for _ in sims]
        splices = []
        for _ in range(slots):
            step = batch.step([{n: rngs[b].uniform(0.0, 1.0, NUM_ACTIONS)
                                for n in sim.slice_names}
                               for b, sim in enumerate(sims)])
            splices.append(batch.counters["bundle_splices"])
            for b, name in enumerate(names):
                rows = step.rows_of(b)
                want = expected[name].pop(0)
                for j, slice_name in enumerate(step.names[b]):
                    obs, cost, usage = want[slice_name]
                    assert tuple(step.observations[rows][j]) == obs, \
                        f"{name}/{slice_name} diverged post-churn"
                    assert float(step.costs[rows][j]) == cost
                    assert float(step.usages[rows][j]) == usage
        # the churn slice attached once in this window, and nothing
        # else changed the layout
        assert splices[0] == 0 and splices[-1] == 1

    def test_a_retirement_is_one_splice_and_one_arena_re_key(self):
        default = scenarios.get("default")
        sims = [_build(_with_horizon(default, slots), seed=slots)
                for slots in (6, 9, 12)]
        batch = BatchSimulator(sims)
        policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
        curve = [dict(batch.counters) for _ in lockstep(batch, policy)]
        # the stepping set shrinks after slots 6 and 9, so the steps
        # of slots 7 and 10 (indices 6 and 9) each splice once
        moved = [i for i in range(1, len(curve))
                 if curve[i]["bundle_splices"]
                 != curve[i - 1]["bundle_splices"]]
        assert moved == [6, 9]
        assert curve[-1] == {
            "bundle_builds": 1, "bundle_splices": 2,
            "fleet_adoptions": 1, "bank_readoptions": 0,
            "event_slots": 0}

    def test_obs_profile_reports_the_counters(self, capsys):
        from repro.runtime.cli import main

        assert main(["obs", "profile", "--scenario", "slice_churn",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["engine_counters"] == {
            "bundle_builds": 1, "bundle_splices": 2,
            "fleet_adoptions": 1, "bank_readoptions": 2,
            "event_slots": 2}
        assert main(["obs", "profile", "--scenario", "default"]) == 0
        assert "engine counters: bank_readoptions 0, bundle_builds 1, " \
            "bundle_splices 0, event_slots 0, fleet_adoptions 1\n" \
            in capsys.readouterr().out


# ---- worlds of differing user counts share one padded block -----------


def _build_users(spec, users, seed):
    cfg = spec.build_config(seed=seed)
    cfg = cfg.replace(network=dataclasses.replace(
        cfg.network, users_per_slice=users))
    return spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))


def _padded_fleet():
    churn = scenarios.get("slice_churn")
    return [_build_users(_with_horizon(churn, slots), users, seed)
            for seed, (users, slots) in enumerate(
                ((3, 12), (5, 16), (3, 20), (5, 14)))]


def test_padded_fleet_steps_every_world_like_the_world_alone():
    """Worlds of 3 and 5 users per slice, churning, with ragged
    horizons, over two episodes, world 1 sitting out every third slot:
    one ``(R, 5)`` block adopted once, and every world's rows,
    channels and generator equal a lone twin's replaying the world's
    own action stream."""
    sims, twins = _padded_fleet(), _padded_fleet()
    count = len(sims)
    batch = BatchSimulator(sims)
    streams = [np.random.default_rng(500 + b) for b in range(count)]
    scripts = [[] for _ in range(count)]
    for _ in range(2):
        batch.reset()
        slot = 0
        while not all(sim.done for sim in sims):
            actions = [None] * count
            for b, sim in enumerate(sims):
                if not sim.done and not (b == 1 and slot % 3 == 2):
                    actions[b] = streams[b].uniform(
                        0.0, 1.0, (len(sim.slice_names), NUM_ACTIONS))
            slot += 1
            if all(action is None for action in actions):
                continue        # only world 1 is left, sitting out
            step = batch.step(actions)
            for i, b in enumerate(step.worlds):
                rows = step.rows_of(b)
                scripts[b].append((
                    actions[b], step.names[i],
                    step.observations[rows].tolist(),
                    step.rewards[rows].tolist(),
                    step.costs[rows].tolist(),
                    step.usages[rows].tolist(),
                    step.latencies[rows].tolist(), step.dones[i]))
        for b, twin in enumerate(twins):
            twin.reset()
            for action, names, obs, rewards, costs, usages, latencies, \
                    done in scripts[b]:
                results = twin.step(dict(zip(names, action)))
                assert list(results) == names
                got = [results[n] for n in names]
                assert [list(r.observation.vector())
                        for r in got] == obs, b
                assert [r.reward for r in got] == rewards
                assert [r.cost for r in got] == costs
                assert [r.usage for r in got] == usages
                assert [r.report.transport_latency_ms
                        + r.report.core_latency_ms
                        + r.report.edge_latency_ms
                        for r in got] == latencies
                assert twin.done == done
            scripts[b].clear()
            assert _fingerprint(twin) == _fingerprint(sims[b])
            for name, channel in twin.network.channels.items():
                mine = sims[b].network.channels[name]
                np.testing.assert_array_equal(mine.snr_db, channel.snr_db)
                np.testing.assert_array_equal(mine.cqi, channel.cqi)
    assert batch._fleet.snr_db.shape[1] == 5
    assert batch.counters["fleet_adoptions"] == 1
    # every world churns twice an episode
    assert batch.counters["bank_readoptions"] == 2 * 2 * count


# ---- recorded-parent totals over fuzz corpora -------------------------


#: SHA-256 over ``repr((slice, cost, usage))`` of every world, episode
#: and slice of ``run_episodes(corpus(seed), pi_b, episodes=2)``,
#: recorded at commit 2d27083 -- the parent of the PR that made the
#: stepper O(1) Python per slot -- where engine="vector" and
#: engine="scalar" agreed on every seed.
PARENT_TOTALS = {
    0: "898c42d44a8dc5626dc48a7bc0760542119b28a093dbd5cabf6f88ff74e899b7",
    1: "7e88f0cabc9d427d3fb7a6933d70c39d0255c0a481cd69d3e069a5bc4e19c5ed",
    2: "d89bc924c9a076a391b3134163edf3c60641bd608b41b8197e742dc8cdc1edfc",
    3: "f587570352bb5d7b3e09ed215e4980f184968de90c6695cfc622a6e1fe2ada83",
    4: "d7ea7ffefb101aea085213eef1963aed26d81e526d465978505d3e95fba02a58",
    5: "7b940b5c0e2969e827bf80512eea7859fb2682e4b711a6d2bd68f8f28b59e706",
    6: "78078e023874be95866728583ad44608196824118b7f18bb4b006975ef899982",
    7: "96c4a5078e74a33520d95c030a35de1ee6dd30b1de10780fcd0fc2933a8bb9c9",
}

CORPUS_SPACE = FuzzSpace(min_slots=12, max_slots=24)


def _corpus(seed):
    return [spec.build_simulator()
            for spec in generate_corpus(seed, 12, CORPUS_SPACE)]


def _totals_digest(results):
    sha = hashlib.sha256()
    for world in results:
        for episode in world:
            for name, total in episode.items():
                sha.update(repr((name, total["cost"],
                                 total["usage"])).encode())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def rule_based():
    return RuleBasedBatchPolicy(
        fit_baselines(ExperimentConfig(), use_cache=False))


class TestCorpusParity:
    """Churn, faults and ragged horizons, eight unseen-seed corpora."""

    @pytest.mark.parametrize("seed", sorted(PARENT_TOTALS))
    def test_batched_alone_and_recorded_totals_agree(self, seed,
                                                     rule_based):
        vector = run_episodes(_corpus(seed), rule_based, episodes=2,
                              engine="vector")
        scalar = run_episodes(_corpus(seed), rule_based, episodes=2,
                              engine="scalar")
        assert vector == scalar
        assert _totals_digest(vector) == PARENT_TOTALS[seed]

    @pytest.mark.parametrize("seed", sorted(PARENT_TOTALS))
    def test_sit_outs_and_a_mid_episode_reset_match_lone_twins(
            self, seed):
        """Each slot a random subset of the worlds sits out, and one
        world is reset from outside in mid-episode; every world's
        rows equal a lone twin's replaying the world's own action
        stream (steps and the reset, in order)."""
        sims = _corpus(seed)
        count = len(sims)
        batch = BatchSimulator(sims)
        batch.reset()
        chooser = np.random.default_rng(seed)
        streams = [np.random.default_rng(1000 + b) for b in range(count)]
        scripts = [[] for _ in range(count)]
        restarted = seed % count
        slot = 0
        while not all(sim.done for sim in sims):
            if slot == 5:
                batch.reset_world(restarted)
                scripts[restarted].append(None)
            live = [b for b in range(count) if not sims[b].done]
            sitting = set(chooser.choice(
                live, size=int(chooser.integers(len(live))),
                replace=False).tolist())
            actions = [None] * count
            for b in live:
                if b not in sitting:
                    actions[b] = streams[b].uniform(
                        0.0, 1.0, (len(sims[b].slice_names),
                                   NUM_ACTIONS))
            step = batch.step(actions)
            for i, b in enumerate(step.worlds):
                rows = step.rows_of(b)
                assert step.names[i] == sims[b].slice_names
                scripts[b].append((
                    actions[b], step.observations[rows].tolist(),
                    step.costs[rows].tolist(),
                    step.usages[rows].tolist(), step.dones[i]))
            slot += 1

        for b, twin in enumerate(_corpus(seed)):
            twin.reset()
            for entry in scripts[b]:
                if entry is None:
                    twin.reset()
                    continue
                action, observations, costs, usages, done = entry
                names = twin.slice_names
                results = twin.step(dict(zip(names, action)))
                assert [list(results[n].observation.vector())
                        for n in names] == observations, (seed, b)
                assert [results[n].cost for n in names] == costs
                assert [results[n].usage for n in names] == usages
                assert twin.done == done
            assert _fingerprint(twin) == _fingerprint(sims[b])


    def test_a_managed_slice_added_between_episodes(self):
        """The stacked cumulative cost is laid out from the worlds'
        managed slice counts; a world that gains a managed slice
        between two episodes is re-laid-out, not corrupted."""
        extra = scenarios.get("six_slices").build_config().slices[4]
        spec = _with_horizon(scenarios.get("default"), 6)

        def actions(sim):
            return np.full((len(sim.slice_names), NUM_ACTIONS), 0.3)

        sims = [_build(spec), _build(spec, seed=3)]
        batch = BatchSimulator(sims)
        lone = _build(spec)
        for episode in range(2):
            if episode:
                sims[0].network.add_slice(extra)
                lone.network.add_slice(extra)
            batch.reset()
            lone.reset()
            while not lone.done:
                step = batch.step([actions(sim) for sim in sims])
                results = lone.step(dict(zip(lone.slice_names,
                                             actions(lone))))
                rows = step.rows_of(0)
                assert step.names[0] == lone.slice_names
                assert step.costs[rows].tolist() == \
                    [results[n].cost for n in lone.slice_names]
                assert step.observations[rows].tolist() == \
                    [list(results[n].observation.vector())
                     for n in lone.slice_names]
            for name in lone.slice_names:
                assert sims[0].cumulative_cost(name) == \
                    lone.cumulative_cost(name)
        assert len(lone.slice_names) == 4


# ---- event slots == every slot ----------------------------------------


def _parent_apply_events(sim):
    """``ScenarioSimulator.apply_events`` as the stepper called it on
    every world every slot (commit 2d27083), kept verbatim as the
    oracle: windows re-derived from the fractions each time."""
    if not sim._events:
        return
    for event in list(sim._active_events):
        if sim._slot >= event.end_slot(sim.horizon):
            sim._deactivate(event)
    for event in sim._events:
        if (event.start_slot(sim.horizon) == sim._slot
                and event not in sim._active_events):
            sim._activate(event)
    sim._refresh_conditions()


def _timeline(sim, event_slots=None):
    """What the event timeline made of the world at every slot of one
    episode: with ``event_slots`` ``apply_events`` runs on those slots
    only (the stepper's rule), without on every slot (the oracle)."""
    sim.reset()
    seen = []
    for slot in range(sim.horizon):
        if event_slots is None:
            _parent_apply_events(sim)
        elif slot in event_slots:
            sim.apply_events()
        fabric = sim.network.fabric
        seen.append((sim.active_events, tuple(sim.network.slices),
                     fabric.capacity_scale, fabric.extra_latency_ms,
                     fabric.background_load_fraction))
        sim._slot += 1
    return seen


def _specs_under_test():
    specs = [scenarios.get(name) for name in scenarios.names()]
    specs += [generate_spec(29, index) for index in range(200)]
    return specs


class TestEventSlots:
    HORIZONS = (6, 24, 96)

    def test_event_slots_replay_the_every_slot_timeline(self):
        checked = 0
        for spec in _specs_under_test():
            for slots in self.HORIZONS:
                resized = _with_horizon(spec, slots)
                sim = _build(resized)
                assert _timeline(sim, sim.event_slots) == \
                    _timeline(_build(resized)), (spec.name, slots)
                checked += bool(sim.event_slots)
        assert checked > 100        # most fuzzed worlds carry events

    def test_dropping_one_end_slot_is_caught(self):
        """The comparison has teeth: without the slot its churn slice
        detaches at, ``slice_churn`` keeps the slice past its window."""
        spec = _with_horizon(scenarios.get("slice_churn"), 24)
        sim = _build(spec)
        arrival = sim._events[0]
        end = arrival.end_slot(sim.horizon)
        assert end in sim.event_slots and end < sim.horizon
        assert _timeline(sim, sim.event_slots - {end}) != \
            _timeline(_build(spec))

    def test_hand_set_conditions_hold_until_the_next_event_slot(self):
        """Between event slots nothing re-applies the timeline's
        transport conditions (the stepper used to, every slot): a
        condition set by hand holds until the world's next event
        boundary, where the timeline's value takes over again."""
        sim = _build(_with_horizon(scenarios.get("transport_brownout"),
                                   24))
        start, end = 6, 18          # the surge's window at 24 slots
        assert sim.event_slots == {start, end}
        sim.reset()
        fabric = sim.network.fabric
        actions = {n: np.full(NUM_ACTIONS, 0.3) for n in sim.slice_names}
        while sim.slot < 8:
            sim.step(actions)
        assert fabric.extra_latency_ms == 60.0
        sim.network.set_transport_conditions(extra_latency_ms=5.0)
        while sim.slot < end:
            sim.step(actions)
            assert fabric.extra_latency_ms == 5.0
        sim.step(actions)           # slot 18: the surge ends
        assert fabric.extra_latency_ms == 0.0


# ---- the router's cached plan -----------------------------------------


def _parent_act_batch(router, states, slice_names):
    """``RoutedBatchPolicy.act_batch`` before it cached its plan
    (commit 2d27083), verbatim: every row resolved on every call."""
    states = np.asarray(states, dtype=float)
    actions = np.empty((len(states), NUM_ACTIONS))
    resolved = [router._resolve(name) for name in slice_names]
    groups = {}
    for row, policy in enumerate(resolved):
        groups.setdefault(id(policy), []).append(row)
    for rows in groups.values():
        actions[rows] = resolved[rows[0]].act_rows(states[rows])
    return actions


class TestRoutingPlan:
    A = ["MAR", "HVS", "RDC", "MAR7", "HVS2", "unknown"]
    B = ["HVS", "MAR", "RDC", "RDC9", "MAR", "HVS"]      # same length

    @pytest.fixture()
    def counting(self, rule_based, monkeypatch):
        router = RoutedBatchPolicy(rule_based.policies)
        calls = []
        resolve = router._resolve
        monkeypatch.setattr(
            router, "_resolve",
            lambda name: calls.append(name) or resolve(name))
        return router, calls

    def test_plan_follows_the_name_sequence(self, counting):
        router, calls = counting
        rng = np.random.default_rng(5)
        reference = RoutedBatchPolicy(router.policies)
        for names in (self.A, self.A, self.B, self.A, tuple(self.A),
                      self.A[:4]):
            states = rng.uniform(0.0, 1.0, (len(names), 9))
            np.testing.assert_array_equal(
                router.act_batch(states, names),
                _parent_act_batch(reference, states, names))
        # resolved again exactly when the sequence changed: A, B, A,
        # A[:4] (the repeat and the tuple spelling of A reuse the plan)
        assert calls == self.A + self.B + self.A + self.A[:4]

    def test_a_list_mutated_in_place_is_a_new_sequence(self, counting):
        router, calls = counting
        names = list(self.A)
        states = np.random.default_rng(6).uniform(0.0, 1.0, (6, 9))
        router.act_batch(states, names)
        names[0], names[1] = names[1], names[0]
        np.testing.assert_array_equal(
            router.act_batch(states, names),
            _parent_act_batch(RoutedBatchPolicy(router.policies),
                              states, names))
        assert len(calls) == 12


# ---- splicing ----------------------------------------------------------


def _rows_equal(left: SliceRows, right: SliceRows):
    for spec in dataclasses.fields(SliceRows):
        if spec.name == "uid":
            continue
        a, b = getattr(left, spec.name), getattr(right, spec.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, spec.name
            np.testing.assert_array_equal(a, b, err_msg=spec.name)
        else:
            assert a == b, spec.name


class TestSplicedBundles:
    def _parts(self):
        names = ("default", "six_slices", "slice_churn", "default")
        return [_build(scenarios.get(name), seed=i).network.slot_rows()
                for i, name in enumerate(names)]

    def test_replacing_and_dropping_a_world_equals_a_full_concat(self):
        parts = self._parts()
        bundle = concat_rows(parts)
        fresh = _build(scenarios.get("six_slices"), seed=9) \
            .network.slot_rows()
        replaced = concat_rows([bundle.take_worlds(0, 2), fresh,
                                bundle.take_worlds(3, 4)])
        _rows_equal(replaced, concat_rows(parts[:2] + [fresh]
                                          + parts[3:]))
        dropped = concat_rows([bundle.take_worlds(0, 1),
                               bundle.take_worlds(2, 4)])
        _rows_equal(dropped, concat_rows(parts[:1] + parts[2:]))
        assert len({bundle.uid, replaced.uid, dropped.uid}) == 3

    def test_fleet_block_steps_any_subset_like_the_banks_alone(self):
        """One fused update over a subset's rows == each network
        stepping its own bank, and a churned bank is spliced in
        without moving the others' state."""
        def networks():
            return [EndToEndNetwork(rng=np.random.default_rng(40 + i),
                                    slices=ExperimentConfig().slices)
                    for i in range(4)]

        fleet_nets, lone_nets = networks(), networks()
        fleet = FleetChannelBank(
            [net.channel_bank() for net in fleet_nets],
            [net._rng for net in fleet_nets])
        extra = scenarios.get("six_slices").build_config().slices[4]
        for subset in ([0, 1, 2, 3], [1, 3], [0], [0, 2, 3]):
            if subset == [0]:       # churn world 2 in both fleets
                for nets in (fleet_nets, lone_nets):
                    nets[2].add_slice(extra)
                fleet.replace(2, fleet_nets[2].channel_bank())
            rows = None if len(subset) == 4 else np.concatenate(
                [np.arange(fleet.starts[b], fleet.starts[b + 1])
                 for b in subset])
            cqi, margin = fleet.step_worlds(subset, rows)
            for b in subset:
                lone_nets[b].step_channels()
            want = [lone_nets[b].gather_channel_state() for b in subset]
            np.testing.assert_array_equal(
                cqi, np.concatenate([c for c, _ in want]))
            np.testing.assert_array_equal(
                margin, np.concatenate([m for _, m in want]))
        for mine, theirs in zip(fleet_nets, lone_nets):
            for name in mine.channels:
                np.testing.assert_array_equal(
                    mine.channels[name].snr_db,
                    theirs.channels[name].snr_db)
                np.testing.assert_array_equal(
                    mine.channels[name].cqi, theirs.channels[name].cqi)
