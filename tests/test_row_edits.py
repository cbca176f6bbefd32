"""Churn flips fixed rows: a world's rows are laid out once, and slice
churn only says which of them are attached.

A simulator builds its network with one row per managed slice and one
spare row per ``slice_arrival`` event, in attach order
(``EndToEndNetwork.row_specs``); a timeline attach or detach flips
``EndToEndNetwork.active`` and leaves the network's rows, their
``uid``, the engine's bundle, its channel block and the episode's
``WorldLayout`` as they are.  A slice set changed by hand still
reshapes the network, and its rows are rebuilt.

These hold the attached rows to worlds built fresh with the same
slice set, byte for byte -- including hostile timelines, alone and
inside a batch -- and count what a churning fuzz corpus builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import assert_same_layout
from kernel_probe import attached_rows
from repro import scenarios
from repro.config import (
    NUM_ACTIONS,
    ExperimentConfig,
    TrafficConfig,
    TransportConfig,
    slice_spec_for_app,
)
from repro.engine import kernels
from repro.engine.batch import BatchSimulator
from repro.engine.kernels import DERIVED, evaluate_rows, rows_for_network
from repro.engine.policies import ConstantBatchPolicy, lockstep
from repro.scenarios.events import SliceArrival
from repro.scenarios.fuzz import FuzzSpace, generate_corpus
from repro.sim.env import (
    ARRIVAL_WINDOW_S,
    ScenarioSimulator,
    WorldLayout,
)
from repro.sim.network import EndToEndNetwork
from repro.sim.traffic import MAX_ENVELOPE, DiurnalTraffic
from scalar_oracle import ChannelProcess

APPS = ("mar", "hvs", "rdc")

#: The two transport shapes: every catalog world has 3 paths.
TRANSPORTS = (TransportConfig(),
              TransportConfig(num_paths=2, path_extra_hops=(0, 1)))


def _network_cfg(transport: TransportConfig):
    return dataclasses.replace(ExperimentConfig().network,
                               transport=transport)


def _assert_same_rows(got, want, label) -> None:
    """Every column and every derived value, byte for byte."""
    assert_same_layout(got, want, label)
    for name in DERIVED:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (label, name)
        assert a.tobytes() == b.tobytes(), (label, name)


def _fresh_rows(network):
    """The rows of a network built fresh with ``network``'s attached
    slices, in their order, and nothing else."""
    return rows_for_network(EndToEndNetwork(
        network.cfg, slices=list(network.slices.values()),
        rng=np.random.default_rng(0)))


def _random_slot(rng: np.random.Generator, rows):
    r, width = rows.num_rows, int(rows.users.max()) + 1
    return (kernels.WorldConditions.nominal(1),
            rng.uniform(-0.1, 1.1, (r, NUM_ACTIONS)),
            rng.poisson(40.0, r) / 10.0,
            rng.integers(0, 16, (r, width)),
            rng.normal(0.0, 6.0, (r, width)))


_SLICE = st.tuples(st.sampled_from(APPS), st.floats(0.2, 2.0))


@given(st.integers(0, 2 ** 16), st.sampled_from(TRANSPORTS),
       st.lists(_SLICE, min_size=1, max_size=9),
       st.lists(st.tuples(st.booleans(), st.integers(0, 11), _SLICE),
                max_size=14),
       st.sampled_from(APPS))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_edited_network_rows_equal_fresh_builds(seed, transport, initial,
                                                churn, readd_app):
    """Random attaches and detaches by hand on a network of 1-9
    slices (no spare rows, so each one reshapes it): after every edit
    ``slot_rows()`` is a new layout (fresh ``uid``) equal to
    ``rows_for_network`` of the current slice set -- every column,
    every derived value, and the kernel's outputs byte for byte --
    including a slice that leaves and comes back as another app."""
    cfg = _network_cfg(transport)
    net = EndToEndNetwork(cfg, slices=[
        slice_spec_for_app(app, name=f"s{i}", arrival_scale=scale)
        for i, (app, scale) in enumerate(initial)],
        rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    seen = {net.slot_rows().uid}

    def check(label):
        rows = net.slot_rows()
        assert rows.uid not in seen, label
        seen.add(rows.uid)
        fresh = _fresh_rows(net)
        _assert_same_rows(rows, fresh, label)
        slot = _random_slot(rng, fresh)
        got, want = evaluate_rows(rows, *slot), evaluate_rows(fresh, *slot)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (label, key)

    for step, (attach, index, (app, scale)) in enumerate(churn):
        name = f"s{index}"
        if attach and name not in net.slices and len(net.slices) < 9:
            net.add_slice(slice_spec_for_app(app, name=name,
                                             arrival_scale=scale))
        elif not attach and name in net.slices and len(net.slices) > 1:
            net.remove_slice(name)
        else:
            continue
        check((seed, step))
    # a name re-added after it left, as another app
    name = net.slice_names[0]
    if len(net.slices) > 1:
        net.remove_slice(name)
        check((seed, "left"))
        net.add_slice(slice_spec_for_app(readd_app, name=name))
        check((seed, "re-added"))


def _arrivals(draws, horizon):
    """One background slice per pool name, arriving and leaving in
    back-to-back windows (a name comes back after it left, sometimes
    in the very slot it left)."""
    events = []
    for name, windows in draws.items():
        slot = 0
        for gap, length, app, scale, level in windows:
            start = slot + gap
            if start >= horizon - 1:
                break
            length = min(length, horizon - start)
            events.append(SliceArrival(
                at_fraction=start / horizon,
                duration_fraction=length / horizon, app=app,
                slice_name=name, arrival_scale=scale,
                action_level=level))
            slot = start + length
    return events


_WINDOW = st.tuples(st.integers(0, 3), st.integers(1, 5),
                    st.sampled_from(APPS), st.floats(0.2, 2.0),
                    st.floats(0.05, 1.0))


@given(st.integers(0, 2 ** 16), st.sampled_from(TRANSPORTS),
       st.lists(_SLICE, min_size=1, max_size=6),
       st.dictionaries(st.sampled_from(("c0", "c1", "c2")),
                       st.lists(_WINDOW, min_size=1, max_size=4)))
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_churned_world_layouts_stay_and_equal_fresh_builds(
        seed, transport, initial, draws):
    """A timeline of background slices over 1-6 managed ones: all
    episode long the network's rows, their ``uid`` and the episode's
    ``WorldLayout`` are the ones the first step saw, equal to a fresh
    ``WorldLayout(sim)``; after every step the attached rows are, in
    order, the rows of a network built fresh with the attached
    slices, and the episode's cumulative cost is the summed costs."""
    horizon = 16
    cfg = ExperimentConfig(
        slices=tuple(slice_spec_for_app(app, name=f"m{i}",
                                        arrival_scale=scale)
                     for i, (app, scale) in enumerate(initial)),
        traffic=TrafficConfig(slots_per_episode=horizon),
        network=_network_cfg(transport))
    sim = ScenarioSimulator(cfg, rng=np.random.default_rng(seed),
                            events=_arrivals(draws, horizon))
    network = sim.network
    rng = np.random.default_rng(seed)
    for episode in range(2):
        sim.reset()
        totals = dict.fromkeys(sim.slice_names, 0.0)
        rows = layout = None
        while not sim.done:
            results = sim.step({name: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                                for name in sim.slice_names})
            for name, result in results.items():
                totals[name] += result.cost
            label = (seed, episode, sim.slot)
            if rows is None:        # what the first step saw
                rows, layout = network.slot_rows(), sim._layout
            assert network.slot_rows() is rows and sim._layout is layout
            assert rows.active is network.active, label
            assert list(network.slices) == [
                spec.name for spec, on in zip(network.row_specs,
                                              network.active) if on]
            _assert_same_rows(attached_rows(rows), _fresh_rows(network),
                              label)
            fresh = WorldLayout(sim, layout.cum_cost)
            assert layout.names == fresh.names, label
            assert layout.managed_names == fresh.managed_names, label
            for name in ("managed", "fixed_actions", "lam_rows"):
                a, b = getattr(layout, name), getattr(fresh, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), \
                    (label, name)
                assert a.tobytes() == b.tobytes(), (label, name)
            assert layout.cum_cost.tolist() == list(totals.values()), \
                label
        assert rows.uid == network.slot_rows().uid


def test_a_fuzz_corpus_builds_each_networks_rows_once(monkeypatch):
    """Over a churning fuzz corpus, two episodes each:
    ``rows_for_network`` runs once per network built, churn adds no
    bundle splice (the same corpus without its arrivals splices as
    often: retirements only), no bank re-adoption and no
    ``WorldLayout`` beyond one per world and episode, and every
    timeline attach or detach is a row edit."""
    built, rows_calls, flips = [], [], []
    network_init = EndToEndNetwork.__init__
    fresh_rows = kernels.rows_for_network

    def counting_init(self, *args, **kwargs):
        built.append(self)
        network_init(self, *args, **kwargs)

    def counting_rows(network):
        rows_calls.append(network)
        return fresh_rows(network)

    def counting(flip):
        def call(self, event):
            flips.append(event.kind == "slice_arrival")
            return flip(self, event)
        return call

    monkeypatch.setattr(EndToEndNetwork, "__init__", counting_init)
    monkeypatch.setattr(kernels, "rows_for_network", counting_rows)
    for name in ("_activate", "_deactivate"):
        monkeypatch.setattr(ScenarioSimulator, name,
                            counting(getattr(ScenarioSimulator, name)))
    corpus = generate_corpus(5, 12, FuzzSpace(min_slots=8, max_slots=16))
    policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))

    def run(specs):
        batch = BatchSimulator([spec.build_simulator() for spec in specs])
        for _ in lockstep(batch, policy, episodes=2):
            pass
        return batch.counters

    counters = run(corpus)
    assert len(rows_calls) == len(built) == len(corpus)
    assert len({id(network) for network in rows_calls}) == len(rows_calls)
    assert counters["bank_readoptions"] == 0
    assert counters["layout_builds"] == 2 * len(corpus)
    assert 0 < counters["row_edits"] == sum(flips)

    calm = run([dataclasses.replace(spec, events=tuple(
        event for event in spec.events if event.kind != "slice_arrival"))
        for spec in corpus])
    assert calm["row_edits"] == 0
    assert counters["bundle_splices"] == calm["bundle_splices"] > 0
    assert counters["bundle_builds"] == calm["bundle_builds"] == 1


# ---- hostile timelines, held to worlds built fresh every slot ---------

HORIZON = 20

#: Timelines the catalog never writes, each over the three default
#: managed slices.
HOSTILE = {
    # every background slice departs: the last slots have every
    # spare row unattached
    "all_depart": (
        SliceArrival(at_fraction=0.0, duration_fraction=0.3, app="hvs",
                     slice_name="bg0", action_level=0.3),
        SliceArrival(at_fraction=0.25, duration_fraction=0.5, app="rdc",
                     slice_name="bg1", arrival_scale=0.8)),
    # a slice departs and a later event re-attaches its name
    "same_name_returns": (
        SliceArrival(at_fraction=0.1, duration_fraction=0.2,
                     slice_name="bg"),
        SliceArrival(at_fraction=0.5, duration_fraction=0.3, app="hvs",
                     slice_name="bg", action_level=0.4)),
    # listed latest first: "late" and "early" overlap and attach in
    # the reverse of the timeline's order, after "first" left a hole
    "reverse_overlap": (
        SliceArrival(at_fraction=0.5, duration_fraction=0.4,
                     slice_name="late", action_level=0.1),
        SliceArrival(at_fraction=0.2, duration_fraction=0.6, app="rdc",
                     slice_name="early"),
        SliceArrival(at_fraction=0.1, duration_fraction=0.2, app="hvs",
                     slice_name="first", arrival_scale=1.5)),
}


def _config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed, traffic=TrafficConfig(slots_per_episode=HORIZON))


def _actions(seed: int, managed: int):
    rng = np.random.default_rng(100 + seed)
    return [rng.uniform(0.0, 1.0, (managed, NUM_ACTIONS))
            for _ in range(HORIZON)]


def _fresh_world_episode(cfg: ExperimentConfig, events, actions):
    """One episode of a world whose rows are its attached slices and
    nothing else, built fresh every slot, on its own generator: slices
    attach in the order the timeline fires them (a per-channel
    process each, drawn on attach) and leave by being dropped; a slot
    is the channels' steps, one Poisson draw per attached slice, and
    the kernels over ``rows_for_network`` of a fresh network holding
    the attached slices.  Yields ``(names, out, rates)`` per slot,
    then the generator and the channels."""
    rng = np.random.default_rng(cfg.seed)
    users = cfg.network.users_per_slice
    attached = [(spec, ChannelProcess(users, rng), None)
                for spec in cfg.slices]
    traffic = DiurnalTraffic()
    envelopes = {spec.name: np.asarray(traffic.envelope(
        index, HORIZON, 0, cfg.traffic, rng), dtype=float).clip(
            0.0, MAX_ENVELOPE) for index, spec in enumerate(cfg.slices)}
    windows = [(event, event.start_slot(HORIZON), event.end_slot(HORIZON))
               for event in events]
    for slot in range(HORIZON):
        attached = [entry for entry in attached if entry[2] is None
                    or slot < entry[2][2]]
        for window in windows:
            event, start, _ = window
            if start == slot:
                spec = slice_spec_for_app(
                    event.app, name=event.slice_name,
                    arrival_scale=event.arrival_scale)
                attached.append((spec, ChannelProcess(users, rng), window))
        for _, channel, _ in attached:
            channel.step()
        counts = np.array([rng.poisson(
            (envelopes.get(spec.name, np.ones(HORIZON))[slot]
             * spec.max_arrival_rate) * ARRIVAL_WINDOW_S)
            for spec, _, _ in attached])
        rates = counts / ARRIVAL_WINDOW_S
        matrix = np.array([
            actions[slot][index] if window is None
            else np.full(NUM_ACTIONS, window[0].action_level)
            for index, (_, _, window) in enumerate(attached)])
        specs = [spec for spec, _, _ in attached]
        out = evaluate_rows(
            rows_for_network(EndToEndNetwork(
                cfg.network, slices=specs, rng=np.random.default_rng(0))),
            kernels.WorldConditions.nominal(1), matrix, rates,
            np.stack([channel.cqi for _, channel, _ in attached]),
            np.stack([channel.snr_db - channel.mean_snr_db
                      for _, channel, _ in attached]))
        yield [spec.name for spec in specs], out, rates
    yield rng, [channel for _, channel, _ in attached]


def _managed_rows(step, world):
    rows = step.rows_of(world)
    return [step.observations[rows].tobytes(), step.costs[rows].tobytes(),
            step.usages[rows].tobytes(), step.latencies[rows].tobytes()]


@pytest.mark.parametrize("timeline", sorted(HOSTILE))
def test_hostile_timelines_step_like_worlds_built_fresh(timeline):
    """Each hostile timeline, stepped alone: every slot's attached
    rows, in order, evaluate byte for byte like a world built fresh
    with the attached slices (kernel outputs and arrivals), and the
    generator and channels end where that world's do; stepped inside
    a 3-world batch beside two other worlds, it gives the same bytes,
    generator state and channels -- and neither engine splices,
    re-adopts or rebuilds anything for the churn."""
    seed = 7
    events = HOSTILE[timeline]
    cfg = _config(seed)
    actions = _actions(seed, len(cfg.slices))
    alone = ScenarioSimulator(cfg, rng=np.random.default_rng(seed),
                              events=events)
    engine = BatchSimulator([alone])
    engine.reset()
    network = alone.network
    reference = _fresh_world_episode(cfg, events, actions)
    rows, seen, expected = network.slot_rows(), [], []
    for slot in range(HORIZON):
        step, out, rates = engine.step_rows([actions[slot]])
        names, want, want_rates = next(reference)
        on = network.active
        assert [network.row_specs[r].name
                for r in np.flatnonzero(on)] == names, slot
        assert rates[on].tobytes() == want_rates.tobytes(), slot
        assert not rates[~on].any(), slot      # no arrivals unattached
        for key, column in want.items():
            assert out[key][on].tobytes() == column.tobytes(), (slot, key)
        seen.append((network.attached, on[network.first_spare:].tolist()))
        expected.append(_managed_rows(step, 0))
    generator, channels = next(reference)
    assert alone._rng.bit_generator.state == generator.bit_generator.state
    assert network.snr_db.tobytes() == np.stack(
        [channel.snr_db for channel in channels]).tobytes()
    assert network.slot_rows() is rows
    assert engine.counters["bundle_splices"] == 0
    assert engine.counters["bank_readoptions"] == 0
    assert engine.counters["layout_builds"] == 1
    assert engine.counters["row_edits"] == 2 * len(events) - sum(
        event.end_slot(HORIZON) >= HORIZON for event in events)

    # the timeline is as hostile as it says
    spare = [flags for _, flags in seen]
    if timeline == "all_depart":
        assert any(all(flags) for flags in spare) and not any(spare[-1])
    elif timeline == "same_name_returns":
        assert [spec.name for spec in network.row_specs[3:]] == ["bg", "bg"]
        assert [True, False] in spare and [False, True] in spare
    else:
        assert [spec.name for spec in network.row_specs[3:]] == [
            "first", "early", "late"]
        assert any(np.diff(rows).max() > 1 for rows, _ in seen)

    others = [scenarios.get(name) for name in ("default", "slice_churn")]
    others = [dataclasses.replace(spec, traffic_cfg=_config(3).traffic)
              for spec in others]
    sims = [others[0].build_simulator(rng=np.random.default_rng(1)),
            ScenarioSimulator(cfg, rng=np.random.default_rng(seed),
                              events=events),
            others[1].build_simulator(rng=np.random.default_rng(2))]
    batch = BatchSimulator(sims)
    batch.reset()
    streams = [np.random.default_rng(b) for b in range(3)]
    for slot in range(HORIZON):
        step = batch.step([
            actions[slot] if b == 1 else streams[b].uniform(
                0.0, 1.0, (len(sim.slice_names), NUM_ACTIONS))
            for b, sim in enumerate(sims)])
        assert _managed_rows(step, 1) == expected[slot], slot
        assert not batch._bundle.counts[~batch._bundle.rows.active].any()
    inside = sims[1]
    assert inside._rng.bit_generator.state == alone._rng.bit_generator.state
    assert inside.network.snr_db.tobytes() == network.snr_db.tobytes()
    assert inside.network.cqi.tobytes() == network.cqi.tobytes()
    assert batch.counters["bundle_splices"] == 0
    assert batch.counters["bank_readoptions"] == 0
    assert batch.counters["layout_builds"] == 3
