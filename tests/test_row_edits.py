"""Churn is a row edit: a network's row layout follows slice churn
column by column, and equals what a fresh build would give.

``EndToEndNetwork.slot_rows()`` is built once (``rows_for_network``)
and then edited by every ``add_slice`` / ``remove_slice``
(``SliceRows.append`` / ``SliceRows.delete``); a simulator's
``WorldLayout`` is rebuilt from those rows when its timeline churns.
These properties hold both to fresh builds, byte for byte, and count
what a fuzz corpus builds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import assert_same_layout
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
from repro.sim.env import ARRIVAL_WINDOW_S, ScenarioSimulator, WorldLayout
from repro.sim.network import EndToEndNetwork

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
    """Random attaches and detaches on a network of 1-9 slices: after
    every edit ``slot_rows()`` is a new layout (fresh ``uid``) equal to
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
        fresh = rows_for_network(net)
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
def test_edited_world_layouts_equal_fresh_builds(seed, transport,
                                                 initial, draws):
    """A timeline of background slices over 1-6 managed ones: after
    every step the episode's ``WorldLayout`` reads the network's
    edited rows and equals a fresh ``WorldLayout(sim)`` -- kernel
    rows, intensity table, managed mask, fixed actions -- with the
    episode's cumulative cost carried over every churn; the network's
    rows equal a fresh build."""
    horizon = 16
    cfg = ExperimentConfig(
        slices=tuple(slice_spec_for_app(app, name=f"m{i}",
                                        arrival_scale=scale)
                     for i, (app, scale) in enumerate(initial)),
        traffic=TrafficConfig(slots_per_episode=horizon),
        network=_network_cfg(transport))
    sim = ScenarioSimulator(cfg, rng=np.random.default_rng(seed),
                            events=_arrivals(draws, horizon))
    rng = np.random.default_rng(seed)
    for episode in range(2):
        sim.reset()
        totals = dict.fromkeys(sim.slice_names, 0.0)
        while not sim.done:
            results = sim.step({name: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                                for name in sim.slice_names})
            for name, result in results.items():
                totals[name] += result.cost
            layout = sim._layout
            label = (seed, episode, sim.slot)
            _assert_same_rows(sim.network.slot_rows(),
                              rows_for_network(sim.network), label)
            fresh = WorldLayout(sim, layout.cum_cost)
            assert layout.rows is sim.network.slot_rows(), label
            assert layout.names == fresh.names, label
            assert layout.managed_names == fresh.managed_names, label
            assert layout.churn_count == fresh.churn_count, label
            for name in ("managed", "fixed_actions", "lam_rows"):
                a, b = getattr(layout, name), getattr(fresh, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape), \
                    (label, name)
                assert a.tobytes() == b.tobytes(), (label, name)
            assert layout.cum_cost.tolist() == list(totals.values()), \
                label


def test_a_fuzz_corpus_builds_each_networks_rows_once(monkeypatch):
    """Over a churning fuzz corpus, two episodes each:
    ``rows_for_network`` runs at most once per network built (churn
    and resets edit the rows), one ``WorldLayout`` is built per world
    and episode plus at most one per attach or detach, and every
    attach or detach is a row edit."""
    built, rows_calls = [], []
    network_init = EndToEndNetwork.__init__
    fresh_rows = kernels.rows_for_network

    def counting_init(self, *args, **kwargs):
        built.append(self)
        network_init(self, *args, **kwargs)

    def counting_rows(network):
        rows_calls.append(network)
        return fresh_rows(network)

    monkeypatch.setattr(EndToEndNetwork, "__init__", counting_init)
    monkeypatch.setattr(kernels, "rows_for_network", counting_rows)
    corpus = generate_corpus(5, 12, FuzzSpace(min_slots=8, max_slots=16))
    sims = [spec.build_simulator() for spec in corpus]
    arrivals = sum(event.kind == "slice_arrival"
                   for spec in corpus for event in spec.events)
    assert arrivals > 0                     # the corpus churns
    batch = BatchSimulator(sims)
    policy = ConstantBatchPolicy(np.full(NUM_ACTIONS, 0.25))
    for _ in lockstep(batch, policy, episodes=2):
        pass

    assert len(rows_calls) <= len(built)
    assert len({id(network) for network in rows_calls}) == len(rows_calls)
    counters = batch.counters
    assert 0 < counters["row_edits"] \
        <= sum(sim.network.churn_count for sim in sims)
    assert 2 * len(sims) < counters["layout_builds"] \
        <= 2 * len(sims) + counters["row_edits"]


def test_a_trace_edited_after_churn_reaches_the_next_layout():
    """A churn replaces the episode's trace block: a trace read after
    the churn (or assigned) writes the episode's traces, and the next
    layout reads it; a view read before the churn no longer does."""
    horizon = 12
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=horizon))
    sim = ScenarioSimulator(cfg, rng=np.random.default_rng(3), events=[
        SliceArrival(at_fraction=0.25, duration_fraction=0.5)])
    sim.reset()
    name = sim.slice_names[0]
    stale = sim._traces[name]
    actions = {n: np.full(NUM_ACTIONS, 0.25) for n in sim.slice_names}
    while "churn" not in sim.network.slices:
        sim.step(actions)
    assert not np.shares_memory(stale, sim._traces.block)

    sim._traces[name][6:] = 0.5                 # read after the churn
    other = sim.slice_names[1]
    sim._traces[other] = np.full(horizon, 0.25)  # assigned
    layout = WorldLayout(sim, sim._layout.cum_cost)
    rates = sim.network.slot_rows().max_arrival
    for edited in (name, other):
        row = layout.names.index(edited)
        assert layout.lam_rows[:, row].tolist() == (
            (sim._traces[edited] * rates[row]) * ARRIVAL_WINDOW_S).tolist()
    assert sim._traces[name][6:].tolist() == [0.5] * (horizon - 6)
    assert sim._traces[other].tolist() == [0.25] * horizon
