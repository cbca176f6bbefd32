"""What a decision core keeps from one slot to the next, and what it
builds only once.

A :class:`~repro.serve.service._Plan` keeps the pi_phi pass layout it
built last, keyed on the open-row mask (the rows the Eq. 8 latch does
not hold), and builds a new one only when that mask changes: when a
row latches or a cell re-arms.  The memoised passes must be the
layout :func:`~repro.serve.service._layout` builds fresh for the same
open rows, byte for byte.  A service holds no network: the core that
adopts it builds one set of learned policies per snapshot when it is
made, or takes over the set of the core the cell came from, and no
decide builds any.  A snapshot with a non-finite tensor is still
refused by every service build.
"""

from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig, TrafficConfig
from repro.experiments.harness import build_onslicing
from repro.scenarios import get as get_scenario
from repro.serve import (
    DecisionCore,
    DecisionRequest,
    LoadGenerator,
    SlicingService,
    scenario_with_population,
    snapshot_onslicing,
)
from repro.serve import service as service_module
from repro.serve.service import _LearnedPolicy, _layout

#: slices per cell of the 3-cell ``lte_fixed_mcs`` core: 1-, 4- and
#: 2-row groups per snapshot policy (the last ragged)
POPULATIONS = (3, 12, 4)


@pytest.fixture(scope="module")
def snapshot():
    cfg = ExperimentConfig(traffic=TrafficConfig(slots_per_episode=10),
                           seed=5)
    bundle = build_onslicing(cfg, offline_episodes=1,
                             exploration_episodes=1, seed=5)
    return snapshot_onslicing("cache-s", bundle, seed=5)


def _services(snapshots, populations=POPULATIONS):
    """One ``lte_fixed_mcs`` cell per snapshot, of its population."""
    return [SlicingService(snapshot, cfg=scenario_with_population(
        get_scenario("lte_fixed_mcs"), slices).build_config(
            seed=9 + index))
        for index, (snapshot, slices)
        in enumerate(zip(snapshots, populations))]


@pytest.fixture
def builds(monkeypatch):
    """``(snapshot name, policy name)`` per :class:`_LearnedPolicy`
    built."""
    built = []
    init = _LearnedPolicy.__init__

    def spy(policy, snapshot, name):
        built.append((snapshot.name, name))
        init(policy, snapshot, name)

    monkeypatch.setattr(_LearnedPolicy, "__init__", spy)
    return built


def _same_layout(got, want):
    assert len(got) == len(want)
    for (slabs, span, *arrays), (slabs_w, span_w, *arrays_w) in zip(
            got, want):
        assert slabs is slabs_w and span == span_w
        for array, array_w in zip(arrays, arrays_w):
            assert (array.dtype, array.shape) == \
                (array_w.dtype, array_w.shape)
            assert array.tobytes() == array_w.tobytes()


@given(seed=st.integers(0, 2 ** 16),
       slots=st.lists(st.tuples(st.floats(0.0, 3.0),
                                st.sampled_from((None, 0, 1, 2))),
                      min_size=1, max_size=24))
@settings(max_examples=30, deadline=None)
def test_memoised_passes_equal_a_fresh_layout(snapshot, seed, slots):
    """Slot by slot, with budgets crossed at random (``fill`` scales
    the cumulative-cost feature) and random cells re-armed before the
    slot, the passes a decide ran are the fresh layout of the rows open
    when it began, and a layout is built once per run of equal open
    masks.  The memo keeps only the last layout, so a mask that comes
    back after a re-arm is built again: the bound is the number of
    mask changes, not of distinct masks."""
    core = DecisionCore(_services([snapshot] * len(POPULATIONS)))
    names = [service.slice_names for service in core.services]
    rng = np.random.default_rng(seed)
    runs, last = 0, None
    for fill, rearm in slots:
        if rearm is not None:
            core.begin_episode(rearm)
        plan = core._route(core._everyone, names)
        open_ = ~core._latched[plan.slice_ids][plan.eq8_rows]
        states = rng.uniform(0.0, 1.0, size=(plan.rows, 9))
        states[:, 8] *= fill
        core.decide_rows(states, names)
        assert core._plan is plan
        key = open_.tobytes()
        runs += key != last
        last = key
        assert plan.open_key == key
        _same_layout(plan.passes, _layout(
            (slabs, position, np.flatnonzero(open_[span]) + span.start)
            for slabs, position, span in plan.posteriors))
    counters = core.counters
    assert counters["pass_layouts"] == runs <= counters["decide_calls"]


def test_the_layout_is_rebuilt_only_when_the_latch_moves(snapshot):
    """Not vacuous: over one episode whose budgets fill slot by slot,
    rows latch at several slots and a re-arm opens them again; each
    change is one layout, every other slot reuses the last."""
    core = DecisionCore(_services([snapshot] * len(POPULATIONS)))
    names = [service.slice_names for service in core.services]
    rng = np.random.default_rng(4)
    masks = []
    for slot in range(12):
        if slot == 8:
            core.begin_episode(1)
        plan = core._route(core._everyone, names)
        open_ = ~core._latched[plan.slice_ids][plan.eq8_rows]
        masks.append(open_.tobytes())
        states = rng.uniform(0.0, 1.0, size=(plan.rows, 9))
        states[:, 8] *= 0.2 * slot
        core.decide_rows(states, names)
    changes = 1 + sum(a != b for a, b in zip(masks, masks[1:]))
    assert 2 < changes < len(masks)
    assert core.counters["pass_layouts"] == changes


def _requests(service):
    return [DecisionRequest(name, np.full(9, 0.2))
            for name in service.slice_names]


@pytest.mark.parametrize("two_snapshots", [False, True])
def test_a_core_builds_each_snapshot_policy_once_when_made(
        snapshot, builds, two_snapshots):
    """A 3-cell core of one snapshot builds each policy once, and a
    4-cell core of two builds each once per snapshot -- all of it when
    the core is made; deciding builds nothing more."""
    snapshots = [snapshot] * 3
    if two_snapshots:
        other = dataclasses.replace(snapshot, name="cache-t")
        snapshots = [snapshot, other, snapshot, other]
    services = _services(snapshots, POPULATIONS + (3,))
    assert not builds
    core = DecisionCore(services)
    made = sorted(
        (name, policy) for name in {s.name for s in snapshots}
        for policy in snapshot.policies)
    assert sorted(builds) == made
    names = [service.slice_names for service in services]
    rows = sum(map(len, names))
    rng = np.random.default_rng(4)
    for _ in range(3):
        core.decide_rows(rng.uniform(0.0, 1.0, size=(rows, 9)), names)
    assert sorted(builds) == made


def test_a_standalone_service_builds_with_its_core_not_in_a_decide(
        snapshot, builds):
    """Building a service builds no network; its one-cell core builds
    them once, and neither decide builds more."""
    service = SlicingService(snapshot)
    assert not builds
    service.core
    assert sorted(policy for _, policy in builds) == \
        sorted(snapshot.policies)
    for _ in range(2):
        service.decide(_requests(service))
    assert len(builds) == len(snapshot.policies)


@pytest.mark.parametrize("flow", ["decide", "loadgen"])
def test_every_build_precedes_the_decides_clock(snapshot, monkeypatch,
                                                flow):
    """Deterministic, with no timing: every :class:`_LearnedPolicy`
    build is recorded before the first ``time.perf_counter`` read of
    the serving code, so no build is inside a timed batch -- for a
    standalone service's first decide and for a load-generator run,
    whose core is made before its first slot."""
    events = []
    init = _LearnedPolicy.__init__

    def build(policy, snapshot, name):
        events.append("build")
        init(policy, snapshot, name)

    def clock():
        events.append("clock")
        return time.perf_counter()

    monkeypatch.setattr(_LearnedPolicy, "__init__", build)
    monkeypatch.setattr(service_module, "time",
                        SimpleNamespace(perf_counter=clock))
    if flow == "decide":
        service = SlicingService(snapshot)
        service.decide(_requests(service))
    else:
        LoadGenerator(snapshot, "lte_fixed_mcs", slices=3,
                      seed=2).run(max_decisions=6)
    assert events.count("build") == len(snapshot.policies)
    assert "clock" in events
    assert events.index("clock") > max(
        at for at, event in enumerate(events) if event == "build")


def test_a_second_run_of_a_generator_builds_nothing(snapshot, builds):
    """Each run makes a new core over the generator's service; the
    second takes the first's networks over, as it takes the latch."""
    generator = LoadGenerator(snapshot, "lte_fixed_mcs", slices=3,
                              seed=2)
    for _ in range(2):
        generator.run(max_decisions=6)
    assert sorted(policy for _, policy in builds) == \
        sorted(snapshot.policies)


@pytest.mark.parametrize("standalone_first", [True, False])
def test_an_adopted_standalone_cell_brings_its_networks(
        snapshot, builds, standalone_first):
    """A service that decided alone, then adopted by a 2-cell core
    beside a fresh cell of the same snapshot: the core takes the
    standalone core's networks, in either cell order, and builds
    none of its own."""
    alone, fresh = _services([snapshot] * 2, POPULATIONS[:2])
    alone.decide(_requests(alone))
    assert len(builds) == len(snapshot.policies)
    slabs = alone.core._slabs[id(snapshot)]
    cells = [alone, fresh] if standalone_first else [fresh, alone]
    core = DecisionCore(cells)
    names = [service.slice_names for service in cells]
    core.decide_rows(np.full((sum(map(len, names)), 9), 0.2), names)
    assert len(builds) == len(snapshot.policies)
    assert core._slabs == {id(snapshot): slabs}


@pytest.mark.parametrize("part", ["model", "estimator"])
def test_a_non_finite_snapshot_is_refused_by_every_service_build(
        snapshot, builds, part):
    """Building policies lazily does not defer the check: each cell's
    service build refuses the snapshot, naming the ref, the policy and
    the tensor, before any policy is built."""
    policies = {name: dict(payload)
                for name, payload in snapshot.policies.items()}
    tensors = dict(policies["MAR"][part])
    tensor = list(tensors)[-1]
    tensors[tensor] = tensors[tensor].copy()
    tensors[tensor].flat[0] = np.nan
    policies["MAR"][part] = tensors
    poisoned = dataclasses.replace(snapshot, policies=policies)
    for slices in POPULATIONS:
        with pytest.raises(ValueError) as excinfo:
            _services([poisoned], (slices,))
        message = str(excinfo.value)
        assert poisoned.ref in message and "'MAR'" in message
        assert f"{part} tensor {tensor!r} is not finite" in message
    assert not builds
