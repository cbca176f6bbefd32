"""What a decision core keeps from one slot to the next, and what it
builds only once.

A :class:`~repro.serve.service._Plan` keeps the pi_phi pass layout it
built last, keyed on the open-row mask (the rows the Eq. 8 latch does
not hold), and builds a new one only when that mask changes: when a
row latches or a cell re-arms.  The memoised passes must be the
layout :func:`~repro.serve.service._layout` builds fresh for the same
open rows, byte for byte.  A service builds its learned policies only
when first asked for them, and a core asks only the first cell routed
to each snapshot: the other cells never build theirs.  A snapshot with
a non-finite tensor is still refused by every service build.
"""

from __future__ import annotations

import dataclasses

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
    SlicingService,
    scenario_with_population,
    snapshot_onslicing,
)
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


@pytest.mark.parametrize("two_snapshots", [False, True])
def test_only_the_first_cell_of_a_snapshot_builds_policies(
        snapshot, builds, two_snapshots):
    """A core serves every cell of a snapshot from the first cell's
    policies: a 3-cell core of one snapshot builds each policy once,
    and a 4-cell core of two builds each once per snapshot."""
    snapshots = [snapshot] * 3
    if two_snapshots:
        other = dataclasses.replace(snapshot, name="cache-t")
        snapshots = [snapshot, other, snapshot, other]
    services = _services(snapshots, POPULATIONS + (3,))
    assert not builds
    core = DecisionCore(services)
    names = [service.slice_names for service in services]
    rows = sum(map(len, names))
    rng = np.random.default_rng(4)
    for _ in range(3):
        core.decide_rows(rng.uniform(0.0, 1.0, size=(rows, 9)), names)
    first = {}
    for cell, service in enumerate(services):
        first.setdefault(service.snapshot.name, cell)
    assert sorted(builds) == sorted(
        (name, policy) for name in first for policy in snapshot.policies)
    for cell, service in enumerate(services):
        assert (service._learned is not None) == \
            (cell in first.values()), cell


def test_a_standalone_service_builds_its_policies_on_its_first_decide(
        snapshot, builds):
    service = SlicingService(snapshot)
    assert not builds
    requests = [DecisionRequest(name, np.full(9, 0.2))
                for name in service.slice_names]
    service.decide(requests)
    assert sorted(policy for _, policy in builds) == \
        sorted(snapshot.policies)
    service.decide(requests)
    assert len(builds) == len(snapshot.policies)


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
