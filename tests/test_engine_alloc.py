"""Kernel-arena lifecycle and zero-allocation guards.

The arena's contract (:mod:`repro.engine.arena`) has three legs:

* **zero steady-state allocations** -- once a
  :class:`~repro.engine.batch.BatchSimulator` is warmed, a slot
  evaluation allocates no heap arrays from the kernel or arena
  modules (tracemalloc over numpy's data-buffer domain);
* **layout-keyed rebuilds** -- the pools survive unchanged across
  steady slots and are dropped exactly when slice churn swaps the row
  layout;
* **rebuilds are invisible** -- a world that churned mid-episode stays
  bit-identical to a fresh scalar simulator replaying the same action
  stream, in a mixed-size batch.

These are tier-1: an allocation creeping back into the hot path is a
perf regression the benchmarks would only catch later and noisier.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro import scenarios
from repro.config import NUM_ACTIONS
from repro.engine import BatchSimulator, KernelArena
from repro.engine import arena as arena_module
from repro.engine import kernels as kernels_module

#: numpy >= 1.26 registers its data buffers in this tracemalloc
#: domain, separating array storage from interpreter allocations.
NUMPY_TRACEMALLOC_DOMAIN = 389047

#: Allocations are attributed by traceback: only frames inside these
#: modules count against the arena's zero-allocation contract.
ARENA_SCOPE = (os.path.abspath(kernels_module.__file__),
               os.path.abspath(arena_module.__file__))


def _build_sim(name, seed=None):
    spec = scenarios.get(name)
    cfg = spec.build_config(seed=seed)
    return spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))


def _constant_actions(batch):
    return [np.full((len(batch.slice_names(b)), NUM_ACTIONS), 0.25)
            for b in range(batch.num_worlds)]


def _kernel_allocations(batch, actions, slots):
    """Heap array allocations attributed to kernels/arena frames."""
    tracemalloc.start(10)
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(slots):
            batch.step(actions)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    filters = [tracemalloc.DomainFilter(
        True, NUMPY_TRACEMALLOC_DOMAIN)]
    leaks = []
    for diff in after.filter_traces(filters).compare_to(
            before.filter_traces(filters), "traceback"):
        if diff.count_diff <= 0:
            continue
        if {frame.filename for frame in diff.traceback} \
                & set(ARENA_SCOPE):
            leaks.append((diff.count_diff,
                          diff.traceback.format()[-2:]))
    return leaks


class TestArenaUnit:
    def test_take_reuses_buffers_in_request_order(self):
        a = KernelArena()
        a.begin("layout")
        first = [a.take((4, 2)), a.take((4, 2)), a.take(3)]
        a.begin("layout")
        second = [a.take((4, 2)), a.take((4, 2)), a.take(3)]
        for x, y in zip(first, second):
            assert x is y
        assert a.rebuilds == 1

    def test_key_change_drops_pools(self):
        a = KernelArena()
        a.begin(("rows", 1))
        old = a.take((2, 2))
        a.static("mask", lambda: np.ones(2, dtype=bool))
        a.begin(("rows", 2))
        assert a.take((2, 2)) is not old
        calls = []
        a.static("mask", lambda: calls.append(1) or np.zeros(1))
        assert calls == [1], "statics must rebuild on a key change"
        assert a.rebuilds == 2

    def test_static_builds_once_per_layout(self):
        a = KernelArena()
        a.begin("k")
        calls = []
        build = lambda: calls.append(1) or np.arange(3)  # noqa: E731
        first = a.static("hoisted", build)
        a.begin("k")
        assert a.static("hoisted", build) is first
        assert calls == [1]

    def test_dtype_tiers(self):
        assert KernelArena().take(2).dtype == np.float64
        assert KernelArena().take(2, bool).dtype == np.bool_


class TestZeroAllocationSteadyState:
    def test_warmed_batch_step_allocates_nothing(self):
        batch = BatchSimulator([_build_sim("default"),
                                _build_sim("six_slices")])
        batch.reset()
        actions = _constant_actions(batch)
        for _ in range(3):                          # warm the arena
            batch.step(actions)
        leaks = _kernel_allocations(batch, actions, slots=4)
        assert not leaks, (
            "arena path allocated heap arrays in steady state:\n"
            + "\n".join(f"{count}x via {site}"
                        for count, site in leaks))

    def test_steady_slots_never_rebuild(self):
        batch = BatchSimulator([_build_sim("default")])
        batch.reset()
        actions = _constant_actions(batch)
        batch.step(actions)
        rebuilds = batch._arena.rebuilds
        for _ in range(5):
            batch.step(actions)
        assert batch._arena.rebuilds == rebuilds


class TestChurnRebuildParity:
    """Mid-episode churn rebuilds rows + arena with identical bits."""

    NAMES = ["default", "slice_churn", "six_slices"]

    def _scalar_reference(self, name, slots):
        sim = _build_sim(name)
        sim.reset()
        rng = np.random.default_rng(321)
        out = []
        for _ in range(slots):
            actions = {n: rng.uniform(0.0, 1.0, NUM_ACTIONS)
                       for n in sim.slice_names}
            results = sim.step(actions)
            out.append({n: (tuple(results[n].observation.vector()),
                            results[n].cost, results[n].usage)
                        for n in sim.slice_names})
        return out

    def test_churn_rebuilds_arena_bit_identically(self):
        sims = [_build_sim(name) for name in self.NAMES]
        churn_sim = sims[self.NAMES.index("slice_churn")]
        slots = int(0.5 * churn_sim.horizon)  # churn fires at 0.3
        expected = {name: self._scalar_reference(name, slots)
                    for name in self.NAMES}

        batch = BatchSimulator(sims)
        batch.reset()
        rngs = [np.random.default_rng(321) for _ in sims]
        rebuild_curve = []
        for _ in range(slots):
            actions = [{n: rngs[b].uniform(0.0, 1.0, NUM_ACTIONS)
                        for n in sims[b].slice_names}
                       for b in range(len(sims))]
            step = batch.step(actions)
            rebuild_curve.append(batch._arena.rebuilds)
            for b, name in enumerate(self.NAMES):
                rows = step.rows_of(b)
                want = expected[name].pop(0)
                for j, slice_name in enumerate(step.names[b]):
                    obs, cost, usage = want[slice_name]
                    assert tuple(step.observations[rows][j]) == obs, \
                        f"{name}/{slice_name} diverged post-churn"
                    assert float(step.costs[rows][j]) == cost
                    assert float(step.usages[rows][j]) == usage

        # The arena rebuilt when the churn slice attached (layout
        # change) and at no other point mid-run.
        assert rebuild_curve[-1] > rebuild_curve[0], \
            "slice churn never triggered an arena rebuild"
        changes = sum(1 for a, b in zip(rebuild_curve,
                                       rebuild_curve[1:]) if b != a)
        assert changes == 1

    def test_churned_layout_reaches_steady_state_again(self):
        sim = _build_sim("slice_churn")
        batch = BatchSimulator([sim])
        batch.reset()
        churn_slot = int(0.3 * sim.horizon)
        for _ in range(churn_slot + 2):   # cross the churn boundary
            batch.step([{n: np.full(NUM_ACTIONS, 0.3)
                         for n in sim.slice_names}])
        actions = [{n: np.full(NUM_ACTIONS, 0.3)
                    for n in sim.slice_names}]
        batch.step(actions)               # warm the post-churn layout
        leaks = _kernel_allocations(batch, actions, slots=3)
        assert not leaks, (
            "post-churn arena failed to reach zero-allocation "
            "steady state: " + repr(leaks))


class TestArenaReturnOwnership:
    def test_evaluate_results_are_arena_owned(self):
        """Consumers must copy kernel outputs before the next pass --
        pinned here so the contract is explicit."""
        sim = _build_sim("default")
        batch = BatchSimulator([sim])
        batch.reset()
        actions = [{n: np.full(NUM_ACTIONS, 0.3)
                    for n in sim.slice_names}]
        batch.step(actions)
        first = batch._arena
        batch.step(actions)
        assert batch._arena is first

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            BatchSimulator([_build_sim("default")], engine="turbo")
