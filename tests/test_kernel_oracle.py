"""The paired-column slot kernel against the kernel it replaced.

``repro.engine.kernels.evaluate_rows`` evaluates UL / DL, the core
and edge queueing laws and MAR's two M/M/1 legs as column pairs, over
per-layout masks built with the :class:`SliceRows`.  Its contract is
*no bit moved*: every output array, sign bits included, must be
byte-equal to the one-direction kernel kept verbatim in
``tests/kernel_oracle.py`` (but its ``path_loads``, which the kernel
no longer returns: nothing read it), over random row bundles far
outside the catalog (1-96 worlds of 1-9 mixed slices, ragged user
counts inside a wider channel block, fixed MCS on and off, 1-3 SGW-U
instances and paths, dead links, stalled SGW-Us, idle edges, a zero
capacity scale, background load, and actions at ``-0.0``, ``0``,
``1``, ``1e-4`` and outside ``[0, 1]``).  The warnings the two raise
are compared too, so the error scopes did not move either.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import evaluate_rows as oracle_evaluate_rows
from kernel_oracle import assert_same_layout, parent_rows, rows_from_fields
from kernel_probe import attached_rows
from repro import scenarios
from repro.config import NUM_ACTIONS
from repro.engine import batch
from repro.engine.kernels import (
    SliceRows,
    WorldConditions,
    concat_rows,
    evaluate_rows,
    splice_rows,
)
from repro.sim.phy import NUM_CQI, NUM_MCS

#: Action values at the decode's edges: signed zero, the bounds, a
#: share under the PRB floor's 1e-3 test, just past the bounds.
_EDGE_ACTIONS = np.array([-0.0, 0.0, 1.0, 1e-4, -1e-4, 1.0 + 1e-12,
                          -3.0, 7.5])


def _world(rng: np.random.Generator, max_slices: int,
           bank: int) -> SliceRows:
    """One random world's rows, one keyword per column."""
    n = int(rng.integers(1, max_slices + 1))
    paths = int(rng.integers(1, 4))

    def const(value, dtype=np.float64):
        return np.full(n, value, dtype=dtype)

    def pair(uplink, downlink):
        return np.full((n, 2), (uplink, downlink), dtype=np.float64)

    def maybe_zero(value, p=0.15):
        return 0.0 if rng.random() < p else value

    app = rng.integers(0, 3, n)
    bits = rng.choice([0.0, 1e3, 4e3, 8e3, 1.4e5, 8e5], size=(n, 2))
    target = np.choose(app, [rng.uniform(50, 800, n),
                             rng.uniform(10, 60, n),
                             rng.uniform(0.9, 0.99999, n)])
    link = maybe_zero(float(rng.choice([1e8, 1e9, 2.5e9])))
    return rows_from_fields(
        names=[f"s{i}" for i in range(n)],
        metrics=["m"] * n,
        world=np.zeros(n, dtype=np.intp),
        num_worlds=1,
        app=app.astype(np.intp),
        max_arrival=rng.uniform(1, 100, n),
        payload_bits=bits,
        sum_bits=bits[:, 0] + bits[:, 1],
        compute_units=rng.choice([0.0, 0.05, 1.0, 2.5], size=n),
        sla_target=target,
        cost_threshold=const(0.05),
        lower_better=app == 0,
        prbs_total=pair(*rng.integers(10, 120, 2)),
        prb_bandwidth_hz=const(rng.choice([180e3, 360e3])),
        duty=pair(*rng.uniform(0.2, 0.7, 2)),
        overhead=const(rng.uniform(0.0, 0.3)),
        fixed_mcs=const(int(rng.integers(0, NUM_MCS))
                        if rng.random() < 0.4 else -1, dtype=np.intp),
        ran_base_latency_ms=const(rng.uniform(1, 12)),
        base_retx=pair(*rng.uniform(0.005, 0.4, 2)),
        bler_decay=pair(*rng.uniform(0.3, 0.95, 2)),
        link_capacity_bps=const(link),
        hop_latency_ms=const(rng.uniform(0.1, 2.0)),
        num_paths=const(paths, dtype=np.intp),
        path_hops=rng.integers(1, 6, (1, paths)).astype(np.intp),
        link_capacity_w=np.asarray([link]),
        sgwu_capacity_pps=const(maybe_zero(rng.uniform(1e3, 4e5))),
        num_sgwu=const(int(rng.integers(1, 4)), dtype=np.intp),
        core_base_latency_ms=const(rng.uniform(0.5, 4)),
        mean_packet_bits=const(rng.choice([1.2e4, 4e3])),
        edge_capacity_ups=const(maybe_zero(rng.uniform(5, 80))),
        total_ram_gb=const(rng.choice([0.5, 4.0, 32.0])),
        ram_gb_per_ups=const(rng.uniform(0.05, 1.0)),
        users=const(int(rng.integers(1, bank + 1)), dtype=np.intp),
    )


def _slot(rng: np.random.Generator, rows: SliceRows, bank: int):
    """Random conditions, actions, rates and channel block for
    ``rows``; the padded lanes hold junk the kernels must not read."""
    r, w = rows.num_rows, rows.num_worlds
    cond = WorldConditions(
        capacity_scale=rng.choice([0.0, 0.35, 1.0, rng.uniform()],
                                  size=w),
        extra_latency_ms=rng.choice([0.0, rng.uniform(0, 20)], size=w),
        background_load_fraction=rng.choice([0.0, 0.6, rng.uniform()],
                                            size=w))
    actions = rng.uniform(-0.25, 1.25, (r, NUM_ACTIONS))
    edges = rng.random((r, NUM_ACTIONS)) < 0.3
    actions[edges] = rng.choice(_EDGE_ACTIONS, size=int(edges.sum()))
    # whole rows at one edge value (all -0.0: Eq. 9 usage stays +0.0)
    for row in rng.choice(r, size=min(r, 2), replace=False):
        actions[row] = rng.choice(_EDGE_ACTIONS)
    rates = rng.poisson(rng.choice([0.0, 2.0, 40.0, 400.0], size=r)) \
        / rng.choice([1.0, 10.0])
    cqi = rng.integers(0, NUM_CQI + 1, (r, bank)).astype(np.intp)
    margin = rng.normal(0.0, 6.0, (r, bank))
    return cond, actions, rates, cqi, margin


def _evaluate(kernel, rows, *slot):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kernel(rows, *slot)
    return out, {str(w.message) for w in caught}


def _assert_bytes_equal(got, want):
    assert got.keys() == want.keys() - {"path_loads"}
    for key in got:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), (key, a, b)


@st.composite
def _bundles(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    worlds = draw(st.integers(1, 96))
    max_slices = draw(st.integers(1, 9))
    bank = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    rows = concat_rows([_world(rng, max_slices, bank)
                        for _ in range(worlds)])
    # the channel block may be wider than every world in the bundle
    return rows, _slot(rng, rows, bank + draw(st.integers(0, 2)))


@given(_bundles())
@settings(max_examples=120, deadline=None)
def test_every_output_is_the_parent_kernels_bit_for_bit(bundle):
    rows, slot = bundle
    got, got_warnings = _evaluate(evaluate_rows, rows, *slot)
    want, want_warnings = _evaluate(oracle_evaluate_rows,
                                    parent_rows(rows), *slot)
    _assert_bytes_equal(got, want)
    assert got_warnings == want_warnings


def _worlds_of(cond: WorldConditions, lo: int, hi: int,
               copies: int = 1) -> WorldConditions:
    return WorldConditions(*(
        np.tile(getattr(cond, spec.name)[lo:hi], copies)
        for spec in dataclasses.fields(WorldConditions)))


@given(_bundles(), st.data())
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spliced_and_repeated_bundles_evaluate_like_their_worlds(
        bundle, data):
    """``splice_rows`` / ``concat_rows`` / ``repeat`` carry the paired
    ``(2, R)`` rows and re-derive the per-layout masks: a run of
    worlds spliced out evaluates exactly as inside the whole bundle,
    a splice of the runs back together is the bundle, and ``n``
    copies of a world are ``n`` independent testbeds."""
    rows, (cond, actions, rates, cqi, margin) = bundle
    count = rows.num_worlds
    whole = evaluate_rows(rows, cond, actions, rates, cqi, margin)
    lo = data.draw(st.integers(0, count - 1))
    hi = data.draw(st.integers(lo + 1, count))
    part = splice_rows([(rows, lo, hi)])
    picked = slice(*np.searchsorted(rows.world, (lo, hi)))
    alone = evaluate_rows(part, _worlds_of(cond, lo, hi),
                          actions[picked], rates[picked], cqi[picked],
                          margin[picked])
    for key, column in whole.items():
        assert alone[key].tobytes() == column[picked].tobytes(), key

    runs = ([(rows, 0, lo)] if lo else []) + [(part, 0, hi - lo)] + (
        [(rows, hi, count)] if hi < count else [])
    assert_same_layout(splice_rows(runs), rows)

    one = splice_rows([(rows, lo, lo + 1)])
    n = data.draw(st.integers(1, 4))
    copies = one.repeat(n)
    assert_same_layout(copies, concat_rows([one] * n))
    assert copies.prbs_total.shape == (2, n * one.num_rows)
    own = slice(*np.searchsorted(rows.world, (lo, lo + 1)))
    slot = (_worlds_of(cond, lo, lo + 1, n),) + tuple(
        np.tile(a, (n,) + (1,) * (a.ndim - 1))
        for a in (actions[own], rates[own], cqi[own], margin[own]))
    out = evaluate_rows(copies, *slot)
    _assert_bytes_equal(out, oracle_evaluate_rows(parent_rows(copies),
                                                  *slot))
    for key, column in out.items():
        assert column.reshape(n, -1).tobytes() == np.tile(
            whole[key][own], n).tobytes(), key


@pytest.mark.parametrize("scenario", ["default", "lte_fixed_mcs",
                                      "transport_brownout",
                                      "slice_churn"])
def test_catalog_episodes_step_the_parent_kernels_bits(scenario,
                                                        monkeypatch):
    """Every kernel call of a short catalog episode -- the stepper's
    own rows, channel block, fabric conditions, churn and events --
    against the parent kernel on the same inputs, over the attached
    rows: the parent kernel knows no unattached row, so it evaluates
    the attached rows alone, and they must come out byte for byte as
    they do beside the unattached ones."""
    calls = []

    def checked(rows, cond, actions, rates, cqi, margin):
        got = evaluate_rows(rows, cond, actions, rates, cqi, margin)
        on = rows.active
        want = oracle_evaluate_rows(parent_rows(attached_rows(rows)),
                                    cond, actions[on], rates[on],
                                    cqi[on], margin[on])
        _assert_bytes_equal({key: column[on] for key, column
                             in got.items()}, want)
        calls.append(rows.num_rows - int(on.sum()))   # unattached
        return got

    monkeypatch.setattr(batch, "evaluate_rows", checked)
    spec = scenarios.get(scenario)
    cfg = spec.build_config(seed=3)
    sim = spec.build_simulator(cfg, rng=np.random.default_rng(cfg.seed))
    sim.reset()
    rng = np.random.default_rng(11)
    while not sim.done:
        sim.step({name: rng.uniform(-0.1, 1.1, NUM_ACTIONS)
                  for name in sim.slice_names
                  if name not in sim.background_slice_names})
    assert len(calls) == cfg.traffic.slots_per_episode
    # the churn slice's row is there, unattached, for part of it
    assert any(calls) == (scenario == "slice_churn")
