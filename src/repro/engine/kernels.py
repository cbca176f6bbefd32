"""Vectorised slot kernels: the paper's MDP as flat array math.

This module is the one numeric model of the testbed: the only code
under ``src/`` that turns (allocation, traffic, channel, fabric
conditions) into a performance number.  It evaluates one configuration
slot for ``R`` (world, slice) *rows* at once; :mod:`repro.sim` holds
the state and configuration it reads (channels, fabric conditions and
path hops, PHY parameters and tables, slice specs) and none of the
arithmetic.  The per-slice scalar pipeline these kernels were
extracted from survives, verbatim, as their test oracle
(``tests/scalar_oracle.py``); the stage comments below name the oracle
function each stage reproduces.  A row bundle may hold one world's
slices (the scalar :class:`~repro.sim.env.ScenarioSimulator`, which
routes its ``step`` through these kernels with ``R = S``) or every
slice of every world in a :class:`~repro.engine.batch.BatchSimulator`
(``R = sum_b S_b``).

Parity contract
---------------
Every kernel replicates the *operation order* of the historical scalar
code (association of sums/products, clip bounds, branch structure,
reduction order for the small per-slice user populations), so a row
evaluated alone is bit-identical to the same row evaluated inside a
larger batch: numpy elementwise ufuncs are value-deterministic
regardless of array length, and the only cross-row reductions
(transport path loads) accumulate with ``np.add.at`` in row order --
the same order the scalar loop reserved meters in.  The engine parity
suite (``tests/test_engine.py``) asserts this bit-exactness against
the scalar simulator for every catalog scenario, and its
``TestScalarDomainModelsMatchKernels`` holds ``evaluate_rows`` to the
scalar oracle itself (``rtol=1e-9``; observed <= 3e-16).

Arena discipline
~~~~~~~~~~~~~~~~
Every temporary is drawn from a :class:`~repro.engine.arena
.KernelArena` and written through ``out=`` ufunc arguments, so a
warmed arena serves the whole pass with zero heap array allocations
(``tests/test_engine_alloc.py``).  None of this changes any computed
bit, because the rewrites are limited to:

* **out= placement.** An elementwise ufunc produces the same bits no
  matter which buffer receives the result; chains like
  ``eff * (1 - retx) / (1 + retx)`` keep their exact association and
  merely reuse buffers between steps.
* **Selection, not arithmetic.** ``np.where(c, a, b)`` becomes
  ``copyto(out, b); copyto(out, a, where=c)`` -- a pure element
  selection, identical for every value including ``inf``/``nan``.
* **Masked strict-order sums.** The scalar-mirroring left-to-right
  accumulations (user axis, SGW-U instances) replace ``+ np.where(m,
  v, 0.0)`` with ``np.add(acc, v, out=acc, where=m)``.  Skipping a
  masked lane is bit-identical to adding ``0.0`` here: accumulators
  start at ``+0.0`` and every summand is non-negative, so ``acc +
  0.0 == acc`` exactly (no ``-0.0`` can arise).
* **Masked max.** ``np.where(mask, goodput, -inf).max(axis=1)``
  becomes ``np.max(goodput, axis=1, initial=-inf, where=mask)`` --
  the same elements enter the same max reduction (goodput is always
  finite: retx is clipped to ``[1e-9, 0.99]``).
* **Gathers.** Fancy-indexed lookups (MCS table, per-world scalars,
  path loads/hops) become ``np.take(..., out=)`` over the identical
  flat row-major indices.

Fusions
~~~~~~~
The fused chains below eliminate redundant *passes*, never reassociate
a float expression; each is bit-exact for the stated reason:

* ``-margin_db / 6.0`` is computed as ``margin_db / -6.0`` (IEEE sign
  manipulation is exact: both equal ``-(margin_db / 6.0)`` bitwise).
* The per-user retx margin factor ``10 ** (-margin_db / 6)`` and the
  MCS base table (``clip(2*cqi - 2)`` overridden by ``fixed_mcs``)
  are direction-independent, so they are computed once and shared by
  the uplink and downlink radio passes (the historical code evaluated
  the identical expression twice).
* ``msg_bps`` in the RDC model reuses the MAR ``ul_demand`` buffer:
  both are exactly ``rates * ul_bits``.
* Multiplications by the literal ``1.0`` (edge ``work_rate * 1.0``,
  edge service time ``* 1.0``, and the ``* np.ones((1, P))``
  broadcast in the transport load seed) are dropped: ``x * 1.0 == x``
  bitwise for every float, so the seed is a broadcast copy.
* Row constants derived from static :class:`SliceRows` fields
  (``1 - overhead``, float casts of the integer ``users`` /
  ``num_paths`` / ``num_sgwu`` columns, app masks, padded-user masks)
  are cached per layout via :meth:`KernelArena.static`; integer ->
  float64 casts of these small counts are exact, and numpy performs
  the identical promotion inside the historical mixed-dtype
  expressions.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.config import (
    MAX_MCS_OFFSET,
    NUM_ACTIONS,
    USAGE_ACTION_INDICES,
)
from repro.engine.arena import KernelArena
from repro.obs.profile import begin as _profile_begin
from repro.sim.phy import MCS_TABLE, NUM_CQI, NUM_MCS
from repro.sim.queueing import RHO_KNEE

#: MCS spectral-efficiency table as an array (same values as the
#: scalar lookups in :mod:`repro.sim.phy`).
_MCS_EFF = np.asarray(MCS_TABLE, dtype=np.float64)

#: Usage-counted action columns (paper Eq. 9).
_USAGE_COLS = np.asarray(USAGE_ACTION_INDICES, dtype=np.intp)

#: Consumable-share floor: the minimum share every admitted slice is
#: granted.  Domain managers never configure a literal zero for an
#: active bearer/meter/container -- a 0-rate OpenFlow meter or a 0-CPU
#: cgroup would black-hole the slice entirely -- so requests below the
#: floor are rounded up (oracle: ``SliceAllocation.MIN_SHARE``).
_MIN_SHARE = 0.01

#: Application codes used by the row layout.
APP_CODES: Dict[str, int] = {"mar": 0, "hvs": 1, "rdc": 2}

#: Monotonic SliceRows layout tokens (arena cache keys -- unlike
#: ``id()``, never reused after churn frees a bundle).
_ROWS_UIDS = itertools.count(1)


def _queueing_rows(service_ms: np.ndarray, rho: np.ndarray,
                   a: KernelArena) -> np.ndarray:
    """The shared queueing-latency law (:mod:`repro.sim.queueing`).

    M/M/1 below the knee utilisation, the linear finite-buffer overload
    regime above it -- branch structure and float association exactly
    as the oracle's scalar ``queueing_latency_ms``.
    """
    shape = rho.shape
    r = a.take(shape)
    np.maximum(rho, 0.0, out=r)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = a.take(shape)
        np.subtract(1.0, r, out=d)
        below = a.take(shape)
        np.divide(service_ms, d, out=below)
        knee = a.take(shape)
        np.divide(service_ms, (1.0 - RHO_KNEE), out=knee)
        slope = a.take(shape)
        np.divide(service_ms, (1.0 - RHO_KNEE) ** 2, out=slope)
        np.subtract(r, RHO_KNEE, out=d)
        np.multiply(slope, d, out=d)
        np.add(knee, d, out=d)                       # above
    bk = a.take(shape, bool)
    np.less(r, RHO_KNEE, out=bk)
    out = a.take(shape)
    np.copyto(out, d)
    np.copyto(out, below, where=bk)
    return out


def _per_world():
    """A :class:`SliceRows` table with one entry per world, not per
    row -- the one place that says so; :func:`_stack_rows` and
    :meth:`SliceRows.take_worlds` read the marker."""
    return field(metadata={"per_world": True})


@dataclass
class SliceRows:
    """Static per-row constants for a set of (world, slice) rows.

    Built once per world from its :class:`~repro.sim.network
    .EndToEndNetwork` (and rebuilt only on slice churn), then
    concatenated across worlds by the batch engine.  All arrays are
    length ``R`` except the per-world tables marked
    :func:`_per_world`.
    """

    # -- identity ------------------------------------------------------
    names: List[str]                  # row slice names, world-major
    metrics: List[str]                # SLA metric name per row
    world: np.ndarray                 # (R,) world index of each row
    num_worlds: int

    # -- slice/application constants ----------------------------------
    app: np.ndarray                   # (R,) APP_CODES
    max_arrival: np.ndarray
    ul_bits: np.ndarray
    dl_bits: np.ndarray
    sum_bits: np.ndarray              # ul_bits + dl_bits (pre-added)
    compute_units: np.ndarray
    sla_target: np.ndarray
    cost_threshold: np.ndarray
    lower_better: np.ndarray          # (R,) bool

    # -- RAN / PHY (row-expanded world constants) ----------------------
    ul_prbs_total: np.ndarray
    dl_prbs_total: np.ndarray
    prb_bandwidth_hz: np.ndarray
    uplink_fraction: np.ndarray
    downlink_fraction: np.ndarray
    overhead: np.ndarray
    fixed_mcs: np.ndarray             # (R,) int (-1: link adaptation)
    ran_base_latency_ms: np.ndarray
    base_retx_ul: np.ndarray
    base_retx_dl: np.ndarray
    decay_ul: np.ndarray
    decay_dl: np.ndarray

    # -- transport -----------------------------------------------------
    link_capacity_bps: np.ndarray     # (R,)
    hop_latency_ms: np.ndarray        # (R,)
    num_paths: np.ndarray             # (R,) int
    path_hops: np.ndarray = _per_world()    # (W, Pmax) int, padded
    link_capacity_w: np.ndarray = _per_world()          # (W,)

    # -- core / edge ---------------------------------------------------
    sgwu_capacity_pps: np.ndarray
    num_sgwu: np.ndarray              # (R,) int
    core_base_latency_ms: np.ndarray
    mean_packet_bits: np.ndarray
    edge_capacity_ups: np.ndarray
    total_ram_gb: np.ndarray
    ram_gb_per_ups: np.ndarray

    # -- channel population -------------------------------------------
    users: np.ndarray                 # (R,) int users per row's slice

    #: Unique layout token; :func:`evaluate_rows` keys its arena on
    #: this, so churn-rebuilt bundles always reset the buffer pools.
    uid: int = field(default_factory=lambda: next(_ROWS_UIDS))

    @property
    def num_rows(self) -> int:
        return len(self.names)

    def repeat(self, n: int) -> "SliceRows":
        """``n`` copies of this one-world bundle, each its own world.

        Field for field ``concat_rows([self] * n)``.  The transport
        kernel sums path loads per world, so every copy is evaluated
        exactly as it would be alone -- ``n`` independent testbeds in
        one :func:`evaluate_rows` call.
        """
        return _stack_rows([self], n)

    def take_worlds(self, lo: int, hi: int) -> "SliceRows":
        """Worlds ``lo:hi`` of this bundle as a bundle of their own,
        renumbered from 0 (array fields are views): what
        :func:`concat_rows` splices an existing bundle from."""
        first, last = np.searchsorted(self.world, (lo, hi)).tolist()
        columns = {"world": self.world[first:last] - lo,
                   "num_worlds": hi - lo}
        for spec in dataclasses.fields(SliceRows):
            name = spec.name
            if name == "uid" or name in columns:
                continue
            values = getattr(self, name)
            columns[name] = (values[lo:hi]
                             if spec.metadata.get("per_world")
                             else values[first:last])
        return SliceRows(**columns)


def rows_for_network(network, world: int = 0) -> SliceRows:
    """Build the static row constants of one world's current slices.

    ``network`` is an :class:`~repro.sim.network.EndToEndNetwork`;
    rows follow ``network.slice_names`` order (managed and background
    churn slices alike -- the caller masks, exactly as the scalar
    simulator reports only managed slices).
    """
    cfg = network.cfg
    phy = network.cell.phy
    names = list(network.slice_names)
    specs = [network.slices[name] for name in names]
    n = len(names)

    def const(value, dtype=np.float64):
        return np.full(n, value, dtype=dtype)

    hops = np.asarray(
        [network.fabric.path_hops(k)
         for k in range(network.fabric.num_paths)], dtype=np.intp)
    return SliceRows(
        names=names,
        metrics=[spec.sla.metric for spec in specs],
        world=np.full(n, world, dtype=np.intp),
        num_worlds=world + 1,
        app=np.asarray([APP_CODES[spec.app] for spec in specs],
                       dtype=np.intp),
        max_arrival=np.asarray([spec.max_arrival_rate
                                for spec in specs]),
        ul_bits=np.asarray([spec.uplink_payload_bits
                            for spec in specs]),
        dl_bits=np.asarray([spec.downlink_payload_bits
                            for spec in specs]),
        sum_bits=np.asarray([spec.uplink_payload_bits
                             + spec.downlink_payload_bits
                             for spec in specs]),
        compute_units=np.asarray([spec.compute_units
                                  for spec in specs]),
        sla_target=np.asarray([spec.sla.target for spec in specs]),
        cost_threshold=np.asarray([spec.sla.cost_threshold
                                   for spec in specs]),
        lower_better=np.asarray([spec.sla.lower_is_better
                                 for spec in specs], dtype=bool),
        ul_prbs_total=const(network.cell.uplink_prbs),
        dl_prbs_total=const(network.cell.downlink_prbs),
        prb_bandwidth_hz=const(cfg.ran.prb_bandwidth_hz),
        uplink_fraction=const(cfg.ran.uplink_fraction),
        downlink_fraction=const(cfg.ran.downlink_fraction),
        overhead=const(cfg.ran.overhead),
        fixed_mcs=const(cfg.ran.fixed_mcs, dtype=np.intp),
        ran_base_latency_ms=const(cfg.ran.base_latency_ms),
        base_retx_ul=const(phy.base_retx_ul),
        base_retx_dl=const(phy.base_retx_dl),
        decay_ul=const(phy.uplink_bler_decay),
        decay_dl=const(phy.downlink_bler_decay),
        link_capacity_bps=const(cfg.transport.link_capacity_bps),
        hop_latency_ms=const(cfg.transport.hop_latency_ms),
        num_paths=const(network.fabric.num_paths, dtype=np.intp),
        path_hops=hops[None, :],
        link_capacity_w=np.asarray([cfg.transport.link_capacity_bps]),
        sgwu_capacity_pps=const(cfg.core.sgwu_capacity_pps),
        num_sgwu=const(cfg.core.num_sgwu_per_slice, dtype=np.intp),
        core_base_latency_ms=const(cfg.core.base_latency_ms),
        mean_packet_bits=const(cfg.core.mean_packet_bits),
        edge_capacity_ups=const(cfg.edge.compute_capacity_ups),
        total_ram_gb=const(cfg.edge.total_ram_gb),
        ram_gb_per_ups=const(cfg.edge.ram_gb_per_ups),
        users=const(cfg.users_per_slice, dtype=np.intp),
    )


def _stack_rows(parts: Sequence[SliceRows], copies: int) -> SliceRows:
    """``parts`` in order, the whole sequence laid out ``copies`` times.

    One :func:`dataclasses.fields` walk serves :func:`concat_rows` and
    :meth:`SliceRows.repeat`: a part holds one world or several, and
    worlds are renumbered in output order; a two-dimensional per-world
    table (the path hops) is padded to the widest part's column count
    and stacked; name lists and every other array (per-row and
    per-world alike) join end to end; ``uid`` is fresh.
    """
    if not parts or copies < 1:
        raise ValueError("need at least one world")

    def padded(table, width):
        short = width - table.shape[1]
        return np.pad(table, ((0, 0), (0, short))) if short else table

    first_world = [0]
    for part in parts:
        first_world.append(first_world[-1] + part.num_worlds)
    world = np.concatenate([part.world + first
                            for part, first in zip(parts, first_world)])
    if copies > 1:
        world = (world + first_world[-1]
                 * np.arange(copies)[:, None]).ravel()
    columns = {"world": world,
               "num_worlds": first_world[-1] * copies}
    for spec in dataclasses.fields(SliceRows):
        name = spec.name
        if name == "uid" or name in columns:
            continue
        values = [getattr(part, name) for part in parts]
        if spec.metadata.get("per_world") and values[0].ndim == 2:
            width = max(table.shape[1] for table in values)
            values = [padded(table, width) for table in values]
        if isinstance(values[0], list):
            columns[name] = list(
                itertools.chain.from_iterable(values)) * copies
        else:
            joined = np.concatenate(values)
            columns[name] = joined if copies == 1 else np.tile(
                joined, (copies,) + (1,) * (joined.ndim - 1))
    return SliceRows(**columns)


def concat_rows(parts: Sequence[SliceRows]) -> SliceRows:
    """Concatenate row bundles into one multi-world bundle.

    A part may itself hold several worlds (a run of an existing
    bundle, see :meth:`SliceRows.take_worlds`), so replacing or
    dropping one world of a B-world bundle joins three parts, not B.
    World indices are renumbered 0..W-1 in ``parts`` order; the
    per-world path-hops tables are padded to the widest path count.
    """
    return _stack_rows(parts, 1)


@dataclass
class WorldConditions:
    """Per-world transport fault-injection state for one slot."""

    capacity_scale: np.ndarray          # (W,)
    extra_latency_ms: np.ndarray        # (W,)
    background_load_fraction: np.ndarray  # (W,)

    @classmethod
    def nominal(cls, num_worlds: int) -> "WorldConditions":
        return cls(capacity_scale=np.ones(num_worlds),
                   extra_latency_ms=np.zeros(num_worlds),
                   background_load_fraction=np.zeros(num_worlds))

    def refresh(self, fabrics) -> "WorldConditions":
        """Re-read the fabrics into the existing buffers (no allocs).

        Scalar element stores only, so a per-slot caller (the batch
        engine's hot loop) can keep one instance alive instead of
        rebuilding three arrays every slot.
        """
        capacity = self.capacity_scale
        extra = self.extra_latency_ms
        background = self.background_load_fraction
        for index, fabric in enumerate(fabrics):
            capacity[index] = fabric.capacity_scale
            extra[index] = fabric.extra_latency_ms
            background[index] = fabric.background_load_fraction
        return self


def _user_sum_into(values: np.ndarray, mask: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Sum over the user axis in strict left-to-right order.

    Mirrors the scalar per-user ``+=`` accumulation; masked (padded)
    lanes are skipped, which is bit-identical to the historical
    ``+ np.where(mask, values, 0.0)`` because the accumulator starts
    at ``+0.0`` and every summand is non-negative.
    """
    out.fill(0.0)
    for j in range(values.shape[1]):
        np.add(out, values[:, j], out=out, where=mask[:, j])
    return out


def _statics_for(rows: SliceRows, a: KernelArena, num_users: int):
    """Layout-constant derived arrays, built once per arena key."""

    def s(name, builder):
        return a.static(name, builder)

    pmax = rows.path_hops.shape[1]
    return {
        "user_mask": s("user_mask", lambda: (
            np.arange(num_users)[None, :] < rows.users[:, None])),
        "users_f": s("users_f", lambda: rows.users.astype(np.float64)),
        "num_paths_f": s("num_paths_f",
                         lambda: rows.num_paths.astype(np.float64)),
        "paths_hi": s("paths_hi",
                      lambda: (rows.num_paths - 1).astype(np.float64)),
        "num_sgwu_f": s("num_sgwu_f",
                        lambda: rows.num_sgwu.astype(np.float64)),
        "max_sgwu": s("max_sgwu", lambda: int(rows.num_sgwu.max())),
        "sgwu_masks": s("sgwu_masks", lambda: [
            j < rows.num_sgwu
            for j in range(int(rows.num_sgwu.max()))]),
        "fixed_on": s("fixed_on",
                      lambda: rows.fixed_mcs[:, None] >= 0),
        "one_minus_overhead": s("one_minus_overhead",
                                lambda: 1.0 - rows.overhead),
        "hops_flat": s("hops_flat", lambda: np.ascontiguousarray(
            rows.path_hops).ravel()),
        "row_flat_base": s("row_flat_base",
                           lambda: rows.world * pmax),
        "app_masks": s("app_masks", lambda: {
            app: rows.app == code for app, code in APP_CODES.items()}),
    }


def evaluate_rows(rows: SliceRows, cond: WorldConditions,
                  actions: np.ndarray, rates: np.ndarray,
                  cqi: np.ndarray, margin_db: np.ndarray,
                  arena: KernelArena) -> Dict[str, np.ndarray]:
    """Evaluate one configuration slot for every row at once.

    Parameters
    ----------
    rows / cond:
        Static row constants and this slot's per-world transport
        conditions.
    actions:
        ``(R, NUM_ACTIONS)`` raw caller actions (pre-clip, as handed to
        the scalar ``evaluate_slot`` -- Eq. 9 usage is computed on the
        raw values, allocation decoding clips internally).
    rates:
        ``(R,)`` realised arrivals/s.
    cqi / margin_db:
        ``(R, Umax)`` per-user CQI and channel margin (current SNR
        minus per-user mean), padded past ``rows.users`` per row.
    arena:
        The caller's persistent :class:`~repro.engine.arena
        .KernelArena` (steady-state zero-allocation evaluation).  The
        returned arrays are **owned by the arena**: read/copy them
        before the next pass on the same arena overwrites them.

    Returns a dict of ``(R,)`` arrays (plus the ``(W, Pmax)`` transport
    ``path_loads`` for state write-back) covering every
    :class:`~repro.sim.network.SlotReport` field.

    Profiling: when a :class:`~repro.obs.profile.KernelProfiler` is
    active (and samples this call), each kernel-stage boundary below
    records a lap -- wall time and, optionally, net allocations -- so
    ``repro obs profile`` can attribute slot cost per kernel.  The
    laps never touch the arrays, so the parity contract is unaffected;
    when profiling is off the hook is one module-global read.
    """
    lap = _profile_begin()
    a = arena
    num_rows = rows.num_rows
    num_users = cqi.shape[1]
    a.begin((rows.uid, num_rows, num_users))
    st = _statics_for(rows, a, num_users)
    R = num_rows

    raw = np.asarray(actions)
    if raw.shape != (R, NUM_ACTIONS):
        raise ValueError(
            f"actions must have shape ({R}, {NUM_ACTIONS})"
            f", got {raw.shape}")

    arr = a.take((R, NUM_ACTIONS))
    np.clip(raw, 0.0, 1.0, out=arr)

    # ---- action decode (oracle: SliceAllocation.from_action) ---------
    ul_bw = a.take(R)
    np.maximum(arr[:, 0], _MIN_SHARE, out=ul_bw)
    dl_bw = a.take(R)
    np.maximum(arr[:, 3], _MIN_SHARE, out=dl_bw)

    def _int_decode(column, scale, lo, hi):
        f = a.take(R)
        np.multiply(column, scale, out=f)
        if lo is None:
            np.rint(f, out=f)
        else:
            np.clip(f, lo, hi, out=f)
        out = a.take(R, np.intp)
        out[...] = f                       # trunc cast, == .astype
        return out

    ul_off = _int_decode(arr[:, 1], MAX_MCS_OFFSET, None, None)
    dl_off = _int_decode(arr[:, 4], MAX_MCS_OFFSET, None, None)
    ul_sched = _int_decode(arr[:, 2], 3, 0, 2)
    dl_sched = _int_decode(arr[:, 5], 3, 0, 2)
    tn_bw = a.take(R)
    np.maximum(arr[:, 6], _MIN_SHARE, out=tn_bw)
    tn_path = _int_decode(arr[:, 7], st["num_paths_f"], 0,
                          st["paths_hi"])
    cpu = a.take(R)
    np.maximum(arr[:, 8], _MIN_SHARE, out=cpu)
    ram = a.take(R)
    np.maximum(arr[:, 9], _MIN_SHARE, out=ram)

    user_mask = st["user_mask"]
    if lap is not None:
        lap.lap("decode")

    # ---- RAN capacities (oracle: RadioCell.slice_capacity) -----------
    # direction-shared terms (see Fusions): margin factor and base MCS
    margin_pow = a.take((R, num_users))
    np.divide(margin_db, -6.0, out=margin_pow)
    np.power(10.0, margin_pow, out=margin_pow)
    base_mcs = a.take((R, num_users), np.intp)
    np.multiply(cqi, 2, out=base_mcs)
    np.subtract(base_mcs, 2, out=base_mcs)
    np.clip(base_mcs, 0, NUM_MCS - 1, out=base_mcs)      # vanilla
    np.copyto(base_mcs, rows.fixed_mcs[:, None],
              where=st["fixed_on"])
    ul = _radio_direction(rows, st, ul_bw, ul_off, ul_sched,
                          base_mcs, margin_pow, user_mask,
                          uplink=True, a=a)
    dl = _radio_direction(rows, st, dl_bw, dl_off, dl_sched,
                          base_mcs, margin_pow, user_mask,
                          uplink=False, a=a)
    if lap is not None:
        lap.lap("radio")

    # ---- transport (oracle: TransportFabric.reserve + evaluate) ------
    num_worlds = rows.link_capacity_w.shape[0]
    pmax = rows.path_hops.shape[1]
    eff_cap_w = a.take(num_worlds)
    np.multiply(rows.link_capacity_w, cond.capacity_scale,
                out=eff_cap_w)
    eff_cap = a.take(R)
    np.take(eff_cap_w, rows.world, out=eff_cap)
    seed = a.take(num_worlds)
    np.multiply(cond.background_load_fraction, eff_cap_w, out=seed)
    loads = a.take((num_worlds, pmax))
    np.copyto(loads, seed[:, None])
    reserve = a.take(R)
    np.multiply(tn_bw, eff_cap, out=reserve)
    np.add.at(loads, (rows.world, tn_path), reserve)
    offered_bps = a.take(R)
    np.multiply(rates, rows.sum_bits, out=offered_bps)
    tn_cap = a.take(R)
    np.clip(tn_bw, 0.0, 1.0, out=tn_cap)
    np.multiply(tn_cap, eff_cap, out=tn_cap)
    row_flat = a.take(R, np.intp)
    np.add(st["row_flat_base"], tn_path, out=row_flat)
    utilization = a.take(R)
    np.take(loads.ravel(), row_flat, out=utilization)
    np.divide(utilization, eff_cap, out=utilization)
    np.minimum(utilization, 0.99, out=utilization)
    queueing_ms = a.take(R)
    np.multiply(rows.hop_latency_ms, utilization, out=queueing_ms)
    head = a.take(R)
    np.subtract(1.0, utilization, out=head)
    np.divide(queueing_ms, head, out=queueing_ms)
    hops_i = a.take(R, np.intp)
    np.take(st["hops_flat"], row_flat, out=hops_i)
    hops = a.take(R)
    hops[...] = hops_i
    tn_latency = a.take(R)
    np.multiply(hops, rows.hop_latency_ms, out=tn_latency)
    np.add(tn_latency, queueing_ms, out=tn_latency)
    extra = a.take(R)
    np.take(cond.extra_latency_ms, rows.world, out=extra)
    np.add(tn_latency, extra, out=tn_latency)
    dead = a.take(R, bool)
    np.less_equal(tn_cap, 0, out=dead)
    offering = a.take(R, bool)
    np.greater(offered_bps, 0, out=offering)
    np.logical_and(dead, offering, out=dead)
    np.copyto(tn_latency, np.inf, where=dead)
    if lap is not None:
        lap.lap("transport")

    # ---- core (set_slice_resources + oracle: CoreNetwork.evaluate) ---
    per_cpu = a.take(R)
    np.clip(cpu, 0.0, 1.0, out=per_cpu)
    np.divide(per_cpu, st["num_sgwu_f"], out=per_cpu)
    cpu_total = a.take(R)
    cpu_total.fill(0.0)
    for mask in st["sgwu_masks"]:
        np.add(cpu_total, per_cpu, out=cpu_total, where=mask)
    core_mu = a.take(R)
    np.multiply(cpu_total, rows.sgwu_capacity_pps, out=core_mu)
    core_lam = a.take(R)
    np.divide(offered_bps, rows.mean_packet_bits, out=core_lam)
    has_mu = a.take(R, bool)
    np.greater(core_mu, 0, out=has_mu)
    has_lam = a.take(R, bool)
    np.greater(core_lam, 0, out=has_lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = a.take(R)
        np.divide(core_lam, core_mu, out=ratio)
        core_util = a.take(R)
        core_util.fill(0.0)
        np.copyto(core_util, 1.0, where=has_lam)
        np.copyto(core_util, ratio, where=has_mu)
        safe_mu = a.take(R)
        safe_mu.fill(1.0)
        np.copyto(safe_mu, core_mu, where=has_mu)
        service = a.take(R)
        np.divide(1e3, safe_mu, out=service)
        queued = _queueing_rows(service, core_util, a)
        core_latency = a.take(R)
        np.add(rows.core_base_latency_ms, queued, out=core_latency)
        finite = a.take(R)
        np.copyto(finite, core_latency)
        core_latency.fill(np.inf)
        np.copyto(core_latency, finite, where=has_mu)
    core_pps = a.take(R)
    core_pps.fill(0.0)
    np.copyto(core_pps, core_mu, where=has_mu)
    core_util_capped = a.take(R)
    np.minimum(core_util, 1.0, out=core_util_capped)
    if lap is not None:
        lap.lap("core")

    # ---- edge (set_resources + oracle: EdgeServerPool.evaluate) ------
    edge_cpu = a.take(R)
    np.clip(cpu, 0.0, 1.0, out=edge_cpu)
    edge_ram_gb = a.take(R)
    np.clip(ram, 0.0, 1.0, out=edge_ram_gb)
    np.multiply(edge_ram_gb, rows.total_ram_gb, out=edge_ram_gb)
    work_rate = a.take(R)
    np.multiply(rates, rows.compute_units, out=work_rate)
    edge_mu = a.take(R)
    np.multiply(edge_cpu, rows.edge_capacity_ups, out=edge_mu)
    required_ram = a.take(R)
    np.multiply(work_rate, rows.ram_gb_per_ups, out=required_ram)
    needs_ram = a.take(R, bool)
    np.greater(required_ram, 0, out=needs_ram)
    short = a.take(R, bool)
    np.less(edge_ram_gb, required_ram, out=short)
    np.logical_and(needs_ram, short, out=short)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_ram = a.take(R)
        safe_ram.fill(1.0)
        np.copyto(safe_ram, required_ram, where=needs_ram)
        penalty_val = a.take(R)
        np.divide(edge_ram_gb, safe_ram, out=penalty_val)
        np.maximum(penalty_val, 0.1, out=penalty_val)
        ram_penalty = a.take(R)
        ram_penalty.fill(1.0)
        np.copyto(ram_penalty, penalty_val, where=short)
    edge_mu_eff = a.take(R)
    np.multiply(edge_mu, ram_penalty, out=edge_mu_eff)
    has_eff = a.take(R, bool)
    np.greater(edge_mu_eff, 0, out=has_eff)
    has_work = a.take(R, bool)
    np.greater(work_rate, 0, out=has_work)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_eff = a.take(R)
        safe_eff.fill(1.0)
        np.copyto(safe_eff, edge_mu_eff, where=has_eff)
        eratio = a.take(R)
        np.divide(work_rate, safe_eff, out=eratio)
        edge_util = a.take(R)
        edge_util.fill(0.0)
        np.copyto(edge_util, 1.0, where=has_work)
        np.copyto(edge_util, eratio, where=has_eff)
        eservice = a.take(R)
        np.divide(1e3, safe_eff, out=eservice)
        equeued = _queueing_rows(eservice, edge_util, a)
        edge_latency = a.take(R)
        edge_latency.fill(0.0)
        np.copyto(edge_latency, np.inf, where=has_work)
        np.copyto(edge_latency, equeued, where=has_eff)
    edge_util_capped = a.take(R)
    np.minimum(edge_util, 1.0, out=edge_util_capped)
    if lap is not None:
        lap.lap("edge")

    # ---- applications (oracle: evaluate_mar / _hvs / _rdc) -----------
    value, satisfaction = _evaluate_apps(
        rows, st, rates, ul["capacity"], dl["capacity"], ul["retx"],
        dl["retx"], tn_cap, tn_latency, core_latency, core_pps,
        edge_latency, a)
    cost = a.take(R)
    np.subtract(1.0, satisfaction, out=cost)
    if lap is not None:
        lap.lap("apps")

    # ---- usage + state features --------------------------------------
    usage = a.take(R)
    usage.fill(0.0)
    for col in _USAGE_COLS:
        np.add(usage, raw[:, col], out=usage)
    np.divide(usage, len(_USAGE_COLS), out=usage)
    radio_usage = a.take(R)
    np.add(ul_bw, dl_bw, out=radio_usage)
    np.multiply(radio_usage, 0.5, out=radio_usage)
    workload = a.take(R)
    np.add(core_util_capped, edge_util_capped, out=workload)
    np.multiply(workload, 0.5, out=workload)
    cqi_f = a.take((R, num_users))
    cqi_f[...] = cqi
    cqi_sum = a.take(R)
    _user_sum_into(cqi_f, user_mask, cqi_sum)
    channel_quality = a.take(R)
    np.divide(cqi_sum, st["users_f"], out=channel_quality)
    np.divide(channel_quality, NUM_CQI, out=channel_quality)
    if lap is not None:
        lap.lap("state")

    return {
        "value": value,
        "satisfaction": satisfaction,
        "cost": cost,
        "usage": usage,
        "radio_usage": radio_usage,
        "workload": workload,
        "ul_capacity_bps": ul["capacity"],
        "dl_capacity_bps": dl["capacity"],
        "ul_retx": ul["retx"],
        "dl_retx": dl["retx"],
        "transport_latency_ms": tn_latency,
        "transport_rate_bps": tn_cap,
        "core_latency_ms": core_latency,
        "edge_latency_ms": edge_latency,
        "channel_quality": channel_quality,
        "path_loads": loads,
    }


def _radio_direction(rows: SliceRows, st, share: np.ndarray,
                     mcs_offset: np.ndarray, scheduler: np.ndarray,
                     base_mcs: np.ndarray, margin_pow: np.ndarray,
                     user_mask: np.ndarray, uplink: bool,
                     a: KernelArena) -> Dict[str, np.ndarray]:
    """One direction of the oracle's ``RadioCell.slice_capacity`` (with
    ``PhyModel.link_quality`` and ``scheduler_efficiency`` inlined) for
    all rows.

    ``base_mcs`` and ``margin_pow`` are the direction-shared terms
    precomputed by :func:`evaluate_rows` (see the module Fusions
    section).
    """
    total = rows.ul_prbs_total if uplink else rows.dl_prbs_total
    duty = rows.uplink_fraction if uplink else rows.downlink_fraction
    base_retx = rows.base_retx_ul if uplink else rows.base_retx_dl
    decay = rows.decay_ul if uplink else rows.decay_dl
    num_rows, num_users = base_mcs.shape

    prbs = a.take(num_rows)
    np.clip(share, 0.0, 1.0, out=prbs)
    np.multiply(prbs, total, out=prbs)
    np.rint(prbs, out=prbs)
    tiny = a.take(num_rows, bool)
    np.greater(share, 1e-3, out=tiny)
    none = a.take(num_rows, bool)
    np.equal(prbs, 0, out=none)
    np.logical_and(tiny, none, out=tiny)
    np.copyto(prbs, 1.0, where=tiny)

    # per-user effective MCS and first-transmission error probability
    mcs = a.take((num_rows, num_users), np.intp)
    np.subtract(base_mcs, mcs_offset[:, None], out=mcs)
    np.clip(mcs, 0, NUM_MCS - 1, out=mcs)
    eff = a.take((num_rows, num_users))
    np.take(_MCS_EFF, mcs, out=eff)
    off_f = a.take(num_rows)
    off_f[...] = mcs_offset
    retx_row = a.take(num_rows)
    np.power(decay, off_f, out=retx_row)
    np.multiply(base_retx, retx_row, out=retx_row)
    retx = a.take((num_rows, num_users))
    np.multiply(retx_row[:, None], margin_pow, out=retx)
    np.clip(retx, 1e-9, 0.99, out=retx)
    goodput = a.take((num_rows, num_users))
    np.subtract(1.0, retx, out=goodput)
    np.multiply(eff, goodput, out=goodput)
    shrink = a.take((num_rows, num_users))
    np.add(1.0, retx, out=shrink)
    np.divide(goodput, shrink, out=goodput)

    retx_mean = a.take(num_rows)
    _user_sum_into(retx, user_mask, retx_mean)
    np.divide(retx_mean, st["users_f"], out=retx_mean)
    mean_eff = a.take(num_rows)
    _user_sum_into(goodput, user_mask, mean_eff)
    np.divide(mean_eff, st["users_f"], out=mean_eff)
    best_eff = a.take(num_rows)
    np.max(goodput, axis=1, initial=-np.inf, where=user_mask,
           out=best_eff)
    mixed_hi = a.take(num_rows)
    np.multiply(0.9, best_eff, out=mixed_hi)
    part = a.take(num_rows)
    np.multiply(0.1, mean_eff, out=part)
    np.add(mixed_hi, part, out=mixed_hi)
    mixed_lo = a.take(num_rows)
    np.multiply(0.6, best_eff, out=mixed_lo)
    np.multiply(0.4, mean_eff, out=part)
    np.add(mixed_lo, part, out=mixed_lo)
    pick = a.take(num_rows, bool)
    np.equal(scheduler, 2, out=pick)
    agg = a.take(num_rows)
    np.copyto(agg, mixed_lo)
    np.copyto(agg, mixed_hi, where=pick)
    np.equal(scheduler, 0, out=pick)
    np.copyto(agg, mean_eff, where=pick)
    capacity = a.take(num_rows)
    np.multiply(prbs, rows.prb_bandwidth_hz, out=capacity)
    np.multiply(capacity, duty, out=capacity)
    np.multiply(capacity, agg, out=capacity)
    np.multiply(capacity, st["one_minus_overhead"], out=capacity)
    return {"capacity": capacity, "retx": retx_mean, "prbs": prbs}


def _mm1_rows(payload_bits: np.ndarray, capacity_bps: np.ndarray,
              demand_bps: np.ndarray, a: KernelArena) -> np.ndarray:
    """Vectorised ``_mm1_latency_ms`` of the oracle's app models."""
    shape = capacity_bps.shape
    has_cap = a.take(shape, bool)
    np.greater(capacity_bps, 0, out=has_cap)
    safe_cap = a.take(shape)
    safe_cap.fill(1.0)
    np.copyto(safe_cap, capacity_bps, where=has_cap)
    rho = a.take(shape)
    np.divide(demand_bps, safe_cap, out=rho)
    service_ms = a.take(shape)
    np.divide(payload_bits, safe_cap, out=service_ms)
    np.multiply(service_ms, 1e3, out=service_ms)
    latency = _queueing_rows(service_ms, rho, a)
    out = a.take(shape)
    out.fill(np.inf)
    np.copyto(out, latency, where=has_cap)
    return out


def _satisfaction_rows(rows: SliceRows, measured: np.ndarray,
                       a: KernelArena) -> np.ndarray:
    """Vectorised ``_satisfaction`` of the oracle (both orientations)."""
    shape = measured.shape
    target = rows.sla_target
    positive = a.take(shape, bool)
    np.greater(measured, 0, out=positive)
    safe = a.take(shape)
    safe.fill(1.0)
    np.copyto(safe, measured, where=positive)
    with np.errstate(invalid="ignore"):
        finite = a.take(shape, bool)
        np.isfinite(measured, out=finite)
        scaled = a.take(shape)
        np.divide(target, safe, out=scaled)
        lower_ratio = a.take(shape)
        lower_ratio.fill(0.0)
        np.copyto(lower_ratio, scaled, where=finite)
        idle = a.take(shape, bool)
        np.less_equal(measured, 0, out=idle)
        np.copyto(lower_ratio, 1.0, where=idle)
        higher_ratio = a.take(shape)
        np.divide(measured, target, out=higher_ratio)
    ratio = a.take(shape)
    np.copyto(ratio, higher_ratio)
    np.copyto(ratio, lower_ratio, where=rows.lower_better)
    np.clip(ratio, 0.0, 1.0, out=ratio)
    return ratio


def _evaluate_apps(rows: SliceRows, st, rates: np.ndarray,
                   ul_cap: np.ndarray, dl_cap: np.ndarray,
                   ul_retx: np.ndarray, dl_retx: np.ndarray,
                   tn_rate: np.ndarray, tn_latency: np.ndarray,
                   core_latency: np.ndarray, core_pps: np.ndarray,
                   edge_latency: np.ndarray, a: KernelArena):
    """Dispatch the per-app performance models over all rows at once."""
    num_rows = rows.num_rows

    # MAR: round-trip frame latency ------------------------------------
    ul_demand = a.take(num_rows)
    np.multiply(rates, rows.ul_bits, out=ul_demand)
    dl_demand = a.take(num_rows)
    np.multiply(rates, rows.dl_bits, out=dl_demand)
    carried = a.take(num_rows, bool)
    np.greater(tn_rate, 0, out=carried)
    capped = a.take(num_rows)
    np.minimum(ul_cap, tn_rate, out=capped)
    effective_ul = a.take(num_rows)
    effective_ul.fill(0.0)
    np.copyto(effective_ul, capped, where=carried)
    ul_ms = _mm1_rows(rows.ul_bits, effective_ul, ul_demand, a)
    dl_ms = _mm1_rows(rows.dl_bits, dl_cap, dl_demand, a)
    harq_ms = a.take(num_rows)
    np.add(ul_retx, dl_retx, out=harq_ms)
    np.multiply(8.0, harq_ms, out=harq_ms)
    mar_latency = a.take(num_rows)
    np.add(rows.ran_base_latency_ms, ul_ms, out=mar_latency)
    np.add(mar_latency, dl_ms, out=mar_latency)
    np.add(mar_latency, harq_ms, out=mar_latency)
    np.add(mar_latency, tn_latency, out=mar_latency)
    np.add(mar_latency, core_latency, out=mar_latency)
    np.add(mar_latency, edge_latency, out=mar_latency)

    # HVS: delivered FPS -----------------------------------------------
    target_fps = rows.sla_target
    hvs_demand = a.take(num_rows)
    np.multiply(rates, target_fps, out=hvs_demand)
    np.multiply(hvs_demand, rows.dl_bits, out=hvs_demand)
    core_bps = a.take(num_rows)
    np.multiply(core_pps, rows.mean_packet_bits, out=core_bps)
    supply = a.take(num_rows)
    np.minimum(dl_cap, tn_rate, out=supply)
    np.minimum(supply, core_bps, out=supply)
    wants = a.take(num_rows, bool)
    np.greater(hvs_demand, 0, out=wants)
    safe_demand = a.take(num_rows)
    safe_demand.fill(1.0)
    np.copyto(safe_demand, hvs_demand, where=wants)
    hvs_fps = a.take(num_rows)
    np.divide(supply, safe_demand, out=hvs_fps)
    np.minimum(hvs_fps, 1.0, out=hvs_fps)
    np.multiply(target_fps, hvs_fps, out=hvs_fps)
    drop = a.take(num_rows)
    np.multiply(0.5, dl_retx, out=drop)
    np.subtract(1.0, drop, out=drop)
    np.multiply(hvs_fps, drop, out=hvs_fps)
    sated = a.take(num_rows, bool)
    np.less_equal(hvs_demand, 0, out=sated)
    np.copyto(hvs_fps, target_fps, where=sated)

    # RDC: radio transmission reliability ------------------------------
    # msg_bps == rates * ul_bits == ul_demand (see Fusions)
    msg_bps = ul_demand
    radio_ok = a.take(num_rows)
    np.subtract(1.0, ul_retx, out=radio_ok)
    dl_ok = a.take(num_rows)
    np.subtract(1.0, dl_retx, out=dl_ok)
    np.multiply(radio_ok, dl_ok, out=radio_ok)
    sending = a.take(num_rows, bool)
    np.greater(msg_bps, 0, out=sending)
    safe_msg = a.take(num_rows)
    safe_msg.fill(1.0)
    np.copyto(safe_msg, msg_bps, where=sending)
    ul_carried = a.take(num_rows)
    np.divide(ul_cap, safe_msg, out=ul_carried)
    np.minimum(ul_carried, 1.0, out=ul_carried)
    ul_sel = a.take(num_rows)
    ul_sel.fill(1.0)
    np.copyto(ul_sel, ul_carried, where=sending)
    dl_carried = a.take(num_rows)
    np.divide(dl_cap, safe_msg, out=dl_carried)
    np.minimum(dl_carried, 1.0, out=dl_carried)
    dl_sel = a.take(num_rows)
    dl_sel.fill(1.0)
    np.copyto(dl_sel, dl_carried, where=sending)
    reliability = a.take(num_rows)
    np.multiply(radio_ok, ul_sel, out=reliability)
    np.multiply(reliability, dl_sel, out=reliability)

    value = a.take(num_rows)
    value.fill(0.0)
    masks = st["app_masks"]
    np.copyto(value, mar_latency, where=masks["mar"])
    np.copyto(value, hvs_fps, where=masks["hvs"])
    np.copyto(value, reliability, where=masks["rdc"])
    satisfaction = _satisfaction_rows(rows, value, a)
    return value, satisfaction
