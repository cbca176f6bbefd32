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

Operation order
~~~~~~~~~~~~~~~
The kernels are plain numpy expressions that return fresh arrays.
What carries the parity contract is the order of operations, so every
expression keeps the association of the code it reproduces, and:

* **Selection, not arithmetic.** Branches are ``np.where`` (or
  ``np.choose`` over the app codes): a pure element selection,
  identical for every value including ``inf``/``nan``.
* **Masked strict-order sums.** The scalar-mirroring left-to-right
  accumulations (user axis, SGW-U instances) keep their loops and
  their ``+0.0`` start, adding lane ``j`` with ``np.add(acc, v,
  out=acc, where=m)``.  Skipping a masked lane is bit-identical to
  adding ``0.0`` here: every summand is non-negative, so ``acc + 0.0
  == acc`` exactly (no ``-0.0`` can arise).
* **Eq. 9 usage** sums the raw action columns in column order from an
  explicit ``+0.0`` start: ``0.0 + (-0.0)`` is ``+0.0``, so starting
  from the first column would flip the sign of a ``-0.0`` action.
* **Masked max.** ``np.max(goodput, axis=1, initial=-inf,
  where=mask)`` -- the padded lanes never enter the reduction
  (goodput is always finite: retx is clipped to ``[1e-9, 0.99]``).
* **Path loads** accumulate with ``np.add.at`` in row order.
* **Integer decodes** (MCS offsets, schedulers, transport path) keep
  their truncating ``astype(np.intp)`` casts.
* **Error scopes.** The ``np.errstate`` blocks cover exactly the
  divisions they always covered.

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
* ``msg_bps`` in the RDC model is the MAR ``ul_demand``: both are
  exactly ``rates * ul_bits``.  Likewise the core's and the edge's
  ``clip(cpu, 0, 1)`` is one array.
* Multiplications by the literal ``1.0`` (edge ``work_rate * 1.0``,
  edge service time ``* 1.0``, and the ``* np.ones((1, P))``
  broadcast in the transport load seed) are dropped: ``x * 1.0 == x``
  bitwise for every float, so the seed is a broadcast copy.
* The integer ``users`` / ``num_paths`` / ``num_sgwu`` columns enter
  float expressions directly: numpy promotes them to float64 inside
  the ufunc, which is exact for these small counts and is the
  promotion the historical mixed-dtype expressions made.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import (
    MAX_MCS_OFFSET,
    NUM_ACTIONS,
    USAGE_ACTION_INDICES,
)
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

#: Monotonic SliceRows layout tokens (the stepper's bundle cache keys
#: -- unlike ``id()``, never reused after churn frees a bundle).
_ROWS_UIDS = itertools.count(1)


def _queueing_rows(service_ms: np.ndarray,
                   rho: np.ndarray) -> np.ndarray:
    """The shared queueing-latency law (:mod:`repro.sim.queueing`).

    M/M/1 below the knee utilisation, the linear finite-buffer overload
    regime above it -- branch structure and float association exactly
    as the oracle's scalar ``queueing_latency_ms``.
    """
    r = np.maximum(rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = service_ms / (1.0 - r)
        above = (service_ms / (1.0 - RHO_KNEE)
                 + service_ms / (1.0 - RHO_KNEE) ** 2 * (r - RHO_KNEE))
    return np.where(r < RHO_KNEE, below, above)


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

    #: Unique layout token; the stepper keys its cached bundle on
    #: this, so a churn-rebuilt layout is always a new key.
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


def _user_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum over the user axis in strict left-to-right order.

    Mirrors the scalar per-user ``+=`` accumulation; masked (padded)
    lanes are skipped, which is bit-identical to the historical
    ``+ np.where(mask, values, 0.0)`` because the accumulator starts
    at ``+0.0`` and every summand is non-negative.
    """
    total = np.zeros(values.shape[0])
    for j in range(values.shape[1]):
        np.add(total, values[:, j], out=total, where=mask[:, j])
    return total


def evaluate_rows(rows: SliceRows, cond: WorldConditions,
                  actions: np.ndarray, rates: np.ndarray,
                  cqi: np.ndarray,
                  margin_db: np.ndarray) -> Dict[str, np.ndarray]:
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

    Returns a dict of fresh ``(R,)`` arrays (plus the ``(W, Pmax)``
    transport ``path_loads`` for state write-back) covering every
    :class:`~repro.sim.network.SlotReport` field; no input is written.

    Profiling: when a :class:`~repro.obs.profile.KernelProfiler` is
    active (and samples this call), each kernel-stage boundary below
    records a lap -- wall time and, optionally, net allocations -- so
    ``repro obs profile`` can attribute slot cost per kernel.  The
    laps never touch the arrays, so the parity contract is unaffected;
    when profiling is off the hook is one module-global read.
    """
    lap = _profile_begin()
    raw = np.asarray(actions)
    if raw.shape != (rows.num_rows, NUM_ACTIONS):
        raise ValueError(
            f"actions must have shape ({rows.num_rows}, {NUM_ACTIONS})"
            f", got {raw.shape}")

    # ---- action decode (oracle: SliceAllocation.from_action) ---------
    arr = np.clip(raw, 0.0, 1.0)
    ul_bw, dl_bw, tn_bw, cpu, ram = np.maximum(
        arr[:, [0, 3, 6, 8, 9]], _MIN_SHARE).T
    ul_off, dl_off = np.rint(
        arr[:, [1, 4]] * MAX_MCS_OFFSET).astype(np.intp).T
    ul_sched, dl_sched = np.clip(
        arr[:, [2, 5]] * 3, 0, 2).astype(np.intp).T
    tn_path = np.clip(arr[:, 7] * rows.num_paths, 0,
                      rows.num_paths - 1).astype(np.intp)
    user_mask = np.arange(cqi.shape[1]) < rows.users[:, None]
    if lap is not None:
        lap.lap("decode")

    # ---- RAN capacities (oracle: RadioCell.slice_capacity) -----------
    # direction-shared terms (see Fusions): margin factor and base MCS
    margin_pow = 10.0 ** (margin_db / -6.0)
    fixed = rows.fixed_mcs[:, None]
    base_mcs = np.where(fixed >= 0, fixed,
                        np.clip(cqi * 2 - 2, 0, NUM_MCS - 1))
    ul_cap, ul_retx = _radio_direction(
        rows, ul_bw, ul_off, ul_sched, base_mcs, margin_pow, user_mask,
        uplink=True)
    dl_cap, dl_retx = _radio_direction(
        rows, dl_bw, dl_off, dl_sched, base_mcs, margin_pow, user_mask,
        uplink=False)
    if lap is not None:
        lap.lap("radio")

    # ---- transport (oracle: TransportFabric.reserve + evaluate) ------
    eff_cap_w = rows.link_capacity_w * cond.capacity_scale
    eff_cap = eff_cap_w[rows.world]
    loads = np.repeat((cond.background_load_fraction
                       * eff_cap_w)[:, None],
                      rows.path_hops.shape[1], axis=1)
    np.add.at(loads, (rows.world, tn_path), tn_bw * eff_cap)
    offered_bps = rates * rows.sum_bits
    tn_cap = np.clip(tn_bw, 0.0, 1.0) * eff_cap
    utilization = np.minimum(loads[rows.world, tn_path] / eff_cap, 0.99)
    queueing_ms = rows.hop_latency_ms * utilization / (1.0 - utilization)
    tn_latency = (rows.path_hops[rows.world, tn_path]
                  * rows.hop_latency_ms + queueing_ms
                  + cond.extra_latency_ms[rows.world])
    tn_latency = np.where((tn_cap <= 0) & (offered_bps > 0), np.inf,
                          tn_latency)
    if lap is not None:
        lap.lap("transport")

    # ---- core (set_slice_resources + oracle: CoreNetwork.evaluate) ---
    cpu_share = np.clip(cpu, 0.0, 1.0)
    per_cpu = cpu_share / rows.num_sgwu
    cpu_total = np.zeros(rows.num_rows)
    for j in range(int(rows.num_sgwu.max())):
        np.add(cpu_total, per_cpu, out=cpu_total,
               where=j < rows.num_sgwu)
    core_mu = cpu_total * rows.sgwu_capacity_pps
    core_lam = offered_bps / rows.mean_packet_bits
    has_mu = core_mu > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        core_util = np.where(has_mu, core_lam / core_mu,
                             np.where(core_lam > 0, 1.0, 0.0))
        queued = _queueing_rows(1e3 / np.where(has_mu, core_mu, 1.0),
                                core_util)
        core_latency = np.where(
            has_mu, rows.core_base_latency_ms + queued, np.inf)
    core_pps = np.where(has_mu, core_mu, 0.0)
    if lap is not None:
        lap.lap("core")

    # ---- edge (set_resources + oracle: EdgeServerPool.evaluate) ------
    edge_ram_gb = np.clip(ram, 0.0, 1.0) * rows.total_ram_gb
    work_rate = rates * rows.compute_units
    required_ram = work_rate * rows.ram_gb_per_ups
    needs_ram = required_ram > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ram_penalty = np.where(
            needs_ram & (edge_ram_gb < required_ram),
            np.maximum(edge_ram_gb
                       / np.where(needs_ram, required_ram, 1.0), 0.1),
            1.0)
    edge_mu_eff = cpu_share * rows.edge_capacity_ups * ram_penalty
    has_eff = edge_mu_eff > 0
    has_work = work_rate > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_eff = np.where(has_eff, edge_mu_eff, 1.0)
        edge_util = np.where(has_eff, work_rate / safe_eff,
                             np.where(has_work, 1.0, 0.0))
        edge_latency = np.where(
            has_eff, _queueing_rows(1e3 / safe_eff, edge_util),
            np.where(has_work, np.inf, 0.0))
    if lap is not None:
        lap.lap("edge")

    # ---- applications (oracle: evaluate_mar / _hvs / _rdc) -----------
    value = _evaluate_apps(rows, rates, ul_cap, dl_cap, ul_retx, dl_retx,
                           tn_cap, tn_latency, core_latency, core_pps,
                           edge_latency)
    satisfaction = _satisfaction_rows(rows, value)
    cost = 1.0 - satisfaction
    if lap is not None:
        lap.lap("apps")

    # ---- usage + state features --------------------------------------
    usage = np.zeros(rows.num_rows)         # +0.0 start (see Eq. 9 rule)
    for col in _USAGE_COLS:
        usage += raw[:, col]
    usage = usage / len(_USAGE_COLS)
    radio_usage = (ul_bw + dl_bw) * 0.5
    workload = (np.minimum(core_util, 1.0)
                + np.minimum(edge_util, 1.0)) * 0.5
    channel_quality = _user_sum(cqi, user_mask) / rows.users / NUM_CQI
    if lap is not None:
        lap.lap("state")

    return {
        "value": value,
        "satisfaction": satisfaction,
        "cost": cost,
        "usage": usage,
        "radio_usage": radio_usage,
        "workload": workload,
        "ul_capacity_bps": ul_cap,
        "dl_capacity_bps": dl_cap,
        "ul_retx": ul_retx,
        "dl_retx": dl_retx,
        "transport_latency_ms": tn_latency,
        "transport_rate_bps": tn_cap,
        "core_latency_ms": core_latency,
        "edge_latency_ms": edge_latency,
        "channel_quality": channel_quality,
        "path_loads": loads,
    }


def _radio_direction(rows: SliceRows, share: np.ndarray,
                     mcs_offset: np.ndarray, scheduler: np.ndarray,
                     base_mcs: np.ndarray, margin_pow: np.ndarray,
                     user_mask: np.ndarray, uplink: bool
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """One direction of the oracle's ``RadioCell.slice_capacity`` (with
    ``PhyModel.link_quality`` and ``scheduler_efficiency`` inlined) for
    all rows: ``(capacity_bps, mean retx)``.

    ``base_mcs`` and ``margin_pow`` are the direction-shared terms
    precomputed by :func:`evaluate_rows` (see the module Fusions
    section).
    """
    total = rows.ul_prbs_total if uplink else rows.dl_prbs_total
    duty = rows.uplink_fraction if uplink else rows.downlink_fraction
    base_retx = rows.base_retx_ul if uplink else rows.base_retx_dl
    decay = rows.decay_ul if uplink else rows.decay_dl

    prbs = np.rint(np.clip(share, 0.0, 1.0) * total)
    prbs = np.where((share > 1e-3) & (prbs == 0), 1.0, prbs)

    # per-user effective MCS and first-transmission error probability
    eff = _MCS_EFF[np.clip(base_mcs - mcs_offset[:, None], 0,
                           NUM_MCS - 1)]
    retx = np.clip((base_retx * decay ** mcs_offset)[:, None]
                   * margin_pow, 1e-9, 0.99)
    goodput = eff * (1.0 - retx) / (1.0 + retx)

    retx_mean = _user_sum(retx, user_mask) / rows.users
    mean_eff = _user_sum(goodput, user_mask) / rows.users
    best_eff = np.max(goodput, axis=1, initial=-np.inf, where=user_mask)
    agg = np.where(scheduler == 0, mean_eff,
                   np.where(scheduler == 2,
                            0.9 * best_eff + 0.1 * mean_eff,
                            0.6 * best_eff + 0.4 * mean_eff))
    capacity = (prbs * rows.prb_bandwidth_hz * duty * agg
                * (1.0 - rows.overhead))
    return capacity, retx_mean


def _mm1_rows(payload_bits: np.ndarray, capacity_bps: np.ndarray,
              demand_bps: np.ndarray) -> np.ndarray:
    """Vectorised ``_mm1_latency_ms`` of the oracle's app models."""
    has_cap = capacity_bps > 0
    safe_cap = np.where(has_cap, capacity_bps, 1.0)
    latency = _queueing_rows(payload_bits / safe_cap * 1e3,
                             demand_bps / safe_cap)
    return np.where(has_cap, latency, np.inf)


def _satisfaction_rows(rows: SliceRows,
                       measured: np.ndarray) -> np.ndarray:
    """Vectorised ``_satisfaction`` of the oracle (both orientations)."""
    target = rows.sla_target
    safe = np.where(measured > 0, measured, 1.0)
    with np.errstate(invalid="ignore"):
        lower_ratio = np.where(
            measured <= 0, 1.0,
            np.where(np.isfinite(measured), target / safe, 0.0))
        higher_ratio = measured / target
    return np.clip(np.where(rows.lower_better, lower_ratio,
                            higher_ratio), 0.0, 1.0)


def _evaluate_apps(rows: SliceRows, rates: np.ndarray,
                   ul_cap: np.ndarray, dl_cap: np.ndarray,
                   ul_retx: np.ndarray, dl_retx: np.ndarray,
                   tn_rate: np.ndarray, tn_latency: np.ndarray,
                   core_latency: np.ndarray, core_pps: np.ndarray,
                   edge_latency: np.ndarray) -> np.ndarray:
    """Dispatch the per-app performance models over all rows at once:
    each row's measured SLA metric."""
    # MAR: round-trip frame latency ------------------------------------
    ul_demand = rates * rows.ul_bits
    effective_ul = np.where(tn_rate > 0, np.minimum(ul_cap, tn_rate),
                            0.0)
    mar_latency = (rows.ran_base_latency_ms
                   + _mm1_rows(rows.ul_bits, effective_ul, ul_demand)
                   + _mm1_rows(rows.dl_bits, dl_cap,
                               rates * rows.dl_bits)
                   + 8.0 * (ul_retx + dl_retx)
                   + tn_latency + core_latency + edge_latency)

    # HVS: delivered FPS -----------------------------------------------
    target_fps = rows.sla_target
    hvs_demand = rates * target_fps * rows.dl_bits
    supply = np.minimum(np.minimum(dl_cap, tn_rate),
                        core_pps * rows.mean_packet_bits)
    hvs_fps = (target_fps
               * np.minimum(supply / np.where(hvs_demand > 0,
                                              hvs_demand, 1.0), 1.0)
               * (1.0 - 0.5 * dl_retx))
    hvs_fps = np.where(hvs_demand <= 0, target_fps, hvs_fps)

    # RDC: radio transmission reliability ------------------------------
    # msg_bps == rates * ul_bits == ul_demand (see Fusions)
    sending = ul_demand > 0
    safe_msg = np.where(sending, ul_demand, 1.0)
    reliability = ((1.0 - ul_retx) * (1.0 - dl_retx)
                   * np.where(sending,
                              np.minimum(ul_cap / safe_msg, 1.0), 1.0)
                   * np.where(sending,
                              np.minimum(dl_cap / safe_msg, 1.0), 1.0))

    # one column per APP_CODES value, in code order
    return np.choose(rows.app, [mar_latency, hvs_fps, reliability])
