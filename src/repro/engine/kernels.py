"""Vectorised slot kernels: the paper's MDP as flat array math.

This module is the one numeric model of the testbed: the only code
under ``src/`` that turns (allocation, traffic, channel, link
conditions) into a performance number.  It evaluates one configuration
slot for ``R`` (world, slice) *rows* at once; :mod:`repro.sim` holds
the state it reads (channels, link conditions, slice specs, the PHY
tables and BLER constants), :mod:`repro.config` the rest, and neither
holds any of the arithmetic.  The per-slice scalar pipeline these
kernels were extracted from survives, verbatim, as their test oracle
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
scalar oracle itself (``rtol=1e-9``; observed <= 3e-16).  The
one-direction kernel this module replaced is kept verbatim in
``tests/kernel_oracle.py``; ``tests/test_kernel_oracle.py`` holds
every output array to it byte for byte (sign bits included) over
random bundles far outside the catalog.

Operation order
~~~~~~~~~~~~~~~
The kernels are plain numpy expressions that return fresh arrays.
What carries the parity contract is the order of operations, so every
expression keeps the association of the code it reproduces, and:

* **Column pairs.**  What the scalar code evaluated twice, once per
  direction or per domain, is one broadcast over a leading axis of
  two: the uplink and the downlink (``(2, R)``, and ``(U, 2, R)`` per
  user), the core's and the edge's queueing law (``(2, R)``: core,
  edge) and MAR's two M/M/1 legs (``(2, R)``: UL, DL).  Elementwise
  ufuncs do not care how their operands are shaped, so each element
  is the value the one-direction expression computed.  The paired
  :class:`SliceRows` constants are two adjacent rows of its float
  block, bound as ``(2, R)`` views, so they meet the pairs as they
  are.
* **Selection, not arithmetic.** Branches are ``np.where`` (or
  ``choose`` over the app codes): a pure element selection,
  identical for every value including ``inf``/``nan``.
* **Masked strict-order sums.** The scalar-mirroring left-to-right
  accumulations (user axis, SGW-U instances) keep their loops and
  their ``+0.0`` start, adding lane ``j`` with ``np.add(acc, v,
  out=acc, where=m)``.  Skipping a masked lane is bit-identical to
  adding ``0.0`` here: every summand is non-negative, so ``acc + 0.0
  == acc`` exactly (no ``-0.0`` can arise).  The five user means
  (retx and goodput per direction, and the CQI) share one such loop
  over a ``(U, 5, R)`` stack: still one add per user, in user order.
* **Eq. 9 usage** sums the raw action columns in column order from an
  explicit ``+0.0`` start: ``0.0 + (-0.0)`` is ``+0.0``, so starting
  from the first column would flip the sign of a ``-0.0`` action.
* **Masked max.** ``np.maximum.reduce(goodput, axis=0,
  initial=-inf, where=mask)`` (the reduction ``np.max`` calls) -- the
  padded lanes never enter it (goodput is always finite: retx is
  clipped to ``[1e-9, 0.99]``), and a maximum does not depend on the
  order it meets its operands in.
* **Path loads** accumulate with ``np.add.at`` in row order, at the
  flat ``(world, path)`` index of a row's path.  An unattached row
  (``rows.active`` false) adds ``tn_cap * False``, exactly ``+0.0``,
  which leaves a running sum as it was (loads start at ``+0.0`` or
  above, so no ``-0.0`` meets it); an attached one adds ``tn_cap *
  True``, ``tn_cap`` bit for bit: the attached rows' sum as alone.
* **Integer decodes** (MCS offsets, schedulers, transport path) keep
  their truncating ``astype(np.intp)`` casts.
* **Error scopes.** The ``np.errstate`` blocks cover exactly the
  divisions they always covered; the one whose division is gone went
  with it (see Fusions).  ``tests/test_kernel_oracle.py`` compares
  the warnings raised, too.
* **Per-layout values.**  A :class:`SliceRows` keeps its per-row
  constants in one ``(F, R)`` float64 and one ``(I, R)`` intp block,
  one column per row, so a build or a splice moves each block with
  one array call.  Every constant the kernels read is a
  contiguous row view of a block, and the values derived from the
  layout alone (:data:`DERIVED`: the user mask, the SGW-U instance
  mask, the fixed-MCS mask, ``1 - overhead``, the last path and the
  flat path index base) are arrays beside them; both are made on
  first read (:meth:`SliceRows.__getattr__`) and kept on the layout,
  so no accessor runs per slot and only a layout the kernels
  evaluate pays for them -- the spliced bundle, not the per-world
  layouts it is cut from.  Neither is a field, so no splice carries
  a stale one.  A channel block wider than the layout's
  widest slice is cut to it: the lanes past it are padding every row
  masks.

Fusions
~~~~~~~
The fused chains below eliminate redundant *passes*, never reassociate
a float expression; each is bit-exact for the stated reason:

* ``-margin_db / 6.0`` is computed as ``margin_db / -6.0`` (IEEE sign
  manipulation is exact: both equal ``-(margin_db / 6.0)`` bitwise).
* The per-user retx margin factor ``10 ** (-margin_db / 6)`` and the
  MCS base table (``clip(2*cqi - 2)`` overridden by ``fixed_mcs``)
  are direction-independent, so they are computed once and broadcast
  over the direction pair (the historical code evaluated the
  identical expression twice).
* ``msg_bps`` in the RDC model is the MAR uplink demand: both are
  exactly ``rates * ul_bits``.
* Multiplications by the literal ``1.0`` (edge ``work_rate * 1.0``,
  edge service time ``* 1.0``, and the ``* np.ones((1, P))``
  broadcast in the transport load seed) are dropped: ``x * 1.0 == x``
  bitwise for every float, so the seed is a broadcast copy.
* **Clips that are identities by construction are dropped.**  The
  decoded radio shares, ``tn_bw``, ``cpu`` and ``ram`` are
  ``maximum(clip(a, 0, 1), 0.01)``, so they lie in ``[0.01, 1]`` (or
  are NaN, which ``np.clip`` returns unchanged): the radio's
  ``clip(share, 0, 1)``, the transport's ``clip(tn_bw, 0, 1)`` (so
  the meter rate ``tn_bw * eff_cap`` is computed once, for the
  reservation and the rate alike), the core's and the edge's
  ``clip(cpu, 0, 1)`` and the edge's ``clip(ram, 0, 1)`` all
  returned their input.  For the same reason the PRB floor's
  ``share > 1e-3`` test is always true where ``prbs == 0`` can hold
  (a NaN share makes NaN PRBs), so the floor is ``where(prbs == 0,
  1, prbs)``.
* **``np.clip`` becomes ``np.minimum`` / ``np.maximum`` only where
  no signed zero or NaN can tell them apart** (``np.clip`` keeps a
  ``-0.0`` at a ``0`` bound that ``np.maximum`` may turn into
  ``+0.0``; both pass a NaN through):

  - the action decode ``clip(raw, 0, 1)``: it differs at most in the
    sign of a zero, and each reader of it is ``maximum(., 0.01)`` or
    a truncating integer cast, which map both zeros to one value;
  - the schedulers' ``clip(3 a, 0, 2)`` and the path's ``clip(a P,
    0, P - 1)`` are ``minimum(3 a, 2)`` and ``minimum(a P, P - 1)``:
    with ``a`` in ``[0, 1]`` the lower bound only ever meets a zero,
    whose sign the ``intp`` cast erases;
  - the integer MCS clips are ``take(..., mode="clip")`` lookups:
    ``_MCS_EFF`` has ``NUM_MCS`` entries, and ``_BASE_MCS`` tabulates
    ``clip(2 cqi - 2, 0, NUM_MCS - 1)`` up to a CQI where it is
    saturated at both ends, so clipping the index is clipping the
    value;
  - the retx clip to ``[1e-9, 0.99]``: neither bound is a zero.

  ``_satisfaction_rows`` keeps ``np.clip``, though not for the
  reason once given (a negative link capacity, which
  ``TransportConfig`` now refuses, as the config refuses negative
  capacities, latencies and splits and non-positive SLA targets).
  Instrumented over the byte-equality oracle's random bundles and
  the golden-digest, fuzz, engine, stepper and baseline suites
  (134 519 ratios), the clip met no ``-0.0`` and
  ``minimum(maximum(.))`` differed from it nowhere.  But a
  :class:`SliceRows` checks nothing itself: a row built by hand
  (``tests/kernel_oracle.py::rows_from_fields``) with a negative
  capacity or duty can still hand it a ``-0.0``, so the swap's
  exactness would rest on every caller, not on the kernel.
* The core and edge utilisation is ``where(has_mu, lam / safe_mu,
  lam > 0)``: where ``has_mu`` holds, ``safe_mu`` is ``mu``, and the
  boolean fallback casts to exactly the ``1.0`` / ``0.0`` the
  historical inner ``where`` selected.  Dividing by ``safe_mu``, never
  zero, instead of ``mu`` leaves the ``np.errstate`` block the
  historical ``lam / mu`` needed with nothing to cover, so it is gone
  (the queueing law keeps its own).
* The integer ``users`` / ``num_paths`` / ``num_sgwu`` columns enter
  float expressions directly: numpy promotes them to float64 inside
  the ufunc, which is exact for these small counts and is the
  promotion the historical mixed-dtype expressions made.

Stage laps
~~~~~~~~~~
The seven ``engine.kernel.*`` laps keep their order.  The radio lap
also computes the CQI mean of the ``channel_quality`` feature (it
rides the radio's user sum); the edge lap pays for the core's and the
edge's shared queueing call and both of their latency selections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import (
    MAX_MCS_OFFSET,
    NUM_ACTIONS,
    USAGE_ACTION_INDICES,
)
from repro.obs.trace import active as _active_tracer
from repro.sim.phy import (
    BASE_RETX,
    BLER_DECAY,
    MCS_TABLE,
    NUM_CQI,
    NUM_MCS,
)

#: MCS spectral-efficiency table as an array (same values as the
#: scalar lookups in :mod:`repro.sim.phy`).
_MCS_EFF = np.asarray(MCS_TABLE, dtype=np.float64)

#: Base MCS of CQI ``0 .. NUM_MCS``, ``clip(2 * cqi - 2, 0, NUM_MCS -
#: 1)``: saturated at both ends, so a ``mode="clip"`` take of it is
#: that expression for every integer CQI (see Fusions).
_BASE_MCS = np.clip(np.arange(NUM_MCS + 1) * 2 - 2, 0, NUM_MCS - 1)

#: Usage-counted action columns (paper Eq. 9).
_USAGE_COLS = tuple(USAGE_ACTION_INDICES)

#: Consumable-share floor: the minimum share every admitted slice is
#: granted.  Domain managers never configure a literal zero for an
#: active bearer/meter/container -- a 0-rate OpenFlow meter or a 0-CPU
#: cgroup would black-hole the slice entirely -- so requests below the
#: floor are rounded up (oracle: ``SliceAllocation.MIN_SHARE``).
_MIN_SHARE = 0.01

#: Utilisation where the queueing law's M/M/1 regime hands over to
#: the linear overload regime (see :func:`_queueing_rows`).
RHO_KNEE = 0.95

#: Application codes used by the row layout.
APP_CODES: Dict[str, int] = {"mar": 0, "hvs": 1, "rdc": 2}

#: Monotonic SliceRows layout tokens (the stepper's bundle cache keys
#: -- unlike ``id()``, never reused after a reshape frees a layout).
_ROWS_UIDS = itertools.count(1)


def _queueing_rows(service_ms: np.ndarray,
                   rho: np.ndarray) -> np.ndarray:
    """The shared queueing-latency law of the RAN partitions, the
    SPGW-U packet processing and the edge compute.

    M/M/1 below the knee utilisation, then a linear finite-buffer
    overload regime whose slope matches the M/M/1 derivative at the
    knee: a real queue degrades under overload rather than becoming
    instantly infinite, and the smooth mapping gives the agents a
    gradient across the overload boundary.  Branch structure and float
    association exactly as the oracle's scalar ``queueing_latency_ms``.
    """
    r = np.maximum(rho, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        below = service_ms / (1.0 - r)
        above = (service_ms / (1.0 - RHO_KNEE)
                 + service_ms / (1.0 - RHO_KNEE) ** 2 * (r - RHO_KNEE))
    return np.where(r < RHO_KNEE, below, above)


#: The named rows of :class:`SliceRows`' ``(F, R)`` float block, in
#: block order: sixteen per-row scalars ...
FLOAT_COLUMNS = (
    "max_arrival", "sum_bits", "compute_units", "sla_target",
    "cost_threshold", "prb_bandwidth_hz", "overhead",
    "ran_base_latency_ms", "link_capacity_bps", "hop_latency_ms",
    "sgwu_capacity_pps", "core_base_latency_ms", "mean_packet_bits",
    "edge_capacity_ups", "total_ram_gb", "ram_gb_per_ups")
#: ... then five uplink / downlink pairs, two rows each (uplink first),
#: bound as ``(2, R)`` views.
PAIR_COLUMNS = ("payload_bits", "prbs_total", "duty", "base_retx",
                "bler_decay")
#: The named rows of the ``(I, R)`` intp block (``fixed_mcs`` is -1
#: under link adaptation).
INT_COLUMNS = ("world", "app", "fixed_mcs", "num_paths", "num_sgwu",
               "users")
#: Everything that describes a row layout, block by block and then
#: column by column: what two layouts are compared on (all but
#: ``uid`` and the :data:`DERIVED` values).
COLUMNS = (("names", "metrics", "num_worlds", "floats", "ints",
            "lower_better", "path_hops", "link_capacity_w")
           + FLOAT_COLUMNS + PAIR_COLUMNS + INT_COLUMNS)
#: What :class:`SliceRows` derives from its columns, on first read
#: of any.
DERIVED = ("user_mask", "sgwu_mask", "fixed_on", "net_share",
           "last_path", "path_base")
#: The names :class:`SliceRows` binds as row views of its blocks.
_BOUND = frozenset(FLOAT_COLUMNS + PAIR_COLUMNS + INT_COLUMNS)

_NUM_FLOATS = len(FLOAT_COLUMNS) + 2 * len(PAIR_COLUMNS)


def slice_column(cfg, spec) -> Tuple[np.ndarray, np.ndarray]:
    """The row constants of slice ``spec`` (a :class:`~repro.config
    .SliceSpec`) on a network configured by ``cfg`` (a
    :class:`~repro.config.NetworkConfig`), its ``(F,)`` float and
    ``(I,)`` int entries (``world`` 0): the one place a row is made
    from configuration, for :func:`rows_for_network`.  Both
    directions own the cell's ``num_prbs``; each block is one array
    built from one tuple, in block order."""
    ran, transport, core, edge = cfg.ran, cfg.transport, cfg.core, cfg.edge
    floats = np.array(
        (spec.max_arrival_rate,
         spec.uplink_payload_bits + spec.downlink_payload_bits,
         spec.compute_units, spec.sla.target, spec.sla.cost_threshold,
         ran.prb_bandwidth_hz, ran.overhead, ran.base_latency_ms,
         transport.link_capacity_bps, transport.hop_latency_ms,
         core.sgwu_capacity_pps, core.base_latency_ms,
         core.mean_packet_bits, edge.compute_capacity_ups,
         edge.total_ram_gb, edge.ram_gb_per_ups,
         spec.uplink_payload_bits, spec.downlink_payload_bits,
         ran.num_prbs, ran.num_prbs,
         ran.uplink_fraction, ran.downlink_fraction,
         *BASE_RETX, *BLER_DECAY), dtype=np.float64)
    ints = np.array((0, APP_CODES[spec.app], ran.fixed_mcs,
                     transport.num_paths, core.num_sgwu_per_slice,
                     cfg.users_per_slice), dtype=np.intp)
    return floats, ints


@dataclass
class SliceRows:
    """Static per-row constants for a set of (world, slice) rows.

    A one-world layout is its network's (:meth:`~repro.sim.network
    .EndToEndNetwork.slot_rows`): built once from its rows'
    :func:`slice_column`, one per slice the network can hold; the
    batch engine splices them across worlds.  The per-row
    constants live in two blocks, ``floats`` (``(F, R)``, the rows of
    :data:`FLOAT_COLUMNS` then :data:`PAIR_COLUMNS`) and ``ints``
    (``(I, R)``, the rows of :data:`INT_COLUMNS`), so a splice or a
    repeat moves each block with one array call; every named column
    is a contiguous row view of its block, bound on first read.
    ``lower_better`` is per row too; ``path_hops`` (``(W, Pmax)``,
    zero-padded) and ``link_capacity_w`` (``(W,)``) are per world.

    ``active`` (``(R,)`` bool, every row unless set) is the one
    per-row value that is state: which rows are attached.  A network's
    rows hold its own mask, which churn flips in place; a splice joins
    copies of its runs' masks, which the batch engine keeps current.
    """

    names: List[str]                  # row slice names, world-major
    metrics: List[str]                # SLA metric name per row
    num_worlds: int
    floats: np.ndarray                # (F, R) float64
    ints: np.ndarray                  # (I, R) intp
    lower_better: np.ndarray          # (R,) bool
    path_hops: np.ndarray             # (W, Pmax) int, padded
    link_capacity_w: np.ndarray       # (W,)

    #: Unique layout token; the stepper keys its cached bundle on
    #: this, so a reshaped network's layout is always a new key.
    uid: int = field(default_factory=lambda: next(_ROWS_UIDS))

    def __getattr__(self, name: str):
        """Make the named columns, or the :data:`DERIVED` values the
        kernels read every slot, on the first read of one (Python
        calls this only for a name the instance does not hold yet):
        a layout that is only spliced pays for neither, and as neither
        is a field, no splice carries a stale one.  ``active`` reads
        every row as attached until an owner sets it."""
        columns = vars(self)
        if name in _BOUND:
            floats = columns["floats"]
            first = len(FLOAT_COLUMNS)
            columns.update(zip(FLOAT_COLUMNS, floats[:first]))
            columns.update(zip(PAIR_COLUMNS, floats[first:].reshape(
                len(PAIR_COLUMNS), 2, floats.shape[1])))
            columns.update(zip(INT_COLUMNS, columns["ints"]))
        elif name in DERIVED:
            users, num_sgwu = self.users, self.num_sgwu
            #: (U, R): user lane j of row r is one of the row's users
            columns["user_mask"] = (
                np.arange(int(users.max(initial=0)))[:, None] < users)
            #: (K, R): SGW-U instance j of row r exists
            columns["sgwu_mask"] = (
                np.arange(int(num_sgwu.max(initial=0)))[:, None]
                < num_sgwu)
            columns["fixed_on"] = self.fixed_mcs >= 0
            columns["net_share"] = 1.0 - self.overhead
            columns["last_path"] = self.num_paths - 1
            #: flat index of each row's world's path 0 in a (W, Pmax)
            #: table
            columns["path_base"] = self.world * self.path_hops.shape[1]
        elif name == "active":
            columns["active"] = np.ones(self.num_rows, dtype=bool)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}")
        return columns[name]

    @property
    def num_rows(self) -> int:
        return len(self.names)

    def repeat(self, n: int) -> "SliceRows":
        """``n`` copies of this one-world bundle, each its own world.

        Column for column ``concat_rows([self] * n)``.  The transport
        kernel sums path loads per world, so every copy is evaluated
        exactly as it would be alone -- ``n`` independent testbeds in
        one :func:`evaluate_rows` call.
        """
        return splice_rows([(self, 0, self.num_worlds)], n)


def rows_for_network(network) -> SliceRows:
    """Build the static row constants of one world's current slices,
    as world 0 of a one-world bundle.

    ``network`` is an :class:`~repro.sim.network.EndToEndNetwork`;
    rows follow ``network.row_specs`` (held and spare slices alike,
    attached or not -- the layout's ``active`` is the network's own
    mask, and the caller masks managed rows, exactly as the scalar
    simulator reports only managed slices), one :func:`slice_column`
    each, read from ``network.cfg`` and :mod:`repro.sim.phy`; reserved
    path ``k`` is a chain of ``2 + path_extra_hops[k]`` links.
    """
    cfg = network.cfg
    transport = cfg.transport
    specs = network.row_specs
    columns = [slice_column(cfg, spec) for spec in specs]
    n = len(columns)
    rows = SliceRows(
        names=[spec.name for spec in specs],
        metrics=[spec.sla.metric for spec in specs],
        num_worlds=1,
        floats=np.array([floats for floats, _ in columns]).reshape(
            n, _NUM_FLOATS).T.copy(),
        ints=np.array([ints for _, ints in columns],
                      dtype=np.intp).reshape(n, len(INT_COLUMNS)).T.copy(),
        lower_better=np.array([spec.sla.lower_is_better
                               for spec in specs], dtype=bool),
        path_hops=np.array([[2 + extra for extra
                             in transport.path_extra_hops]],
                           dtype=np.intp),
        link_capacity_w=np.array([transport.link_capacity_bps]),
    )
    rows.active = network.active
    return rows


def splice_rows(runs: Sequence[Tuple[SliceRows, int, int]],
                copies: int = 1) -> SliceRows:
    """Worlds ``lo:hi`` of each ``(rows, lo, hi)`` run, in order, the
    whole sequence laid out ``copies`` times: one bundle, its worlds
    renumbered in output order.

    The one join of :func:`concat_rows`, :meth:`SliceRows.repeat` and
    the batch engine's bundle splice: each block, ``lower_better``,
    ``active`` (a copy), ``link_capacity_w`` and the name lists join
    with one call over the runs' slices (and one ``tile`` for the
    copies); the per-world
    ``path_hops`` tables are padded to the widest kept world's path
    count (a run cut from a bundle brings that bundle's padding, which
    is dropped: a hop count is at least 2, a pad is 0); ``uid`` is
    fresh.
    """
    if not runs or copies < 1:
        raise ValueError("need at least one world")
    floats, ints, lower_better, active, capacity, tables = (
        [], [], [], [], [], [])
    names: List[str] = []
    metrics: List[str] = []
    shifts, sizes = [], []
    num_worlds = width = 0
    for rows, lo, hi in runs:
        if lo == 0 and hi == rows.num_worlds:
            first, last = 0, rows.num_rows
        else:
            first, last = rows.world.searchsorted((lo, hi)).tolist()
        floats.append(rows.floats[:, first:last])
        ints.append(rows.ints[:, first:last])
        lower_better.append(rows.lower_better[first:last])
        active.append(rows.active[first:last])
        capacity.append(rows.link_capacity_w[lo:hi])
        tables.append(rows.path_hops[lo:hi])
        names += rows.names[first:last]
        metrics += rows.metrics[first:last]
        shifts.append(num_worlds - lo)
        sizes.append(last - first)
        num_worlds += hi - lo
        if rows.path_hops.shape[1] > width:     # count the kept paths
            width = max(width, int(np.count_nonzero(
                rows.path_hops[lo:hi], axis=1).max(initial=0)))
    floats = np.concatenate(floats, axis=1)
    ints = np.concatenate(ints, axis=1)
    ints[0] += np.repeat(shifts, sizes)
    lower_better = np.concatenate(lower_better)
    active = np.concatenate(active)
    capacity = np.concatenate(capacity)
    hops = np.zeros((num_worlds, width), dtype=tables[0].dtype)
    first = 0
    for table in tables:
        hops[first:first + len(table), :table.shape[1]] = table[:, :width]
        first += len(table)
    if copies > 1:
        rows_per_copy = len(names)
        floats = np.tile(floats, copies)
        ints = np.tile(ints, copies)
        ints[0] += np.repeat(num_worlds * np.arange(copies),
                             rows_per_copy)
        lower_better = np.tile(lower_better, copies)
        active = np.tile(active, copies)
        capacity = np.tile(capacity, copies)
        hops = np.tile(hops, (copies, 1))
        names, metrics = names * copies, metrics * copies
    out = SliceRows(names=names, metrics=metrics,
                    num_worlds=num_worlds * copies, floats=floats,
                    ints=ints, lower_better=lower_better,
                    path_hops=hops, link_capacity_w=capacity)
    out.active = active
    return out


def concat_rows(parts: Sequence[SliceRows]) -> SliceRows:
    """Concatenate row bundles into one multi-world bundle.

    World indices are renumbered 0..W-1 in ``parts`` order; the
    per-world path-hops tables are padded to the widest path count.
    A run of worlds of an existing bundle joins through
    :func:`splice_rows` without being cut out first.
    """
    return splice_rows([(part, 0, part.num_worlds) for part in parts])


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

    def refresh(self, networks) -> "WorldConditions":
        """Re-read the networks' link conditions into the existing
        buffers (no allocs).

        Scalar element stores only, so a per-slot caller (the batch
        engine's hot loop) can keep one instance alive instead of
        rebuilding three arrays every slot.
        """
        capacity = self.capacity_scale
        extra = self.extra_latency_ms
        background = self.background_load_fraction
        for index, network in enumerate(networks):
            capacity[index] = network.capacity_scale
            extra[index] = network.extra_latency_ms
            background[index] = network.background_load_fraction
        return self


def _user_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum over the leading (user) axis in strict left-to-right order.

    Mirrors the scalar per-user ``+=`` accumulation; ``mask[j]`` masks
    user ``j`` and masked (padded) lanes are skipped, which is
    bit-identical to the historical ``+ np.where(mask, values, 0.0)``
    because the accumulator starts at ``+0.0`` and every summand is
    non-negative.
    """
    total = np.zeros(values.shape[1:])
    for user, lane in zip(values, mask):
        np.add(total, user, out=total, where=lane)
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

    Returns a dict of fresh ``(R,)`` arrays covering every
    :class:`~repro.sim.network.SlotReport` field; no input is written.

    Tracing: with a :class:`~repro.obs.trace.Tracer` installed, each
    stage boundary below laps one ``engine.kernel.<stage>`` row into
    it (under ``engine.step/engine.kernel`` on the stepper).  The laps
    never touch the arrays, so the parity contract is unaffected; when
    tracing is off the hook is one module-global read.
    """
    tracer = _active_tracer()
    if tracer is not None:
        mark = tracer.clock()
    raw = np.asarray(actions)
    if raw.shape != (rows.num_rows, NUM_ACTIONS):
        raise ValueError(
            f"actions must have shape ({rows.num_rows}, {NUM_ACTIONS})"
            f", got {raw.shape}")

    # ---- action decode (oracle: SliceAllocation.from_action) ---------
    # (2, R) pairs: the UL / DL action columns (0, 3), (1, 4), (2, 5)
    arr = np.minimum(np.maximum(raw, 0.0), 1.0)
    floors = np.maximum(arr, _MIN_SHARE)
    share = floors[:, 0:4:3].T
    tn_bw, cpu, ram = floors[:, 6], floors[:, 8], floors[:, 9]
    offset = np.rint(arr[:, 1:5:3].T * MAX_MCS_OFFSET).astype(np.intp)
    # MAC scheduler per third of [0, 1]: 0 round robin, 1 proportional
    # fair, 2 max-CQI
    sched = np.minimum(arr[:, 2:6:3].T * 3, 2).astype(np.intp)
    tn_path = np.minimum(arr[:, 7] * rows.num_paths,
                         rows.last_path).astype(np.intp)
    if tracer is not None:
        mark = tracer.lap("engine.kernel.decode", mark)

    # ---- RAN capacities (oracle: the cell's slice_capacity) ----------
    # One (U, 2, R) pass over both directions, on user lanes stacked
    # with the CQI so that one strict-order sum averages all five.
    width = min(cqi.shape[1], len(rows.user_mask))
    cqi, margin_db = cqi[:, :width].T, margin_db[:, :width].T
    margin_pow = 10.0 ** (margin_db / -6.0)
    base_mcs = np.where(rows.fixed_on, rows.fixed_mcs,
                        _BASE_MCS.take(cqi, mode="clip"))
    lanes = np.empty((width, 5, rows.num_rows))
    retx, goodput = lanes[:, :2], lanes[:, 2:4]
    np.multiply(rows.base_retx * rows.bler_decay ** offset,
                margin_pow[:, None], out=retx)
    np.minimum(np.maximum(retx, 1e-9, out=retx), 0.99, out=retx)
    eff = _MCS_EFF.take(base_mcs[:, None] - offset, mode="clip")
    np.divide(eff * (1.0 - retx), 1.0 + retx, out=goodput)
    lanes[:, 4] = cqi
    means = _user_sum(lanes, rows.user_mask) / rows.users
    retx_mean, mean_eff = means[:2], means[2:4]
    best_eff = np.maximum.reduce(goodput, axis=0, initial=-np.inf,
                                 where=rows.user_mask[:width, None])
    agg = np.where(sched == 0, mean_eff,
                   np.where(sched == 2,
                            0.9 * best_eff + 0.1 * mean_eff,
                            0.6 * best_eff + 0.4 * mean_eff))
    prbs = np.rint(share * rows.prbs_total)
    capacity = (np.where(prbs == 0, 1.0, prbs) * rows.prb_bandwidth_hz
                * rows.duty * agg * rows.net_share)
    if tracer is not None:
        mark = tracer.lap("engine.kernel.radio", mark)

    # ---- transport (oracle: the fabric's reserve + evaluate) ---------
    eff_cap_w = rows.link_capacity_w * cond.capacity_scale
    eff_cap = eff_cap_w[rows.world]
    tn_cap = tn_bw * eff_cap                # the reserved meter rate
    loads = (cond.background_load_fraction * eff_cap_w)[:, None].repeat(
        rows.path_hops.shape[1], axis=1)
    lane = rows.path_base + tn_path         # flat (world, path) index
    np.add.at(loads.reshape(-1), lane, tn_cap * rows.active)
    offered_bps = rates * rows.sum_bits
    utilization = np.minimum(loads.take(lane) / eff_cap, 0.99)
    queueing_ms = rows.hop_latency_ms * utilization / (1.0 - utilization)
    tn_latency = (rows.path_hops.take(lane) * rows.hop_latency_ms
                  + queueing_ms + cond.extra_latency_ms[rows.world])
    tn_latency = np.where((tn_cap <= 0) & (offered_bps > 0), np.inf,
                          tn_latency)
    if tracer is not None:
        mark = tracer.lap("engine.kernel.transport", mark)

    # ---- core (oracle: CoreNetwork.set_slice_resources + evaluate) ---
    # service rates and loads as (2, R) pairs: core, edge
    mu = np.empty((2, rows.num_rows))
    lam = np.empty((2, rows.num_rows))
    per_cpu = cpu / rows.num_sgwu
    cpu_total = np.zeros(rows.num_rows)
    for sgwu in rows.sgwu_mask:
        np.add(cpu_total, per_cpu, out=cpu_total, where=sgwu)
    np.multiply(cpu_total, rows.sgwu_capacity_pps, out=mu[0])
    np.divide(offered_bps, rows.mean_packet_bits, out=lam[0])
    if tracer is not None:
        mark = tracer.lap("engine.kernel.core", mark)

    # ---- edge (oracle: EdgeServerPool.set_resources + evaluate) ------
    # ... and the core's and the edge's queueing law, as one pair
    edge_ram_gb = ram * rows.total_ram_gb
    work_rate = np.multiply(rates, rows.compute_units, out=lam[1])
    required_ram = work_rate * rows.ram_gb_per_ups
    needs_ram = required_ram > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ram_penalty = np.where(
            needs_ram & (edge_ram_gb < required_ram),
            np.maximum(edge_ram_gb
                       / np.where(needs_ram, required_ram, 1.0), 0.1),
            1.0)
    np.multiply(cpu * rows.edge_capacity_ups, ram_penalty, out=mu[1])
    has_mu = mu > 0
    safe_mu = np.where(has_mu, mu, 1.0)
    util = np.where(has_mu, lam / safe_mu, lam > 0)
    queued = _queueing_rows(1e3 / safe_mu, util)
    core_latency = np.where(has_mu[0],
                            rows.core_base_latency_ms + queued[0],
                            np.inf)
    core_pps = np.where(has_mu[0], mu[0], 0.0)
    edge_latency = np.where(has_mu[1], queued[1],
                            np.where(work_rate > 0, np.inf, 0.0))
    if tracer is not None:
        mark = tracer.lap("engine.kernel.edge", mark)

    # ---- applications (oracle: evaluate_mar / _hvs / _rdc) -----------
    value = _evaluate_apps(rows, rates, capacity, retx_mean, tn_cap,
                           tn_latency, core_latency, core_pps,
                           edge_latency)
    satisfaction = _satisfaction_rows(rows, value)
    cost = 1.0 - satisfaction
    if tracer is not None:
        mark = tracer.lap("engine.kernel.apps", mark)

    # ---- usage + state features --------------------------------------
    usage = np.zeros(rows.num_rows)         # +0.0 start (see Eq. 9 rule)
    for col in _USAGE_COLS:
        usage += raw[:, col]
    usage = usage / len(_USAGE_COLS)
    radio_usage = (share[0] + share[1]) * 0.5
    busy = np.minimum(util, 1.0)
    workload = (busy[0] + busy[1]) * 0.5
    channel_quality = means[4] / NUM_CQI
    if tracer is not None:
        tracer.lap("engine.kernel.state", mark)

    return {
        "value": value,
        "satisfaction": satisfaction,
        "cost": cost,
        "usage": usage,
        "radio_usage": radio_usage,
        "workload": workload,
        "ul_capacity_bps": capacity[0],
        "dl_capacity_bps": capacity[1],
        "ul_retx": retx_mean[0],
        "dl_retx": retx_mean[1],
        "transport_latency_ms": tn_latency,
        "transport_rate_bps": tn_cap,
        "core_latency_ms": core_latency,
        "edge_latency_ms": edge_latency,
        "channel_quality": channel_quality,
    }


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
                   capacity: np.ndarray, retx: np.ndarray,
                   tn_rate: np.ndarray, tn_latency: np.ndarray,
                   core_latency: np.ndarray, core_pps: np.ndarray,
                   edge_latency: np.ndarray) -> np.ndarray:
    """Dispatch the per-app performance models over all rows at once:
    each row's measured SLA metric.  ``capacity`` and ``retx`` are the
    radio's ``(2, R)`` UL / DL pairs."""
    ul_cap, dl_cap = capacity
    ul_retx, dl_retx = retx
    demand = rates * rows.payload_bits

    # MAR: round-trip frame latency; both M/M/1 legs as one pair, the
    # uplink's through the slower of the radio and the meter --------
    link = capacity.copy()
    link[0] = np.where(tn_rate > 0, np.minimum(ul_cap, tn_rate), 0.0)
    legs = _mm1_rows(rows.payload_bits, link, demand)
    mar_latency = (rows.ran_base_latency_ms + legs[0] + legs[1]
                   + 8.0 * (ul_retx + dl_retx)
                   + tn_latency + core_latency + edge_latency)

    # HVS: delivered FPS -----------------------------------------------
    target_fps = rows.sla_target
    hvs_demand = rates * target_fps * rows.payload_bits[1]
    supply = np.minimum(np.minimum(dl_cap, tn_rate),
                        core_pps * rows.mean_packet_bits)
    hvs_fps = (target_fps
               * np.minimum(supply / np.where(hvs_demand > 0,
                                              hvs_demand, 1.0), 1.0)
               * (1.0 - 0.5 * dl_retx))
    hvs_fps = np.where(hvs_demand <= 0, target_fps, hvs_fps)

    # RDC: radio transmission reliability ------------------------------
    # msg_bps == rates * ul_bits == the uplink demand (see Fusions)
    sending = demand[0] > 0
    safe_msg = np.where(sending, demand[0], 1.0)
    fill = np.where(sending, np.minimum(capacity / safe_msg, 1.0), 1.0)
    good = 1.0 - retx
    reliability = good[0] * good[1] * fill[0] * fill[1]

    # one column per APP_CODES value, in code order
    return rows.app.choose([mar_latency, hvs_fps, reliability])
