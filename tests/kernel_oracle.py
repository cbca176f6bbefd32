"""The slot kernel as it was before its paired-column rewrite.

``repro.engine.kernels.evaluate_rows`` evaluates the uplink and the
downlink, the core and the edge queueing laws, and MAR's two M/M/1
legs as column pairs, with its per-layout masks built once with the
:class:`~repro.engine.kernels.SliceRows`.  The one-direction
kernel it replaced is kept below verbatim (``evaluate_rows``,
``_radio_direction``, ``_evaluate_apps``, ``_satisfaction_rows``,
``_mm1_rows``, ``_queueing_rows`` and its ``_user_sum``) as the
oracle ``tests/test_kernel_oracle.py`` holds the rewrite to, byte for
byte.  It reads the row constants through :func:`parent_rows`, which
splits the paired columns back into the one-direction fields this
code was written against; :func:`rows_from_fields` builds a layout
from one keyword per column, as random test worlds and the scalar
oracle's row constructor name them, and :func:`assert_same_layout`
is how every suite compares two layouts.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Tuple

import numpy as np

from repro.config import MAX_MCS_OFFSET, NUM_ACTIONS, USAGE_ACTION_INDICES
from repro.engine.kernels import (
    COLUMNS,
    FLOAT_COLUMNS,
    INT_COLUMNS,
    PAIR_COLUMNS,
    RHO_KNEE,
    SliceRows,
    WorldConditions,
)
from repro.obs.trace import active as _active_tracer
from repro.sim.phy import MCS_TABLE, NUM_CQI, NUM_MCS

_MCS_EFF = np.asarray(MCS_TABLE, dtype=np.float64)
_USAGE_COLS = np.asarray(USAGE_ACTION_INDICES, dtype=np.intp)
_MIN_SHARE = 0.01


def parent_rows(rows: SliceRows) -> SimpleNamespace:
    """``rows``' named columns (:data:`~repro.engine.kernels.COLUMNS`),
    with the one-direction fields the oracle reads: each ``(2, R)``
    pair split into its uplink and downlink rows.  The attributes
    ``SliceRows`` derives per layout are left out, so the oracle
    computes its own masks."""
    fields = {name: getattr(rows, name) for name in COLUMNS}
    fields.update(
        num_rows=rows.num_rows,
        ul_bits=rows.payload_bits[0], dl_bits=rows.payload_bits[1],
        ul_prbs_total=rows.prbs_total[0],
        dl_prbs_total=rows.prbs_total[1],
        uplink_fraction=rows.duty[0],
        downlink_fraction=rows.duty[1],
        base_retx_ul=rows.base_retx[0],
        base_retx_dl=rows.base_retx[1],
        decay_ul=rows.bler_decay[0], decay_dl=rows.bler_decay[1])
    return SimpleNamespace(**fields)


def assert_same_layout(got: SliceRows, want: SliceRows,
                       label=None) -> None:
    """Every named column of a layout (:data:`~repro.engine.kernels
    .COLUMNS`: both blocks, each column bound to them, the tables and
    lists beside them) equal in type, dtype, shape and bytes."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), (label, name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (label, name)
            assert a.tobytes() == b.tobytes(), (label, name)
        else:
            assert a == b, (label, name)


def rows_from_fields(**fields) -> SliceRows:
    """A :class:`SliceRows` from one keyword per column, the form its
    constructor took before the block layout: the
    :data:`~repro.engine.kernels.PAIR_COLUMNS` as ``(R, 2)`` arrays
    (uplink in column 0), every other column ``(R,)``.  Each block is
    stacked in block order."""
    floats = [np.asarray(fields.pop(name), dtype=np.float64)[None]
              for name in FLOAT_COLUMNS]
    floats += [np.asarray(fields.pop(name), dtype=np.float64).T
               for name in PAIR_COLUMNS]
    ints = np.stack([fields.pop(name) for name in INT_COLUMNS])
    return SliceRows(floats=np.concatenate(floats), ints=ints, **fields)


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
    if tracer is not None:
        mark = tracer.lap("engine.kernel.decode", mark)

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
    if tracer is not None:
        mark = tracer.lap("engine.kernel.radio", mark)

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
    if tracer is not None:
        mark = tracer.lap("engine.kernel.transport", mark)

    # ---- core (oracle: CoreNetwork.set_slice_resources + evaluate) ---
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
    if tracer is not None:
        mark = tracer.lap("engine.kernel.core", mark)

    # ---- edge (oracle: EdgeServerPool.set_resources + evaluate) ------
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
    if tracer is not None:
        mark = tracer.lap("engine.kernel.edge", mark)

    # ---- applications (oracle: evaluate_mar / _hvs / _rdc) -----------
    value = _evaluate_apps(rows, rates, ul_cap, dl_cap, ul_retx, dl_retx,
                           tn_cap, tn_latency, core_latency, core_pps,
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
    radio_usage = (ul_bw + dl_bw) * 0.5
    workload = (np.minimum(core_util, 1.0)
                + np.minimum(edge_util, 1.0)) * 0.5
    channel_quality = _user_sum(cqi, user_mask) / rows.users / NUM_CQI
    if tracer is not None:
        tracer.lap("engine.kernel.state", mark)

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
