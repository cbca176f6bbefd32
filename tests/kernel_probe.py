"""Read model properties off the model that runs.

Every number this repo reports comes from
``repro.engine.kernels.evaluate_rows``.  The model-property tests
(capacity scales with share, the meter caps the rate, M/M/1 through
the knee, ...) therefore build a small testbed and read one slot off
the kernels through :func:`kernel_slot` -- every output column,
including the ones a ``SlotReport`` does not carry (``ul_retx``,
``dl_retx``, ``transport_rate_bps``) -- or through
``EndToEndNetwork.evaluate_slot`` itself.  Nothing here imports the
scalar oracle (``tests/scalar_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.config import ACTION_NAMES, NetworkConfig, SliceSpec
from repro.engine.kernels import WorldConditions, evaluate_rows
from repro.sim.network import EndToEndNetwork

#: A comfortable allocation: round robin, no MCS offset, shortest path.
_DEFAULTS = dict(
    uplink_bandwidth=0.3, uplink_mcs_offset=0.0, uplink_scheduler=0.0,
    downlink_bandwidth=0.3, downlink_mcs_offset=0.0,
    downlink_scheduler=0.0, transport_bandwidth=0.3, transport_path=0.0,
    cpu_allocation=0.3, ram_allocation=0.3)


def make_action(**dims: float) -> np.ndarray:
    """A 10-dim action: :data:`_DEFAULTS` with named dimensions
    (``repro.config.ACTION_NAMES``) overridden."""
    unknown = set(dims) - set(ACTION_NAMES)
    if unknown:
        raise KeyError(f"unknown action dimensions: {sorted(unknown)}")
    return np.array([float(dims.get(name, _DEFAULTS[name]))
                     for name in ACTION_NAMES])


def make_network(specs: Sequence[SliceSpec], seed: int = 1234,
                 **cfg) -> EndToEndNetwork:
    """A testbed hosting ``specs``; ``cfg`` overrides ``NetworkConfig``
    fields (``ran=``, ``transport=``, ``core=``, ``edge=``,
    ``users_per_slice=``)."""
    return EndToEndNetwork(NetworkConfig(**cfg), slices=list(specs),
                           rng=np.random.default_rng(seed))


def kernel_slot(net: EndToEndNetwork,
                actions: Mapping[str, np.ndarray],
                rates: Mapping[str, float],
                cqi=None, margin_db: Optional[float] = None
                ) -> Dict[str, Dict[str, float]]:
    """One slot of ``net`` through ``evaluate_rows``: slice name ->
    every per-row kernel output.

    ``cqi`` (a scalar, or one value per user) and ``margin_db`` replace
    the network's random channel state with a chosen one, which is how
    the PHY properties are read at a known CQI and zero margin.
    """
    names = net.slice_names
    matrix = np.array([np.asarray(actions[name], dtype=float)
                       for name in names])
    rate_vec = np.array([float(rates.get(name, 0.0)) for name in names])
    net_cqi, net_margin = net.cqi, net.snr_db - net.mean_snr_db
    if cqi is not None:
        net_cqi = np.broadcast_to(
            np.asarray(cqi, dtype=np.intp), net_cqi.shape).copy()
    if margin_db is not None:
        net_margin = np.full(net_margin.shape, float(margin_db))
    out = evaluate_rows(
        net.slot_rows(), WorldConditions.nominal(1).refresh([net]),
        matrix, rate_vec, net_cqi, net_margin)
    return {name: {key: float(column[row])
                   for key, column in out.items() if key != "path_loads"}
            for row, name in enumerate(names)}


def probe(spec: SliceSpec, rate: float = 0.0, cqi=None,
          margin_db: Optional[float] = None, seed: int = 1234,
          net_cfg: Optional[dict] = None, **dims: float
          ) -> Dict[str, float]:
    """The kernel outputs of a one-slice testbed hosting ``spec`` at
    ``make_action(**dims)`` and ``rate`` arrivals/s."""
    net = make_network([spec], seed=seed, **(net_cfg or {}))
    return kernel_slot(net, {spec.name: make_action(**dims)},
                       {spec.name: rate}, cqi=cqi,
                       margin_db=margin_db)[spec.name]
