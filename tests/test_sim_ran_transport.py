"""Model properties of the RAN, the queueing law and the transport
fabric, read off the kernels (``tests/kernel_probe.py``), plus the
unit tests of the state that stays in ``repro.sim``."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_probe import kernel_slot, make_action, make_network, probe
from repro.config import (
    EdgeConfig,
    RANConfig,
    TransportConfig,
    hvs_slice_spec,
    lte_ran_config,
    mar_slice_spec,
)
from repro.sim.queueing import RHO_KNEE
from repro.sim.ran import Scheduler
from repro.sim.transport import TransportFabric, build_topology

MAR = mar_slice_spec()

#: Three users far enough apart that the three schedulers differ.
SPREAD_CQI = [5, 9, 13]


def _dl_capacity(**dims):
    return probe(MAR, cqi=SPREAD_CQI, margin_db=0.0,
                 **dims)["dl_capacity_bps"]


class TestScheduler:
    def test_from_action_covers_all(self):
        """The decode stage maps thirds of [0, 1] to the three
        schedulers: one capacity per third, three in all."""
        thirds = [(0.0, 0.33), (0.34, 0.5, 0.66), (0.67, 0.99, 1.0)]
        capacities = [{_dl_capacity(downlink_scheduler=v) for v in third}
                      for third in thirds]
        assert all(len(found) == 1 for found in capacities)
        assert len(set.union(*capacities)) == len(Scheduler)

    def test_efficiency_ordering(self):
        rr, pf, mx = (_dl_capacity(downlink_scheduler=(s.value + 0.5) / 3)
                      for s in (Scheduler.ROUND_ROBIN,
                                Scheduler.PROPORTIONAL_FAIR,
                                Scheduler.MAX_CQI))
        per_user = [probe(MAR, cqi=cqi, margin_db=0.0)["dl_capacity_bps"]
                    for cqi in SPREAD_CQI]
        assert rr < pf < mx
        assert rr == pytest.approx(np.mean(per_user))
        assert mx <= max(per_user)
        assert pf == pytest.approx(0.6 * max(per_user)
                                   + 0.4 * np.mean(per_user))
        assert mx == pytest.approx(0.9 * max(per_user)
                                   + 0.1 * np.mean(per_user))

    def test_empty_users_rejected(self):
        with pytest.raises(ValueError):
            make_network([MAR], users_per_slice=0)


class TestRadioCell:
    @staticmethod
    def _capacities(share, **kwargs):
        out = probe(MAR, cqi=10, margin_db=0.0, uplink_bandwidth=share,
                    downlink_bandwidth=share, **kwargs)
        return out["ul_capacity_bps"], out["dl_capacity_bps"]

    def test_prbs_for_share_bounds(self):
        """100 PRBs: a full share is 100 one-PRB capacities, a half
        share 50, and nothing goes below the 0.01 floor's one PRB."""
        one_prb = self._capacities(0.01)
        for share, prbs in ((0.0, 1), (0.5, 50), (1.0, 100)):
            for got, unit in zip(self._capacities(share), one_prb):
                assert got == pytest.approx(prbs * unit)

    def test_min_one_prb_for_small_nonzero_share(self):
        """On a 25-PRB cell the floor share rounds to zero PRBs; the
        MAC still grants one."""
        small = dict(ran=dataclasses.replace(lte_ran_config(),
                                             num_prbs=25))
        floor = self._capacities(0.0, net_cfg=small)
        assert floor == self._capacities(0.04, net_cfg=small)
        for got, full in zip(floor, self._capacities(1.0, net_cfg=small)):
            assert got == pytest.approx(full / 25) and got > 0

    def test_capacity_scales_with_share(self):
        small = probe(MAR, downlink_bandwidth=0.2)["dl_capacity_bps"]
        large = probe(MAR, downlink_bandwidth=0.8)["dl_capacity_bps"]
        assert large > 3.0 * small

    def test_offset_trades_capacity_for_reliability(self):
        plain = probe(MAR, uplink_bandwidth=0.5, uplink_mcs_offset=0.0)
        robust = probe(MAR, uplink_bandwidth=0.5, uplink_mcs_offset=0.8)
        assert robust["ul_retx"] < plain["ul_retx"]
        assert robust["ul_capacity_bps"] < plain["ul_capacity_bps"]

    def test_vanilla_matches_paper_scale(self):
        """Full-cell LTE rates in the testbed's ballpark (Mbps, Fig 5)."""
        cell = probe(MAR, net_cfg=dict(users_per_slice=9),
                     uplink_bandwidth=1.0, downlink_bandwidth=1.0)
        dl = cell["dl_capacity_bps"] / 1e6
        ul = cell["ul_capacity_bps"] / 1e6
        assert 10.0 < dl < 60.0
        assert 5.0 < ul < 40.0
        assert dl > ul  # TDD split favours downlink

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RANConfig(technology="6g")
        with pytest.raises(ValueError):
            RANConfig(num_prbs=0)
        with pytest.raises(ValueError):
            RANConfig(downlink_fraction=1.5)


class TestQueueing:
    """The shared delay law, read where it is bare: the edge stage's
    latency is ``queue(1e3 / mu, rho)`` with ``mu = cpu * 40`` units/s
    and ``rho = rate / mu`` (MAR: one compute unit per request, RAM
    ample)."""

    MU = 0.5 * EdgeConfig().compute_capacity_ups
    SERVICE_MS = 1e3 / MU

    def _latency(self, rho, **dims):
        dims.setdefault("cpu_allocation", 0.5)
        return probe(MAR, rate=rho * self.MU, ram_allocation=1.0,
                     **dims)["edge_latency_ms"]

    def test_mm1_below_knee(self):
        assert self._latency(0.5) == pytest.approx(
            self.SERVICE_MS / (1.0 - 0.5))

    def test_continuous_at_knee(self):
        just_below = self._latency(RHO_KNEE - 1e-9)
        at_knee = self._latency(RHO_KNEE)
        assert at_knee == pytest.approx(just_below, rel=1e-6)

    def test_finite_above_saturation(self):
        over = self._latency(1.5)
        assert np.isfinite(over)
        assert over > self._latency(0.99)

    def test_monotone_in_rho(self):
        lats = [self._latency(rho) for rho in np.linspace(0.0, 2.0, 50)]
        assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_negative_service_rejected(self):
        """The kernels cannot be handed a negative service time: it
        derives from a share the decode stage clips to [0.01, 1], so a
        negative CPU action is the floor's (positive) latency."""
        negative = self._latency(0.0, cpu_allocation=-1.0)
        assert negative == self._latency(0.0, cpu_allocation=0.01)
        assert 0.0 < negative < np.inf


class TestTransport:
    LINK_BPS = TransportConfig().link_capacity_bps
    HOP_MS = TransportConfig().hop_latency_ms

    def test_topology_paths_exist(self):
        cfg = TransportConfig()
        paths = build_topology(cfg)
        assert len(paths) == cfg.num_paths
        fabric = TransportFabric(cfg)
        for k in range(cfg.num_paths):
            nodes = fabric.shortest_path_nodes(k)
            assert nodes[0] == "ran" and nodes[-1] == "core"
            assert len(nodes) - 1 == fabric.path_hops(k)

    def test_path_hops_increasing(self):
        fabric = TransportFabric()
        hops = [fabric.path_hops(k) for k in range(fabric.num_paths)]
        assert hops == sorted(hops)

    def test_meter_caps_rate(self):
        """The granted rate is the meter's share of the link whatever
        is offered, and it is what a starved stream gets."""
        hvs = hvs_slice_spec()
        light, heavy = (probe(hvs, rate=rate, transport_bandwidth=0.01,
                              downlink_bandwidth=1.0)
                        for rate in (0.1, 50.0))
        assert light["transport_rate_bps"] == heavy["transport_rate_bps"] \
            == pytest.approx(0.01 * self.LINK_BPS)
        demand = 50.0 * hvs.sla.target * hvs.downlink_payload_bits
        assert heavy["transport_rate_bps"] < heavy["dl_capacity_bps"]
        assert heavy["value"] == pytest.approx(
            hvs.sla.target * heavy["transport_rate_bps"] / demand
            * (1.0 - 0.5 * heavy["dl_retx"]))

    def test_zero_meter_blocks(self):
        """A meter that grants nothing (the decode floor keeps a share
        above zero, so: a dead link) is an infinite latency under load
        and a total MAR SLA miss."""
        dead = dict(transport=TransportConfig(link_capacity_bps=0.0))
        with np.errstate(all="ignore"):
            out = probe(MAR, rate=1.0, net_cfg=dead)
        assert out["transport_rate_bps"] == 0.0
        assert out["transport_latency_ms"] == float("inf")
        assert out["cost"] == 1.0

    def test_latency_grows_with_path_load(self):
        net = make_network([MAR, hvs_slice_spec()])
        latency = {}
        for neighbour_meter in (0.01, 0.9):
            out = kernel_slot(
                net, {"MAR": make_action(transport_bandwidth=0.05),
                      "HVS": make_action(
                          transport_bandwidth=neighbour_meter)},
                {"MAR": 1.0})
            latency[neighbour_meter] = out["MAR"]["transport_latency_ms"]
        assert latency[0.9] > latency[0.01]

    def test_longer_path_higher_base_latency(self):
        short = probe(MAR, transport_path=0.0)["transport_latency_ms"]
        long = probe(MAR, transport_path=1.0)["transport_latency_ms"]
        assert long > short

    def test_path_index_from_action(self):
        """``U_l`` = 0 decodes to the shortest path, 1 to the longest:
        hops * forwarding + M/M/1 on the slice's own reservation."""
        fabric = TransportFabric()
        meter = 0.2
        queueing_ms = self.HOP_MS * meter / (1.0 - meter)
        for value, path in ((0.0, 0), (1.0, fabric.num_paths - 1)):
            out = probe(MAR, transport_path=value,
                        transport_bandwidth=meter)
            assert out["transport_latency_ms"] == pytest.approx(
                fabric.path_hops(path) * self.HOP_MS + queueing_ms)

    def test_invalid_path(self):
        fabric = TransportFabric()
        with pytest.raises(ValueError):
            fabric.path_hops(99)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TransportConfig(num_paths=2, path_extra_hops=(0, 1, 2))


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_prbs_never_exceed_total_property(share):
    """Any share is a whole number of PRBs between one and the cell's
    100 (capacity in units of the one-PRB capacity)."""
    one_prb, cell, got = (
        probe(MAR, cqi=10, margin_db=0.0,
              uplink_bandwidth=s)["ul_capacity_bps"]
        for s in (0.01, 1.0, share))
    prbs = got / one_prb
    assert prbs == pytest.approx(round(prbs))
    assert one_prb <= got <= cell
