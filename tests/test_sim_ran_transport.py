"""Unit tests: RAN cell/schedulers and the transport fabric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RANConfig, TransportConfig, lte_ran_config
from repro.sim.channel import ChannelProcess
from repro.sim.queueing import RHO_KNEE, queueing_latency_ms
from repro.sim.ran import RadioCell, Scheduler, scheduler_efficiency
from repro.sim.transport import TransportFabric, build_topology


class TestScheduler:
    def test_from_action_covers_all(self):
        seen = {Scheduler.from_action(v)
                for v in (0.0, 0.34, 0.5, 0.67, 0.99, 1.0)}
        assert seen == set(Scheduler)

    def test_efficiency_ordering(self):
        effs = [1.0, 2.0, 4.0]
        rr = scheduler_efficiency(Scheduler.ROUND_ROBIN, effs)
        pf = scheduler_efficiency(Scheduler.PROPORTIONAL_FAIR, effs)
        mx = scheduler_efficiency(Scheduler.MAX_CQI, effs)
        assert rr < pf < mx
        assert rr == pytest.approx(np.mean(effs))
        assert mx <= max(effs)

    def test_empty_users_rejected(self):
        with pytest.raises(ValueError):
            scheduler_efficiency(Scheduler.ROUND_ROBIN, [])


class TestRadioCell:
    def test_prbs_for_share_bounds(self):
        cell = RadioCell(lte_ran_config())
        assert cell.prbs_for_share(0.0, uplink=True) == 0
        assert cell.prbs_for_share(1.0, uplink=True) == 100
        assert cell.prbs_for_share(0.5, uplink=False) == 50

    def test_min_one_prb_for_small_nonzero_share(self):
        cell = RadioCell(lte_ran_config())
        assert cell.prbs_for_share(0.002, uplink=True) == 1

    def test_capacity_scales_with_share(self, rng):
        cell = RadioCell(lte_ran_config())
        chan = ChannelProcess(3, rng)
        small = cell.slice_capacity(0.2, 0, Scheduler.ROUND_ROBIN,
                                    chan, uplink=False)
        large = cell.slice_capacity(0.8, 0, Scheduler.ROUND_ROBIN,
                                    chan, uplink=False)
        assert large.capacity_bps > 3.0 * small.capacity_bps

    def test_offset_trades_capacity_for_reliability(self, rng):
        cell = RadioCell(lte_ran_config())
        chan = ChannelProcess(3, rng)
        plain = cell.slice_capacity(0.5, 0, Scheduler.ROUND_ROBIN,
                                    chan, uplink=True)
        robust = cell.slice_capacity(0.5, 8, Scheduler.ROUND_ROBIN,
                                     chan, uplink=True)
        assert robust.retransmission_probability < \
            plain.retransmission_probability
        assert robust.capacity_bps < plain.capacity_bps

    def test_vanilla_matches_paper_scale(self, rng):
        """Full-cell LTE rates in the testbed's ballpark (Mbps, Fig 5)."""
        cell = RadioCell(lte_ran_config())
        chan = ChannelProcess(9, rng)
        dl = cell.vanilla_capacity(chan, uplink=False) / 1e6
        ul = cell.vanilla_capacity(chan, uplink=True) / 1e6
        assert 10.0 < dl < 60.0
        assert 5.0 < ul < 40.0
        assert dl > ul  # TDD split favours downlink

    def test_transmission_latency_infinite_without_capacity(self):
        cell = RadioCell(lte_ran_config())
        assert cell.transmission_latency_ms(1e5, 0.0, 0.0) == \
            float("inf")

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RANConfig(technology="6g")
        with pytest.raises(ValueError):
            RANConfig(num_prbs=0)
        with pytest.raises(ValueError):
            RANConfig(downlink_fraction=1.5)


class TestQueueing:
    def test_mm1_below_knee(self):
        assert queueing_latency_ms(10.0, 0.5) == pytest.approx(20.0)

    def test_continuous_at_knee(self):
        just_below = queueing_latency_ms(10.0, RHO_KNEE - 1e-9)
        at_knee = queueing_latency_ms(10.0, RHO_KNEE)
        assert at_knee == pytest.approx(just_below, rel=1e-6)

    def test_finite_above_saturation(self):
        over = queueing_latency_ms(10.0, 1.5)
        assert np.isfinite(over)
        assert over > queueing_latency_ms(10.0, 0.99)

    def test_monotone_in_rho(self):
        rhos = np.linspace(0.0, 2.0, 50)
        lats = [queueing_latency_ms(5.0, r) for r in rhos]
        assert all(b >= a for a, b in zip(lats, lats[1:]))

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            queueing_latency_ms(-1.0, 0.5)


class TestTransport:
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
        fabric = TransportFabric()
        report = fabric.evaluate(0, 0.01, offered_bps=1e9)
        assert report.achieved_rate_bps == pytest.approx(
            0.01 * fabric.cfg.link_capacity_bps)

    def test_zero_meter_blocks(self):
        fabric = TransportFabric()
        report = fabric.evaluate(0, 0.0, offered_bps=1e6)
        assert report.achieved_rate_bps == 0.0
        assert report.latency_ms == float("inf")

    def test_latency_grows_with_path_load(self):
        fabric = TransportFabric()
        fabric.reset_loads()
        empty = fabric.evaluate(0, 0.1, 1e6).latency_ms
        fabric.reserve(0, 0.9e9)
        loaded = fabric.evaluate(0, 0.1, 1e6).latency_ms
        assert loaded > empty

    def test_longer_path_higher_base_latency(self):
        fabric = TransportFabric()
        fabric.reset_loads()
        short = fabric.evaluate(0, 0.1, 0.0).latency_ms
        long = fabric.evaluate(2, 0.1, 0.0).latency_ms
        assert long > short

    def test_path_index_from_action(self):
        fabric = TransportFabric()
        assert fabric.path_index_from_action(0.0) == 0
        assert fabric.path_index_from_action(1.0) == \
            fabric.num_paths - 1

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
    cell = RadioCell(lte_ran_config())
    prbs = cell.prbs_for_share(share, uplink=True)
    assert 0 <= prbs <= cell.uplink_prbs
