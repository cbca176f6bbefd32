"""Model properties of the RAN, the queueing law and the transport
network, read off the kernels (``tests/kernel_probe.py``); and the
network's parameters held, byte for byte, to the classes that kept
them before the network and its configuration became their one home
(``tests/scalar_oracle.py``)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from kernel_probe import kernel_slot, make_action, make_network, probe
from repro import scenarios
from repro.config import (
    NUM_ACTIONS,
    EdgeConfig,
    RANConfig,
    TrafficConfig,
    TransportConfig,
    hvs_slice_spec,
    lte_ran_config,
    mar_slice_spec,
    nr_ran_config,
    rdc_slice_spec,
)
from repro.engine.kernels import (
    RHO_KNEE,
    SliceRows,
    WorldConditions,
    rows_for_network,
)

MAR = mar_slice_spec()

#: The kernels' scheduler codes (thirds of the ``[0, 1]`` action):
#: round robin, proportional fair, max-CQI.
SCHEDULERS = (0, 1, 2)

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
        assert len(set.union(*capacities)) == len(SCHEDULERS)

    def test_efficiency_ordering(self):
        rr, pf, mx = (_dl_capacity(downlink_scheduler=(code + 0.5) / 3)
                      for code in SCHEDULERS)
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
        """Every configured path is in the layout, path ``k`` a chain
        of ``2 + path_extra_hops[k]`` links."""
        for cfg in (TransportConfig(),
                    TransportConfig(num_paths=4,
                                    path_extra_hops=(0, 2, 3, 5))):
            rows = rows_for_network(make_network([MAR], transport=cfg))
            assert rows.num_paths.tolist() == [cfg.num_paths]
            assert rows.path_hops.tolist() == [
                [2 + extra for extra in cfg.path_extra_hops]]

    def test_path_hops_increasing(self):
        hops = rows_for_network(make_network([MAR])).path_hops[0]
        assert hops.tolist() == sorted(hops.tolist())

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
        extra_hops = TransportConfig().path_extra_hops
        meter = 0.2
        queueing_ms = self.HOP_MS * meter / (1.0 - meter)
        for value, path in ((0.0, 0), (1.0, len(extra_hops) - 1)):
            out = probe(MAR, transport_path=value,
                        transport_bandwidth=meter)
            assert out["transport_latency_ms"] == pytest.approx(
                (2 + extra_hops[path]) * self.HOP_MS + queueing_ms)

    def test_invalid_path(self):
        """No path outside the configured ones reaches the transport
        stage: the decode clips ``U_l``, so 99 is the longest path and
        -1 the shortest (only Eq. 9's usage reads the raw action)."""
        def latency(value):
            return probe(MAR, transport_path=value)["transport_latency_ms"]

        assert latency(99.0) == latency(1.0) > latency(0.0)
        assert latency(-1.0) == latency(0.0)

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


# ---- the network's parameters have one home ---------------------------


def _assert_same_layout(got: SliceRows, want: SliceRows, label) -> None:
    """Every :class:`SliceRows` field but the layout token equal in
    type, dtype, shape and bytes."""
    for spec in dataclasses.fields(SliceRows):
        if spec.name == "uid":
            continue
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        assert type(a) is type(b), (label, spec.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), \
                (label, spec.name)
            assert a.tobytes() == b.tobytes(), (label, spec.name)
        else:
            assert a == b, (label, spec.name)


def _assert_same_conditions(nets, label) -> None:
    """The engine's per-world conditions read off the networks equal
    what the parent ``refresh`` read off the oracle's fabrics, byte
    for byte."""
    got = WorldConditions.nominal(len(nets)).refresh(nets)
    want = scalar_oracle.refresh(
        WorldConditions.nominal(len(nets)),
        [scalar_oracle.ScalarSubstrates(net).fabric for net in nets])
    for spec in dataclasses.fields(WorldConditions):
        a, b = getattr(got, spec.name), getattr(want, spec.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
            (label, spec.name)


def _assert_network_matches_oracle(net, label) -> None:
    _assert_same_layout(
        rows_for_network(net),
        scalar_oracle.rows_for_network(
            scalar_oracle.ScalarSubstrates(net)), label)
    _assert_same_conditions([net], label)


class TestParametersHaveOneHome:
    """``rows_for_network`` reads ``NetworkConfig`` and the
    ``repro.sim.phy`` constants, and the network holds its link
    conditions; the parent read them through ``RadioCell``,
    ``PhyModel`` and ``TransportFabric``, kept verbatim in the
    oracle.  Both must give the same row layout and conditions."""

    @pytest.mark.parametrize("scenario", scenarios.names())
    def test_catalog_networks_over_an_episode(self, scenario):
        """Every slot of a 12-slot episode: churn slices attached and
        detached, transport events opened and closed."""
        spec = dataclasses.replace(
            scenarios.get(scenario),
            traffic_cfg=TrafficConfig(slots_per_episode=12))
        sim = spec.build_simulator()
        sim.reset()
        _assert_network_matches_oracle(sim.network, (scenario, 0))
        while not sim.done:
            sim.step({name: np.full(NUM_ACTIONS, 0.2)
                      for name in sim.slice_names})
            _assert_network_matches_oracle(sim.network,
                                           (scenario, sim.slot))

    @pytest.mark.parametrize("ran", [
        dataclasses.replace(lte_ran_config(), fixed_mcs=9),
        dataclasses.replace(nr_ran_config(), fixed_mcs=9),
        nr_ran_config(),
        RANConfig(num_prbs=25, downlink_fraction=0.7,
                  uplink_fraction=0.3),
    ], ids=["lte-mcs9", "nr-mcs9", "nr", "lte-25prb"])
    def test_radio_configurations(self, ran):
        net = make_network([MAR, hvs_slice_spec(), rdc_slice_spec()],
                           ran=ran)
        _assert_network_matches_oracle(net, ran)

    @pytest.mark.parametrize("transport", [
        TransportConfig(num_paths=1, path_extra_hops=(0,)),
        TransportConfig(num_paths=4, path_extra_hops=(0, 2, 3, 5),
                        hop_latency_ms=1.25),
    ], ids=["one-path", "four-paths"])
    def test_transport_configurations(self, transport):
        net = make_network([MAR, hvs_slice_spec()], transport=transport)
        _assert_network_matches_oracle(net, transport)

    def test_network_under_active_transport_conditions(self):
        net = make_network([MAR, hvs_slice_spec()])
        for conditions in (
                dict(capacity_scale=0.4, extra_latency_ms=7.5,
                     background_load_fraction=0.6),
                dict(extra_latency_ms=0.0),
                dict(capacity_scale=1.0, background_load_fraction=0.0),
                dict(capacity_scale=0.1)):
            net.set_transport_conditions(**conditions)
            _assert_network_matches_oracle(net, conditions)
        _assert_same_conditions([make_network([MAR]), net], "two worlds")
        net.clear_transport_conditions()
        _assert_network_matches_oracle(net, "cleared")
        assert (net.capacity_scale, net.extra_latency_ms,
                net.background_load_fraction) == (1.0, 0.0, 0.0)

    @pytest.mark.parametrize("conditions", [
        dict(capacity_scale=0.0), dict(capacity_scale=1.5),
        dict(extra_latency_ms=-1.0),
        dict(extra_latency_ms=float("nan")),
        dict(extra_latency_ms=float("inf")),
        dict(background_load_fraction=1.0),
        dict(background_load_fraction=-0.1),
    ])
    def test_out_of_range_conditions_are_refused(self, conditions):
        """The network refuses what the fabric refused, naming the
        condition, and keeps every condition it had.  A NaN or infinite
        latency surge is refused too (``nan < 0`` is false, so it used
        to give every slice a NaN transport latency), with the message
        the ``LatencySurge`` event gives."""
        net = make_network([MAR])
        net.set_transport_conditions(capacity_scale=0.5)
        held = (net.capacity_scale, net.extra_latency_ms,
                net.background_load_fraction)
        name = next(iter(conditions))
        match = ("extra_latency_ms must be finite and >= 0"
                 if name == "extra_latency_ms" else name)
        with pytest.raises(ValueError, match=match):
            net.set_transport_conditions(**conditions)
        assert (net.capacity_scale, net.extra_latency_ms,
                net.background_load_fraction) == held

    def test_ping_crosses_the_shortest_path(self):
        """Fig. 16's ping: the parent counted the fabric's path 0."""
        transport = TransportConfig(num_paths=2, path_extra_hops=(3, 0))
        cfg = make_network([MAR], transport=transport).cfg
        fabric = scalar_oracle.TransportFabric(cfg.transport)
        a, b = (make_network([MAR], seed=5, transport=transport)
                for _ in range(2))
        jitter = float(b._rng.gamma(2.0, 0.8))
        assert a.ping_delay_ms("MAR") == (
            2.0 * cfg.ran.base_latency_ms
            + 2.0 * fabric.path_hops(0) * transport.hop_latency_ms
            + 2.0 * cfg.core.base_latency_ms + jitter)
