"""Unit tests: traffic synthesis and the stepper's Poisson arrivals;
the MAR / HVS / RDC app models' properties, read off the kernels
(``tests/kernel_probe.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_probe import make_action, make_network, probe
from repro.config import (
    NUM_ACTIONS,
    CoreConfig,
    ExperimentConfig,
    TrafficConfig,
    TransportConfig,
    hvs_slice_spec,
    mar_slice_spec,
    rdc_slice_spec,
)
from repro.scenarios import ConstantTraffic
from repro.sim.env import ARRIVAL_WINDOW_S, ScenarioSimulator
from repro.sim.traffic import TelecomItaliaSynthesizer


def healthy(spec, rate=2.0, **overrides):
    """Kernel outputs of ``spec`` alone on a healthy pipeline (half of
    every share, round robin, no MCS offset), overridable per test."""
    dims = dict(uplink_bandwidth=0.5, downlink_bandwidth=0.5,
                cpu_allocation=0.5, ram_allocation=0.5)
    dims.update(overrides)
    return probe(spec, rate=rate, **dims)


class TestTraffic:
    def test_trace_length_and_range(self):
        synth = TelecomItaliaSynthesizer()
        trace = synth.generate()
        assert trace.shape == (96,)
        assert np.all(trace >= 0.0) and np.all(trace <= 1.2)

    def test_diurnal_peaks(self):
        synth = TelecomItaliaSynthesizer()
        profile = synth.diurnal_profile(np.arange(0, 24, 0.25))
        night = profile[:16].mean()     # 00:00-04:00
        morning = profile[36:44].mean()  # 09:00-11:00
        assert morning > 2.0 * night

    def test_weekend_dampening(self):
        synth = TelecomItaliaSynthesizer(
            rng=np.random.default_rng(0))
        weekday = synth.generate(day_of_week=2).mean()
        synth2 = TelecomItaliaSynthesizer(
            rng=np.random.default_rng(0))
        weekend = synth2.generate(day_of_week=6).mean()
        assert weekend < weekday

    def test_invalid_lengths(self):
        synth = TelecomItaliaSynthesizer()
        with pytest.raises(ValueError):
            synth.generate(0)


class TestPoisson:
    """The stepper's arrivals stage: per slice and slot, one Poisson
    count at ``envelope * max_arrival_rate`` over the 60 s window."""

    @staticmethod
    def _episode(level):
        """Per slice: (max arrival rate, realised arrivals/s per slot,
        the next observations' normalised traffic)."""
        sim = ScenarioSimulator(ExperimentConfig(seed=1),
                                traffic_model=ConstantTraffic(level))
        sim.reset()
        actions = {name: np.full(NUM_ACTIONS, 0.3)
                   for name in sim.slice_names}
        rates = {name: [] for name in sim.slice_names}
        traffic = {name: [] for name in sim.slice_names}
        while not sim.done:
            for name, result in sim.step(actions).items():
                rates[name].append(result.report.arrival_rate)
                traffic[name].append(result.observation.traffic)
        return {name: (sim.network.slices[name].max_arrival_rate,
                       np.array(rates[name]), np.array(traffic[name]))
                for name in sim.slice_names}

    def test_zero_rate(self):
        for _, rates, traffic in self._episode(0.0).values():
            assert not rates.any() and not traffic.any()

    def test_count_matches_rate_statistically(self):
        for peak, rates, _ in self._episode(0.5).values():
            counts = rates * ARRIVAL_WINDOW_S
            np.testing.assert_allclose(counts, np.rint(counts))
            assert counts.mean() == pytest.approx(
                0.5 * peak * ARRIVAL_WINDOW_S, rel=0.1)
            assert counts.std() > 0.0       # Poisson, not the mean

    def test_empirical_rate_near_envelope(self):
        for peak, rates, traffic in self._episode(0.5).values():
            assert np.array_equal(traffic, rates / peak)
            assert traffic.mean() == pytest.approx(0.5, rel=0.1)


class TestMAR:
    def test_healthy_pipeline_meets_sla(self):
        spec = mar_slice_spec()
        perf = healthy(spec)
        assert perf["value"] < spec.sla.target
        assert perf["cost"] == 0.0

    def test_starved_uplink_violates(self):
        perf = healthy(mar_slice_spec(), uplink_bandwidth=0.01)
        assert perf["cost"] > 0.5

    def test_latency_monotone_in_edge_capacity(self):
        spec = mar_slice_spec()
        slow = healthy(spec, cpu_allocation=0.06)
        fast = healthy(spec, cpu_allocation=1.0)
        assert slow["edge_latency_ms"] > fast["edge_latency_ms"]
        assert slow["value"] - fast["value"] == pytest.approx(
            slow["edge_latency_ms"] - fast["edge_latency_ms"]
            + slow["core_latency_ms"] - fast["core_latency_ms"])

    def test_transport_bottleneck_applies(self):
        """Frames go up through ``min(RAN uplink, transport meter)``: a
        meter far below the radio capacity sets the latency, and a
        dead one is a total miss."""
        spec = mar_slice_spec()
        thin = dict(transport=TransportConfig(link_capacity_bps=1e6))
        perf = healthy(spec, net_cfg=thin, transport_bandwidth=0.05)
        assert perf["transport_rate_bps"] < perf["ul_capacity_bps"] / 100
        assert perf["value"] > 1e3 * healthy(spec)["value"]
        dead = dict(transport=TransportConfig(link_capacity_bps=0.0))
        with np.errstate(all="ignore"):
            assert healthy(spec, net_cfg=dead)["cost"] == 1.0


class TestHVS:
    def test_full_supply_full_fps(self):
        """Bandwidth to spare: the target FPS, less the frames that
        retransmissions skip."""
        spec = hvs_slice_spec()
        perf = healthy(spec, rate=1.0, downlink_bandwidth=1.0,
                       downlink_mcs_offset=1.0)
        assert perf["value"] == pytest.approx(
            spec.sla.target * (1.0 - 0.5 * perf["dl_retx"]))
        assert perf["value"] == pytest.approx(spec.sla.target, rel=1e-3)
        assert perf["cost"] < 1e-3

    def test_fps_scales_with_bottleneck(self):
        spec = hvs_slice_spec()
        demand = 2.0 * spec.sla.target * spec.downlink_payload_bits
        perf = healthy(spec, downlink_bandwidth=0.1)
        assert perf["dl_capacity_bps"] < demand / 2
        assert perf["value"] == pytest.approx(
            spec.sla.target * perf["dl_capacity_bps"] / demand
            * (1.0 - 0.5 * perf["dl_retx"]))

    def test_core_can_bottleneck(self):
        spec = hvs_slice_spec()
        slow_core = dict(core=CoreConfig(sgwu_capacity_pps=10.0))
        perf = healthy(spec, net_cfg=slow_core, downlink_bandwidth=1.0)
        assert perf["value"] < spec.sla.target / 2

    def test_retransmissions_shave_fps(self):
        """With supply to spare either way, backing the MCS off buys
        frames back."""
        spec = hvs_slice_spec()
        clean = healthy(spec, rate=0.2, downlink_bandwidth=1.0,
                        downlink_mcs_offset=1.0)
        dirty = healthy(spec, rate=0.2, downlink_bandwidth=1.0,
                        downlink_mcs_offset=0.0)
        assert dirty["dl_retx"] > clean["dl_retx"]
        assert dirty["value"] < clean["value"]


class TestRDC:
    def test_reliability_improves_with_offset_like_retx(self):
        spec = rdc_slice_spec()
        risky = healthy(spec, rate=50.0)
        safe = healthy(spec, rate=50.0, uplink_mcs_offset=0.8,
                       downlink_mcs_offset=0.8)
        assert safe["value"] > risky["value"]
        assert safe["cost"] < risky["cost"]
        assert risky["value"] == pytest.approx(
            (1.0 - risky["ul_retx"]) * (1.0 - risky["dl_retx"]))

    def test_insufficient_prbs_drop_messages(self):
        spec = rdc_slice_spec()
        one_prb = healthy(spec, rate=0.0,
                          uplink_bandwidth=0.01)["ul_capacity_bps"]
        flood = 2.5 * one_prb / spec.uplink_payload_bits
        perf = healthy(spec, rate=flood, uplink_bandwidth=0.01)
        assert perf["value"] < 0.6

    def test_meets_threshold_at_high_offsets(self):
        spec = rdc_slice_spec()
        perf = healthy(spec, rate=50.0, uplink_mcs_offset=1.0,
                       downlink_mcs_offset=1.0)
        assert perf["cost"] < spec.sla.cost_threshold


class TestDispatch:
    def test_evaluate_app_routes(self):
        """Each slice is judged by its own application's metric: the
        same pipeline is a latency, a frame rate and a probability."""
        specs = [mar_slice_spec(), hvs_slice_spec(), rdc_slice_spec()]
        net = make_network(specs)
        reports = net.evaluate_slot(
            {spec.name: make_action() for spec in specs},
            {spec.name: 1.0 for spec in specs})
        assert [reports[spec.name].performance.metric
                for spec in specs] == ["latency_ms", "fps", "reliability"]
        mar, hvs, rdc = (reports[spec.name].performance.value
                         for spec in specs)
        assert mar > hvs > 1.0 > rdc > 0.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_cost_always_in_unit_interval(retx_ul, retx_dl):
    """Eq. 10 guarantees cost in [0, 1] for any pipeline (property):
    any pair of MCS offsets, on a good and on a terrible channel (the
    latter clips the retransmission probability at 0.99)."""
    for spec in (mar_slice_spec(), hvs_slice_spec(), rdc_slice_spec()):
        for margin_db in (0.0, -24.0):
            perf = healthy(spec, margin_db=margin_db,
                           uplink_mcs_offset=retx_ul,
                           downlink_mcs_offset=retx_dl)
            assert 0.0 <= perf["cost"] <= 1.0
            assert 0.0 <= perf["satisfaction"] <= 1.0
