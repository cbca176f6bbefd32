"""Unit tests: traffic synthesis, the stepper's Poisson arrivals, app
models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    NUM_ACTIONS,
    ExperimentConfig,
    TrafficConfig,
    hvs_slice_spec,
    mar_slice_spec,
    rdc_slice_spec,
)
from repro.sim.apps import (
    PipelineState,
    evaluate_app,
    evaluate_hvs,
    evaluate_mar,
    evaluate_rdc,
)
from repro.scenarios import ConstantTraffic
from repro.sim.env import ARRIVAL_WINDOW_S, ScenarioSimulator
from repro.sim.traffic import TelecomItaliaSynthesizer


def make_pipe(**overrides) -> PipelineState:
    """A healthy default pipeline, overridable per test."""
    defaults = dict(
        arrival_rate=2.0, ul_capacity_bps=10e6, dl_capacity_bps=15e6,
        ul_retx_probability=0.01, dl_retx_probability=0.01,
        ran_base_latency_ms=10.0, transport_rate_bps=50e6,
        transport_latency_ms=2.0, core_latency_ms=2.0,
        core_capacity_pps=1e5, edge_latency_ms=50.0,
        edge_capacity_ups=20.0)
    defaults.update(overrides)
    return PipelineState(**defaults)


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

    def test_generate_days_concatenates(self):
        synth = TelecomItaliaSynthesizer()
        trace = synth.generate_days(3)
        assert trace.shape == (3 * 96,)

    def test_invalid_lengths(self):
        synth = TelecomItaliaSynthesizer()
        with pytest.raises(ValueError):
            synth.generate(0)
        with pytest.raises(ValueError):
            synth.generate_days(0)


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
        perf = evaluate_mar(spec, make_pipe())
        assert perf.value < spec.sla.target
        assert perf.cost == 0.0

    def test_starved_uplink_violates(self):
        spec = mar_slice_spec()
        perf = evaluate_mar(spec, make_pipe(ul_capacity_bps=1e5))
        assert perf.cost > 0.5

    def test_latency_monotone_in_edge_capacity(self):
        spec = mar_slice_spec()
        slow = evaluate_mar(spec, make_pipe(edge_latency_ms=400.0))
        fast = evaluate_mar(spec, make_pipe(edge_latency_ms=10.0))
        assert slow.value > fast.value

    def test_transport_bottleneck_applies(self):
        spec = mar_slice_spec()
        perf = evaluate_mar(spec, make_pipe(transport_rate_bps=0.0))
        assert perf.cost == 1.0


class TestHVS:
    def test_full_supply_full_fps(self):
        spec = hvs_slice_spec()
        perf = evaluate_hvs(spec, make_pipe(dl_retx_probability=0.0))
        assert perf.value == pytest.approx(spec.sla.target)
        assert perf.cost == 0.0

    def test_fps_scales_with_bottleneck(self):
        spec = hvs_slice_spec()
        demand = 2.0 * spec.sla.target * spec.downlink_payload_bits
        perf = evaluate_hvs(spec, make_pipe(
            dl_capacity_bps=demand / 2, dl_retx_probability=0.0))
        assert perf.value == pytest.approx(spec.sla.target / 2, rel=0.01)

    def test_core_can_bottleneck(self):
        spec = hvs_slice_spec()
        perf = evaluate_hvs(spec, make_pipe(core_capacity_pps=10.0))
        assert perf.value < spec.sla.target / 2

    def test_retransmissions_shave_fps(self):
        spec = hvs_slice_spec()
        clean = evaluate_hvs(spec, make_pipe(dl_retx_probability=0.0))
        dirty = evaluate_hvs(spec, make_pipe(dl_retx_probability=0.1))
        assert dirty.value < clean.value


class TestRDC:
    def test_reliability_improves_with_offset_like_retx(self):
        spec = rdc_slice_spec()
        risky = evaluate_rdc(spec, make_pipe(
            ul_retx_probability=0.12, dl_retx_probability=0.015))
        safe = evaluate_rdc(spec, make_pipe(
            ul_retx_probability=5e-4, dl_retx_probability=1e-4))
        assert safe.value > risky.value
        assert safe.cost < risky.cost

    def test_insufficient_prbs_drop_messages(self):
        spec = rdc_slice_spec()
        msg_bps = 100.0 * spec.uplink_payload_bits
        perf = evaluate_rdc(spec, make_pipe(
            arrival_rate=100.0, ul_capacity_bps=msg_bps / 2))
        assert perf.value < 0.6

    def test_meets_threshold_at_high_offsets(self):
        spec = rdc_slice_spec()
        perf = evaluate_rdc(spec, make_pipe(
            arrival_rate=50.0, ul_retx_probability=5e-4,
            dl_retx_probability=1e-3))
        assert perf.cost < spec.sla.cost_threshold


class TestDispatch:
    def test_evaluate_app_routes(self):
        pipe = make_pipe()
        assert evaluate_app(mar_slice_spec(), pipe).metric == \
            "latency_ms"
        assert evaluate_app(hvs_slice_spec(), pipe).metric == "fps"
        assert evaluate_app(rdc_slice_spec(), pipe).metric == \
            "reliability"


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_cost_always_in_unit_interval(retx_ul, retx_dl):
    """Eq. 10 guarantees cost in [0, 1] for any pipeline (property)."""
    pipe = make_pipe(ul_retx_probability=min(retx_ul, 0.99),
                     dl_retx_probability=min(retx_dl, 0.99))
    for spec in (mar_slice_spec(), hvs_slice_spec(), rdc_slice_spec()):
        perf = evaluate_app(spec, pipe)
        assert 0.0 <= perf.cost <= 1.0
        assert 0.0 <= perf.satisfaction <= 1.0
