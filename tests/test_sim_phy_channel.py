"""Unit tests: PHY tables and the channel process; the MCS-offset /
BLER model's properties, read off the kernels' radio stage."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_probe import make_network, probe
from repro import scenarios
from repro.config import MAX_MCS_OFFSET, lte_ran_config, mar_slice_spec
from repro.sim.channel import ChannelProcess, snr_to_cqi_array
from repro.sim.phy import (
    CQI_TABLE,
    MCS_TABLE,
    NUM_CQI,
    NUM_MCS,
    PhyModel,
    cqi_to_mcs,
    mcs_spectral_efficiency,
)


class TestTables:
    def test_cqi_table_monotone_efficiency(self):
        effs = [row[2] for row in CQI_TABLE]
        assert all(b >= a for a, b in zip(effs, effs[1:]))

    def test_cqi15_is_64qam(self):
        bits, _rate, eff = CQI_TABLE[15]
        assert bits == 6
        assert eff == pytest.approx(5.5547)

    def test_mcs_table_monotone(self):
        assert all(b >= a for a, b in zip(MCS_TABLE, MCS_TABLE[1:]))

    def test_cqi_to_mcs_range(self):
        for cqi in range(1, NUM_CQI + 1):
            mcs = cqi_to_mcs(cqi)
            assert 0 <= mcs < NUM_MCS
        assert cqi_to_mcs(15) == 28

    def test_cqi_to_mcs_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cqi_to_mcs(0)
        with pytest.raises(ValueError):
            cqi_to_mcs(16)

    def test_spectral_efficiency_rejects_bad_mcs(self):
        with pytest.raises(ValueError):
            mcs_spectral_efficiency(-1)
        with pytest.raises(ValueError):
            mcs_spectral_efficiency(NUM_MCS)

    def test_snr_to_cqi_clipping(self):
        assert snr_to_cqi_array(np.array([-100.0, 100.0])).tolist() \
            == [1, NUM_CQI]

    def test_snr_to_cqi_monotone(self):
        cqis = snr_to_cqi_array(np.linspace(-10, 30, 50))
        assert np.all(np.diff(cqis) >= 0)


class TestPhyModel:
    """The link-level model, read off the radio stage at a chosen CQI
    and channel margin (``kernel_probe``): per-user goodput efficiency
    is ``eff(mcs) * (1 - p) / (1 + p)`` and a slice of identical users
    under round robin has exactly that efficiency."""

    SHARE = 0.5

    @classmethod
    def _link(cls, cqi, offset, margin_db=0.0, ran=None):
        """``(raw, goodput)`` downlink spectral efficiency (bit/s/Hz)
        and the ``(ul, dl)`` retransmission probabilities."""
        ran = ran or lte_ran_config()
        out = probe(mar_slice_spec(), cqi=cqi, margin_db=margin_db,
                    net_cfg=dict(ran=ran),
                    downlink_bandwidth=cls.SHARE,
                    uplink_mcs_offset=offset / MAX_MCS_OFFSET,
                    downlink_mcs_offset=offset / MAX_MCS_OFFSET)
        goodput = out["dl_capacity_bps"] / (
            round(cls.SHARE * ran.num_prbs) * ran.prb_bandwidth_hz
            * ran.downlink_fraction * (1.0 - ran.overhead))
        retx = out["dl_retx"]
        raw = goodput * (1.0 + retx) / (1.0 - retx)
        return raw, goodput, (out["ul_retx"], retx)

    def test_offset_lowers_mcs(self):
        raw, _, _ = self._link(cqi=15, offset=4)
        assert raw == pytest.approx(
            mcs_spectral_efficiency(cqi_to_mcs(15) - 4))

    def test_offset_clamps_at_zero(self):
        raw, _, _ = self._link(cqi=1, offset=MAX_MCS_OFFSET)
        assert raw == pytest.approx(mcs_spectral_efficiency(0))

    def test_fixed_mcs_bypasses_cqi(self):
        pinned = dataclasses.replace(lte_ran_config(), fixed_mcs=9)
        for cqi in (3, 15):
            raw, _, _ = self._link(cqi=cqi, offset=0, ran=pinned)
            assert raw == pytest.approx(mcs_spectral_efficiency(9))

    def test_invalid_offset(self):
        """No offset outside 0..10 reaches the radio stage: the decode
        clips the action, so 11/10 is offset 10 and -1/10 offset 0."""
        assert self._link(10, MAX_MCS_OFFSET + 1) == \
            self._link(10, MAX_MCS_OFFSET)
        assert self._link(10, -1) == self._link(10, 0)

    def test_retransmission_decays_with_offset(self):
        curves = [self._link(10, o)[2]
                  for o in range(MAX_MCS_OFFSET + 1)]
        for probs in zip(*curves):              # uplink, downlink
            assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_fig6_endpoints(self):
        """The Fig. 6 anchor points: UL ~1e-1 -> ~1e-5, DL flatter."""
        ul_0, dl_0 = self._link(10, 0)[2]
        ul_10, dl_10 = self._link(10, 10)[2]
        assert ul_0 == pytest.approx(0.12)
        assert ul_10 < 5e-5
        assert dl_0 == pytest.approx(0.015)
        assert dl_10 > ul_10

    def test_channel_margin_shifts_curve(self):
        better = self._link(10, 0, margin_db=6.0)[2][0]
        worse = self._link(10, 0, margin_db=-6.0)[2][0]
        assert better < self._link(10, 0)[2][0] < worse
        assert better == pytest.approx(0.12 / 10.0)     # a decade / 6 dB

    def test_link_quality_goodput_below_raw(self):
        raw, goodput, _ = self._link(cqi=10, offset=0)
        assert goodput < raw

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            PhyModel(base_retx_ul=0.0)
        with pytest.raises(ValueError):
            PhyModel(uplink_bler_decay=1.5)


class TestChannelProcess:
    def test_population(self, rng):
        chan = ChannelProcess(5, rng)
        assert len(chan.users) == 5
        assert chan.cqis.shape == (5,)

    def test_invalid_population(self, rng):
        with pytest.raises(ValueError):
            ChannelProcess(0, rng)

    def test_cqis_in_range(self, rng):
        chan = ChannelProcess(10, rng)
        for _ in range(50):
            chan.step()
            assert np.all(chan.cqis >= 1) and np.all(chan.cqis <= 15)

    def test_normalized_quality_unit_interval(self, rng):
        chan = ChannelProcess(4, rng)
        for _ in range(20):
            chan.step()
            assert 0.0 < chan.normalized_quality() <= 1.0

    def test_mean_reversion(self, rng):
        """The AR(1) process stays near each user's mean SNR."""
        chan = ChannelProcess(3, rng, mean_snr_db=18.0,
                              snr_spread_db=0.0, correlation=0.9,
                              innovation_std_db=1.0)
        snrs = []
        for _ in range(400):
            chan.step()
            snrs.append(chan.snrs_db.copy())
        mean = np.mean(snrs)
        assert abs(mean - 18.0) < 1.0

    def test_invalid_correlation(self, rng):
        with pytest.raises(ValueError):
            ChannelProcess(3, rng, correlation=1.0)


@pytest.mark.parametrize("slices, users",
                         [(3, 3), (6, 5), (4, 1), (0, 3)])
def test_bank_step_is_the_sequential_channel_steps(slices, users):
    """A bare network's one block draw + stacked AR(1) update equals S
    per-channel ``ChannelProcess.step`` calls in slice order: same
    channels, same generator afterwards.  A network without slices has
    a zero-row bank and steps nothing."""
    specs = scenarios.get("six_slices").build_config().slices[:slices]
    net = make_network(specs, seed=77, users_per_slice=users)
    rng = np.random.default_rng(77)
    reference = [ChannelProcess(users, rng) for _ in specs]
    for _ in range(5):
        net.step_channels()
        for channel in reference:
            channel.step()
        cqi, margin = net.gather_channel_state()
        assert cqi.shape == margin.shape == (slices, users)
        for row, channel in enumerate(reference):
            np.testing.assert_array_equal(cqi[row], channel.cqis)
            np.testing.assert_array_equal(margin[row],
                                          channel.margins_db)
        for mine, channel in zip(net.channels.values(), reference):
            np.testing.assert_array_equal(mine.snr_db, channel.snr_db)
    assert net._rng.bit_generator.state == rng.bit_generator.state


@given(st.integers(min_value=1, max_value=15),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=50, deadline=None)
def test_effective_mcs_bounded_property(cqi, offset):
    """The MCS in use is a table entry between MCS 0 and the vanilla
    MCS of the reported CQI."""
    raw, _, _ = TestPhyModel._link(cqi, offset)
    assert any(raw == pytest.approx(eff) for eff in MCS_TABLE)
    assert mcs_spectral_efficiency(0) <= raw * (1 + 1e-12)
    assert raw <= mcs_spectral_efficiency(cqi_to_mcs(cqi)) * (1 + 1e-12)
