"""Property-based invariants for streaming anomaly detection.

The diagnosis layer replays fleet checkpoints through
:class:`~repro.obs.anomaly.AnomalyMonitor` and promises the resulting
anomaly series is a function of the *observation stream*, not of how
that stream happened to be split across shards.  These tests pin the
algebra behind that promise, mirroring ``tests/test_telemetry_props``:
feed the same cumulative stream through detectors under randomized
shard partitions, merge orders and groupings, and require bit-equal
point series.  A stationary-stream suite pins the complementary
property: detectors stay silent when nothing changed.

Sample values are multiples of 1/64 (exactly representable), so
merged counter and histogram totals compare bit-equal across splits;
detector outputs are rounded dicts over those totals and inherit the
exactness.
"""

import numpy as np
import pytest

from repro.obs.anomaly import (
    AnomalyMonitor,
    DetectorSpec,
    StreamingDetector,
    default_detectors,
)
from repro.obs.metrics import Telemetry

#: One detector per series mode, over synthetic instruments.
SPECS = (
    DetectorSpec(name="lat-mean", instrument="lat", mode="mean"),
    DetectorSpec(name="fb-ratio", instrument="fallbacks",
                 total="decisions", mode="ratio"),
    DetectorSpec(name="dec-rate", instrument="decisions", mode="rate"),
)


def exact_values(rng, count):
    """``count`` non-negative floats on the 1/64 grid (exact sums)."""
    return (rng.integers(0, 4096, size=count) / 64.0).tolist()


def random_stream(rng, steps, per_step=6):
    """A per-step observation stream: each row is ``(counter_incs,
    histogram_values)`` applied cumulatively at that step."""
    stream = []
    for _ in range(steps):
        decisions = int(rng.integers(1, 9))
        fallbacks = int(rng.integers(0, decisions + 1))
        stream.append((
            {"decisions": float(decisions),
             "fallbacks": float(fallbacks)},
            exact_values(rng, per_step),
        ))
    return stream


def apply_step(telemetry, counters, values):
    for name, amount in counters.items():
        telemetry.counter(name).inc(amount)
    histogram = telemetry.histogram("lat")
    for value in values:
        histogram.observe(value)


def series_for(stream, rng=None, shards=1):
    """Run ``stream`` through a fresh monitor, splitting each step's
    observations across ``shards`` cumulative registries merged in a
    (possibly permuted) order, and return every detector's full point
    series -- flagged or not."""
    registries = [Telemetry() for _ in range(shards)]
    monitor = AnomalyMonitor(SPECS)
    series = []
    for at, (counters, values) in enumerate(stream, start=1):
        if shards == 1:
            apply_step(registries[0], counters, values)
        else:
            # scatter this step's observations across the shards
            assign = rng.integers(0, shards, size=len(values))
            for index, value in zip(assign, values):
                registries[index].histogram("lat").observe(value)
            for name, amount in counters.items():
                registries[int(rng.integers(shards))] \
                    .counter(name).inc(amount)
        merged = Telemetry()
        order = rng.permutation(shards) if rng is not None \
            else range(shards)
        for index in order:
            merged.merge(registries[index])
        monitor.observe(merged, float(at))
        series.append(tuple(dict(detector.last)
                            for detector in monitor.detectors))
    return series


# ---- merge-order invariance and shard-split associativity ------------


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_anomaly_series_shard_split_invariant(shards):
    """Any partition of the stream across shards, merged in any
    order, yields the bit-identical anomaly series."""
    rng = np.random.default_rng(100 + shards)
    stream = random_stream(rng, steps=24)
    reference = series_for(stream)
    for trial in range(3):
        trial_rng = np.random.default_rng(1000 * shards + trial)
        assert series_for(stream, rng=trial_rng,
                          shards=shards) == reference


def test_anomaly_series_split_associative():
    """Grouping shards before merging (tree-wise aggregation) is
    indistinguishable from a flat fold."""
    rng = np.random.default_rng(17)
    stream = random_stream(rng, steps=20)
    shard_a, shard_b, shard_c = (Telemetry() for _ in range(3))
    flat = AnomalyMonitor(SPECS)
    grouped = AnomalyMonitor(SPECS)
    flat_series, grouped_series = [], []
    for at, (counters, values) in enumerate(stream, start=1):
        assign = rng.integers(0, 3, size=len(values))
        shards = (shard_a, shard_b, shard_c)
        for index, value in zip(assign, values):
            shards[index].histogram("lat").observe(value)
        for name, amount in counters.items():
            shards[int(rng.integers(3))].counter(name).inc(amount)

        flat_merge = Telemetry()
        for shard in shards:
            flat_merge.merge(shard)
        flat.observe(flat_merge, float(at))
        flat_series.append(tuple(dict(d.last) for d in flat.detectors))

        inner = Telemetry()                 # (b + c) first, then a
        inner.merge(shard_b)
        inner.merge(shard_c)
        tree_merge = Telemetry()
        tree_merge.merge(shard_a)
        tree_merge.merge(inner)
        grouped.observe(tree_merge, float(at))
        grouped_series.append(tuple(dict(d.last)
                                    for d in grouped.detectors))
    assert flat_series == grouped_series


def test_monitor_rejects_non_advancing_time():
    monitor = AnomalyMonitor(SPECS)
    telemetry = Telemetry()
    apply_step(telemetry, {"decisions": 4.0, "fallbacks": 1.0},
               [1.0, 2.0])
    monitor.observe(telemetry, 1.0)
    with pytest.raises(ValueError, match="not after"):
        monitor.observe(telemetry, 1.0)


# ---- stationary silence ----------------------------------------------


def stationary_stream(steps, jitter=None):
    """A regime with nothing to flag: constant per-step rates and a
    latency series pinned at 100 ms (plus optional tiny grid jitter)."""
    stream = []
    for step in range(steps):
        wiggle = 0.0
        if jitter is not None:
            wiggle = float(jitter.integers(-8, 9)) / 64.0
        stream.append((
            {"decisions": 8.0, "fallbacks": 1.0},
            [100.0 + wiggle] * 4,
        ))
    return stream


def test_detectors_silent_on_stationary_stream():
    series = series_for(stationary_stream(steps=48))
    flagged = [point for step in series for point in step
               if point["kinds"]]
    assert flagged == []


def test_detectors_silent_under_small_jitter():
    """Grid jitter well inside the relative scale floor must not
    page: the floor exists precisely so float dust stays quiet."""
    jitter = np.random.default_rng(5)
    series = series_for(stationary_stream(steps=48, jitter=jitter))
    flagged = [point for step in series for point in step
               if point["kinds"]]
    assert flagged == []


def test_spike_and_level_shift_fire_when_real():
    """Silence is not vacuous: a 3x latency step flags a spike at the
    step and a level shift once the new regime dominates the window."""
    stream = stationary_stream(steps=16) + [
        ({"decisions": 8.0, "fallbacks": 1.0}, [300.0] * 4)
        for _ in range(16)
    ]
    monitor = AnomalyMonitor(SPECS)
    telemetry = Telemetry()
    kinds_seen = set()
    for at, (counters, values) in enumerate(stream, start=1):
        apply_step(telemetry, counters, values)
        for point in monitor.observe(telemetry, float(at)):
            kinds_seen.update(point["kinds"])
            assert point["detector"] == "lat-mean"
    assert kinds_seen == {"spike", "level_shift"}
    anomalies = monitor.anomalies()
    assert anomalies and anomalies[0]["at"] == 17.0


def test_ratio_regime_change_is_a_level_shift():
    """A fallback storm (ratio 1/8 -> 6/8) registers on the ratio
    detector as a sustained shift."""
    stream = stationary_stream(steps=16) + [
        ({"decisions": 8.0, "fallbacks": 6.0}, [100.0] * 4)
        for _ in range(16)
    ]
    monitor = AnomalyMonitor(SPECS)
    telemetry = Telemetry()
    flagged = []
    for at, (counters, values) in enumerate(stream, start=1):
        apply_step(telemetry, counters, values)
        flagged.extend(monitor.observe(telemetry, float(at)))
    ratio_points = [p for p in flagged if p["detector"] == "fb-ratio"]
    assert ratio_points
    assert any("level_shift" in p["kinds"] or "spike" in p["kinds"]
               for p in ratio_points)


# ---- the sorted window -----------------------------------------------


def _sorted_median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _reference_step(spec, window, value):
    """``(z, shift, kinds)`` of one step, from a full sort of the
    window every time -- what the detector's incrementally sorted
    window must reproduce bit for bit."""
    def scale_of(values, centre):
        mad = _sorted_median([abs(v - centre) for v in values])
        return max(1.4826 * mad, 0.05 * abs(centre), 1e-12)

    kinds, z, shift = [], 0.0, 0.0
    if len(window) >= spec.warmup:
        centre = _sorted_median(window)
        gap = value - centre
        floor = max(0.05 * abs(centre), 1e-12)
        if abs(gap) / floor >= spec.z_threshold:
            z = min(max(gap / scale_of(window, centre), -999.0), 999.0)
            if abs(z) >= spec.z_threshold:
                kinds.append("spike")
        else:
            z = gap / floor
    full = window + [value]
    if len(full) >= 8:
        centre = _sorted_median(full)
        floor = max(0.05 * abs(centre), 1e-12)
        if (max(full) - min(full)) / floor >= spec.shift_threshold:
            half = len(full) // 2
            shift = (_sorted_median(full[half:])
                     - _sorted_median(full[:half])) / scale_of(full, centre)
            shift = min(max(shift, -999.0), 999.0)
            if abs(shift) >= spec.shift_threshold:
                kinds.append("level_shift")
    return z, shift, tuple(kinds)


def test_sorted_window_matches_a_full_sort_every_step():
    """The detector keeps its window sorted step by step (one insort,
    one removal) instead of sorting it per step; over regime changes,
    repeats and a full history turnover, every step's z, shift and
    flags equal the full-sort computation."""
    spec = DetectorSpec(name="lat-mean", instrument="lat", mode="mean",
                        history=12)
    detector = StreamingDetector(spec)
    telemetry = Telemetry()
    rng = np.random.default_rng(21)
    window = []
    level = 100.0
    flagged = 0
    for at in range(1, 200):
        if at % 37 == 0:
            level *= 3.0 if level < 200.0 else 1.0 / 3.0
        values = [level + float(rng.integers(-2, 3))] * 2
        apply_step(telemetry, {}, values)
        detector.observe(telemetry, float(at))
        value = detector.last["value"]
        z, shift, kinds = _reference_step(spec, window, value)
        assert (detector.last["z"], detector.last["shift"],
                detector.last["kinds"]) == \
            (round(z, 9), round(shift, 9), kinds)
        flagged += bool(kinds)
        window = (window + [value])[-spec.history:]
    assert detector._ordered == sorted(window)
    assert flagged


# ---- spec hygiene ----------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown detector mode"):
        DetectorSpec(name="x", instrument="lat", mode="p99")
    with pytest.raises(ValueError, match="needs a total"):
        DetectorSpec(name="x", instrument="fallbacks", mode="ratio")
    with pytest.raises(ValueError, match="history"):
        DetectorSpec(name="x", instrument="lat", history=4)
    with pytest.raises(ValueError, match="duplicate detector"):
        AnomalyMonitor((SPECS[0], SPECS[0]))


def test_default_detectors_read_deterministic_instruments_only():
    """The stock set must never follow a wall-clock instrument, or
    replayed anomaly series would stop being reproducible."""
    for spec in default_detectors():
        assert "decision_latency" not in spec.instrument
        assert not spec.instrument.startswith("stage_")


def test_idle_steps_hold_the_series():
    """A snapshot with no new denominator activity repeats the last
    windowed value instead of inventing a zero (which would read as a
    collapse and page)."""
    detector = StreamingDetector(SPECS[0])
    telemetry = Telemetry()
    telemetry.histogram("lat").observe(100.0)
    detector.observe(telemetry, 1.0)
    point = detector.observe(telemetry, 2.0)   # idle: nothing new
    assert point is None
    assert detector.last["value"] == 100.0
