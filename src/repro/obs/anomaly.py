"""Streaming anomaly detection over telemetry instruments.

The SLO layer (:mod:`repro.obs.slo`) judges telemetry against a
declared contract; this module notices *change* without one.  A
:class:`StreamingDetector` follows a single instrument-derived series
(a histogram's windowed mean, a counter ratio, or a counter rate) and
flags two shapes of trouble:

spike
    The newest windowed value sits far from the recent robust centre:
    ``|value - median| / (1.4826 * MAD)`` beyond
    :attr:`DetectorSpec.z_threshold`.  Median/MAD instead of mean/std
    keeps one outlier from poisoning the baseline it is judged
    against.
level shift
    The median of the newer half of the history has moved away from
    the median of the older half by more than
    :attr:`DetectorSpec.shift_threshold` robust sigmas -- the
    signature of a sustained regime change (a transport brownout, a
    fallback latch) rather than a blip.

Detectors keep the same discipline as :class:`~repro.obs.slo
.SloEvaluator`: they are fed *cumulative* registries on a logical
time axis and derive per-step values as deltas off the same
:class:`~repro.obs.metrics.WindowedSeries` -- so a fleet replay that
merges shard prefixes in shard-index order produces bit-identical
anomaly series no matter how the underlying observations were split
across shards (see ``tests/test_anomaly_props.py``).

An EWMA of the series is maintained alongside (``alpha`` smoothing)
purely as a cheap trend readout for dashboards; flagging decisions
use the robust statistics only.

Import discipline: :mod:`repro.obs.metrics` and the standard library
(histories are tiny by construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Telemetry, WindowedSeries

#: Series modes a detector understands (see :class:`DetectorSpec`).
MODES = ("mean", "ratio", "rate")

#: Flagged points kept per detector (oldest evicted first).
POINT_LIMIT = 256

#: Z-scores are clamped here: a zero-MAD baseline makes any deviation
#: "infinitely" surprising, which is true but unhelpful to render.
Z_CLAMP = 999.0

#: Relative floor on the robust scale, so a near-constant baseline
#: (MAD ~ 0) does not turn float dust into paging z-scores.
SCALE_FLOOR = 0.05


@dataclass(frozen=True)
class DetectorSpec:
    """One streaming detector over one (or two) instruments.

    mode="mean"
        ``instrument`` names a histogram; the series is its windowed
        mean (delta sum / delta count per step).
    mode="ratio"
        ``instrument`` / ``total`` name counters; the series is their
        windowed delta ratio (e.g. fallbacks per decision).
    mode="rate"
        ``instrument`` names a counter; the series is its delta per
        unit of the caller's ``at`` axis.
    """

    name: str
    instrument: str
    mode: str = "mean"
    #: Denominator counter key (ratio mode only).
    total: str = ""
    #: EWMA smoothing for the trend readout.
    alpha: float = 0.3
    #: Robust z-score beyond which a point is a spike.
    z_threshold: float = 4.0
    #: Half-median divergence (in robust sigmas) that is a level shift.
    shift_threshold: float = 2.0
    #: Bounded history of windowed values per detector.
    history: int = 32
    #: Steps observed before spike flagging engages.
    warmup: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("detector name must be non-empty")
        if self.mode not in MODES:
            raise ValueError(f"unknown detector mode {self.mode!r}; "
                             f"expected one of {MODES}")
        if not self.instrument:
            raise ValueError(f"detector {self.name!r} names no "
                             "instrument")
        if self.mode == "ratio" and not self.total:
            raise ValueError(f"detector {self.name!r}: ratio mode "
                             "needs a total counter")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"detector {self.name!r}: alpha must be "
                             "in (0, 1]")
        if self.z_threshold <= 0 or self.shift_threshold <= 0:
            raise ValueError(f"detector {self.name!r}: thresholds "
                             "must be positive")
        if self.history < 8:
            raise ValueError(f"detector {self.name!r}: history must "
                             "be >= 8 (level shift halves it)")
        if self.warmup < 1:
            raise ValueError(f"detector {self.name!r}: warmup must "
                             "be >= 1")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _robust_scale(values: Sequence[float], centre: float) -> float:
    """1.4826 * MAD, floored relative to the centre (see module
    docstring): the unit spikes and shifts are measured in."""
    mad = _median([abs(v - centre) for v in values])
    return max(1.4826 * mad, SCALE_FLOOR * abs(centre), 1e-12)


class StreamingDetector:
    """Follows one :class:`DetectorSpec` series through cumulative
    telemetry snapshots (see module docstring for the algebra)."""

    def __init__(self, spec: DetectorSpec) -> None:
        self.spec = spec
        #: Step deltas only: a zero horizon keeps the previous sample.
        self._series = WindowedSeries(
            f"detector {spec.name!r}", spec.mode, spec.instrument,
            total=spec.total if spec.mode == "ratio" else "")
        #: Windowed values, oldest first, bounded by ``spec.history``.
        self._values: List[float] = []
        self.ewma: Optional[float] = None
        self._points: List[Dict] = []
        self._last: Optional[Dict] = None

    # ---- the streaming step -----------------------------------------

    def observe(self, telemetry: Telemetry, at: float
                ) -> Optional[Dict]:
        """Ingest one cumulative snapshot at logical time ``at``;
        returns the flagged point dict, or ``None`` when the step is
        unremarkable (the common case)."""
        at = float(at)
        spec = self.spec
        self._series.push(telemetry, at)
        # an idle step (no new denominator) holds the series
        value = self._series.rate(
            0.0, idle=self._values[-1] if self._values else 0.0)

        # baseline excludes this step: statistics read self._values
        # *before* the append below
        window = self._values
        self.ewma = value if self.ewma is None else \
            spec.alpha * value + (1.0 - spec.alpha) * self.ewma

        # The robust scale is floored at SCALE_FLOOR * |centre|, so
        # |value - centre| / floor upper-bounds |z| (and the window
        # spread / floor upper-bounds |shift|).  When the bound sits
        # below the threshold, no flag is possible and the exact
        # median-of-deviations pass is skipped -- flag decisions are
        # bit-identical, quiet-step z/shift readouts carry the (still
        # deterministic, sub-threshold) floored bound.  This keeps the
        # every-batch serving cadence within the bench overhead gate.
        kinds: List[str] = []
        z = 0.0
        shift = 0.0
        if len(window) >= spec.warmup:
            centre = _median(window)
            gap = value - centre
            floor = max(SCALE_FLOOR * abs(centre), 1e-12)
            if abs(gap) / floor >= spec.z_threshold:
                scale = _robust_scale(window, centre)
                z = min(max(gap / scale, -Z_CLAMP), Z_CLAMP)
                if abs(z) >= spec.z_threshold:
                    kinds.append("spike")
            else:
                z = gap / floor
        if len(window) + 1 >= 8:
            lo = min(min(window), value)
            hi = max(max(window), value)
            full = window + [value]
            centre_full = _median(full)
            floor = max(SCALE_FLOOR * abs(centre_full), 1e-12)
            if (hi - lo) / floor >= spec.shift_threshold:
                half = len(full) // 2
                older_med = _median(full[:half])
                newer_med = _median(full[half:])
                scale = _robust_scale(full, centre_full)
                shift = min(max((newer_med - older_med) / scale,
                                -Z_CLAMP), Z_CLAMP)
                if abs(shift) >= spec.shift_threshold:
                    kinds.append("level_shift")
        window.append(value)
        del window[:-spec.history]

        point = {
            "detector": spec.name,
            "instrument": spec.instrument,
            "mode": spec.mode,
            "at": round(at, 9),
            "value": round(value, 9),
            "ewma": round(self.ewma, 9),
            "z": round(z, 9),
            "shift": round(shift, 9),
            "kinds": tuple(kinds),
        }
        self._last = point
        if kinds:
            self._points.append(point)
            del self._points[:-POINT_LIMIT]
            return point
        return None

    # ---- readouts ----------------------------------------------------

    @property
    def points(self) -> List[Dict]:
        """Flagged points, oldest first (bounded)."""
        return list(self._points)

    @property
    def last(self) -> Optional[Dict]:
        """The most recent point (flagged or not), for dashboards."""
        return self._last


class AnomalyMonitor:
    """A detector set fed as one unit -- the anomaly-side counterpart
    of :class:`~repro.obs.slo.SloEvaluator`, with the same
    ``observe(telemetry, at)`` streaming contract."""

    def __init__(self, detectors: Optional[Sequence[DetectorSpec]]
                 = None) -> None:
        specs = tuple(detectors) if detectors is not None \
            else default_detectors()
        seen = set()
        for spec in specs:
            if spec.name in seen:
                raise ValueError(f"duplicate detector name "
                                 f"{spec.name!r}")
            seen.add(spec.name)
        self.detectors: Tuple[StreamingDetector, ...] = \
            tuple(StreamingDetector(spec) for spec in specs)

    def observe(self, telemetry: Telemetry, at: float) -> List[Dict]:
        """One streaming step for every detector; returns the points
        flagged *this* step (usually empty)."""
        flagged = []
        for detector in self.detectors:
            point = detector.observe(telemetry, at)
            if point is not None:
                flagged.append(point)
        return flagged

    def anomalies(self) -> List[Dict]:
        """Every flagged point so far, ordered by (at, detector)."""
        points: List[Dict] = []
        for detector in self.detectors:
            points.extend(detector.points)
        points.sort(key=lambda p: (p["at"], p["detector"]))
        return points

    def statuses(self) -> List[Dict]:
        """The latest point per detector (flagged or not), in
        detector order -- the dashboard readout."""
        return [detector.last for detector in self.detectors
                if detector.last is not None]


def default_detectors() -> Tuple[DetectorSpec, ...]:
    """The stock detector set over the serving stack's *deterministic*
    instruments -- simulated latencies, decision counters -- never the
    wall-clock ones (``decision_latency_ms`` et al.), so fleet-replay
    anomaly series are reproducible and shard-count-invariant."""
    return (
        DetectorSpec(
            name="slice-latency-mean", instrument="slice_latency_ms",
            mode="mean"),
        DetectorSpec(
            name="fallback-rate", instrument="fallbacks",
            total="decisions", mode="ratio"),
        DetectorSpec(
            name="sla-violation-rate", instrument="sla_violations",
            total="sla_episodes", mode="ratio"),
        DetectorSpec(
            name="slot-cost-mean", instrument="slice_cost_total",
            total="slice_slots", mode="ratio"),
    )
