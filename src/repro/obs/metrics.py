"""Unified metrics registry: counters, histograms, exporters.

A :class:`Telemetry` registry hands out named :class:`Counter` and
:class:`Histogram` instruments -- optionally *labeled* with a small
``{key: value}`` dict, Prometheus style -- and exports them as JSONL
(one JSON object per instrument) or Prometheus text exposition format.
:func:`read_jsonl` is the one reader behind every JSONL surface of the
repo, and :class:`WindowedSeries` the one cumulative-window primitive
the SLO and anomaly layers judge with.

Every instrument is *mergeable*: a fleet shard aggregates its cells'
telemetry locally, ships a compact serialisable state to the
coordinator, and the coordinator folds shard states into one fleet
view (:meth:`Counter.merge`, :meth:`Histogram.merge`,
:meth:`Telemetry.merge`) -- the memory cost of the aggregate is
bounded by the instrument count, never by the observation count.  A
JSONL export carries the same state (counter values, and each
histogram's :meth:`Histogram.state` beside its readouts), so
:func:`read_telemetry` rebuilds a file or a directory of runs as one
merged registry through :meth:`Telemetry.from_state`, exactly as the
fleet coordinator rebuilds a shard.

Timestamps are injectable: ``Telemetry(clock=...)`` replaces the
``time.time`` used by the exporters, so exported artefacts are
deterministic under test and span/metric timelines can be correlated
against a shared clock.
"""

from __future__ import annotations

import bisect
import json
import operator
import os
import re
import time
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

#: Percentiles exported for every histogram.
EXPORT_PERCENTILES = (50.0, 90.0, 99.0)

#: Exact-mode capacity: a histogram keeps raw samples (exact
#: percentiles) until it has seen this many observations, then folds
#: them into the fixed bucket grid and stays bounded forever after.
EXACT_SAMPLE_LIMIT = 1024

#: Fixed log-spaced bucket grid shared by *every* histogram, so any
#: two histograms merge bucket-for-bucket.  2**0.25 growth gives a
#: worst-case relative quantile error of ~9%; the span covers
#: sub-microsecond latencies up to ~1e9 (counts, byte totals).
BUCKET_FACTOR = 2.0 ** 0.25
BUCKET_MIN = 1e-6
_DECADES = np.log(1e9 / BUCKET_MIN)
BUCKET_COUNT = int(np.ceil(_DECADES / np.log(BUCKET_FACTOR)))
#: Bucket ``i`` (1-based in the counts array) covers
#: ``[_EDGES[i-1], _EDGES[i])``; counts[0] is the underflow bucket
#: (values below ``BUCKET_MIN``, zeros included), counts[-1] overflow.
_EDGES = BUCKET_MIN * BUCKET_FACTOR ** np.arange(BUCKET_COUNT + 1)

#: Characters that would break the ``name{k="v",...}`` key grammar and
#: the Prometheus exposition format.
_LABEL_FORBIDDEN = re.compile(r'[{}=,"\n\\]')


def instrument_key(name: str,
                   labels: Optional[Mapping[str, str]] = None) -> str:
    """Registry key for a (name, labels) pair.

    Label-less instruments keep their bare name (so existing snapshot
    keys, checkpoint states and fleet counters are unchanged); labeled
    instruments get the Prometheus-style ``name{k="v",...}`` with keys
    sorted, so the key is deterministic.
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        if _LABEL_FORBIDDEN.search(key) or _LABEL_FORBIDDEN.search(value):
            raise ValueError(
                f"label {key!r}={value!r} contains a character reserved "
                "by the key grammar ({{}}=,\" or newline)")
        parts.append(f'{key}="{value}"')
    return name + "{" + ",".join(parts) + "}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`instrument_key` (labels empty for bare names)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value.strip('"')
    return name, labels


class Counter:
    """A monotonically increasing named count."""

    def __init__(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels: Dict[str, str] = \
            {k: str(v) for k, v in (labels or {}).items()}
        self.key = instrument_key(name, self.labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def inc_many(self, amounts) -> None:
        """``inc(a)`` for every ``a`` of ``amounts``, in order, as one
        array operation: the total is the same float the loop leaves
        (:func:`_running_sum`)."""
        amounts = np.asarray(amounts, dtype=float).ravel()
        if (amounts < 0).any():
            raise ValueError("counters only increase")
        self.value = _running_sum(self.value, amounts)

    def merge(self, other: "Counter") -> "Counter":
        """Fold another counter's total into this one."""
        self.inc(other.value)
        return self

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {"metric": self.name, "type": "counter",
                                  "value": self.value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Histogram:
    """Bounded, mergeable histogram with percentile readout.

    Small samples stay *exact*: observations are kept verbatim (and
    percentiles computed from them) until :data:`EXACT_SAMPLE_LIMIT`,
    the regime every single-cell serve run lives in.  Past the limit
    the samples fold into the fixed log-spaced bucket grid and memory
    stays O(buckets) no matter how many observations follow -- the
    regime a fleet aggregate lives in.  ``count``/``sum``/``min``/
    ``max`` are tracked exactly in both modes; bucket-mode percentiles
    interpolate linearly *within* the straddling bucket (<= ~9%
    relative error by bucket construction), so quantile readouts --
    and the burn-rate math built on them -- move smoothly with new
    observations instead of jumping edge to edge.

    Snapshot keys are unchanged from the exact-only implementation
    (``count``/``sum``/``mean``/``p50``/``p90``/``p99``); ``mode`` is
    additive.
    """

    def __init__(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels: Dict[str, str] = \
            {k: str(v) for k, v in (labels or {}).items()}
        self.key = instrument_key(name, self.labels)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        #: Raw samples while exact; ``None`` once folded into buckets.
        self._samples: Optional[List[float]] = []
        self._buckets: Optional[np.ndarray] = None
        #: ``(threshold, samples scanned, count above)`` of the last
        #: exact :meth:`count_over`: samples are append-only while
        #: exact, so a repeat ask scans only the newer ones.
        self._over: Tuple[Optional[float], int, int] = (None, 0, 0)

    # ---- recording ---------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if self._samples is not None:
            self._samples.append(value)
            if len(self._samples) > EXACT_SAMPLE_LIMIT:
                self._fold()
        else:
            self._buckets[_bucket_index(value)] += 1

    def observe_many(self, values) -> None:
        """:meth:`observe` every value of ``values``, in order, as a
        constant number of array operations.

        Leaves exactly what the loop leaves: ``sum`` is added left to
        right (it is an order-dependent float, so never ``np.sum``,
        which adds pairwise), NaNs are skipped by ``min`` / ``max`` as
        the comparisons skip them, and samples crossing
        :data:`EXACT_SAMPLE_LIMIT` land in the same buckets whether
        they fold together or one by one.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 1:
            self.observe(values.item())
            return
        values = values.ravel()
        if not values.size:
            return
        self._count += values.size
        self._sum = _running_sum(self._sum, values)
        self._min = min(self._min, float(np.fmin.reduce(values)))
        self._max = max(self._max, float(np.fmax.reduce(values)))
        if self._samples is None:
            self._buckets += _bucketize(values)
            return
        self._samples.extend(values.tolist())
        if len(self._samples) > EXACT_SAMPLE_LIMIT:
            self._fold()

    def _fold(self) -> None:
        """Switch from exact samples to the bounded bucket grid."""
        self._buckets = _bucketize(self._samples)
        self._samples = None

    # ---- reading -----------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def exact(self) -> bool:
        """Whether percentiles are still computed from raw samples."""
        return self._samples is not None

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100] (0.0 when empty).

        Exact in exact mode; bucket-interpolated (then clipped to the
        observed [min, max]) once folded.
        """
        if self._count == 0:
            return 0.0
        if self._samples is not None:
            return float(np.percentile(np.asarray(self._samples), p))
        target = (p / 100.0) * self._count
        cumulative = np.cumsum(self._buckets)
        index = int(np.searchsorted(cumulative, max(target, 1.0)))
        index = min(index, len(self._buckets) - 1)
        below = cumulative[index - 1] if index > 0 else 0
        inside = self._buckets[index]
        frac = ((target - below) / inside) if inside else 0.0
        frac = min(max(frac, 0.0), 1.0)
        if index == 0:                     # underflow: [<=0, BUCKET_MIN)
            low, high = min(self._min, 0.0), BUCKET_MIN
            value = low + frac * (high - low)
        elif index == len(self._buckets) - 1:   # overflow bucket
            value = self._max
        else:
            low, high = _EDGES[index - 1], _EDGES[index]
            value = low + frac * (high - low)   # linear within bucket
        return float(min(max(value, self._min), self._max))

    def count_over(self, threshold: float) -> float:
        """Observations strictly above ``threshold`` (0.0 when empty).

        Exact in exact mode.  In bucketed mode, full buckets above the
        threshold count whole and the straddling bucket contributes a
        linearly interpolated share -- the same within-bucket model as
        :meth:`percentile` -- so SLI fractions built on it (e.g. "how
        much traffic blew the latency budget") stay smooth rather than
        step-quantized at bucket edges.
        """
        threshold = float(threshold)
        if self._count == 0 or threshold >= self._max:
            return 0.0
        if threshold < self._min:
            return float(self._count)
        samples = self._samples
        if samples is not None:
            asked, seen, over = self._over
            if asked != threshold:
                seen = over = 0
            for value in samples[seen:]:
                if value > threshold:
                    over += 1
            self._over = (threshold, len(samples), over)
            return float(over)
        index = _bucket_index(threshold)
        above = float(self._buckets[index + 1:].sum())
        inside = int(self._buckets[index])
        if inside:
            if index == 0:                 # underflow: [<=0, BUCKET_MIN)
                low, high = min(self._min, 0.0), BUCKET_MIN
            elif index == len(self._buckets) - 1:   # overflow bucket
                low, high = _EDGES[-1], max(self._max, float(_EDGES[-1]))
            else:
                low, high = float(_EDGES[index - 1]), \
                    float(_EDGES[index])
            span = high - low
            frac = (high - threshold) / span if span > 0 else 0.0
            above += inside * min(max(frac, 0.0), 1.0)
        return float(min(above, self._count))

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "metric": self.name, "type": "histogram",
            "count": self.count, "sum": self.total, "mean": self.mean,
            "mode": "exact" if self.exact else "bucketed",
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        for p in EXPORT_PERCENTILES:
            out[f"p{p:g}"] = self.percentile(p)
        return out

    # ---- merging / serialisation -------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram.

        ``other`` is never mutated.  Merging is commutative and
        associative up to bucket resolution: two exact histograms stay
        exact while the combined sample count fits the exact limit,
        otherwise the merge lands on the shared bucket grid.
        """
        if other._count == 0:
            return self
        if (self._samples is not None and other._samples is not None
                and self._count + other._count <= EXACT_SAMPLE_LIMIT):
            self._samples.extend(other._samples)
        else:
            if self._samples is not None:
                self._fold()
            self._buckets = self._buckets + (
                other._buckets if other._buckets is not None
                else _bucketize(other._samples))
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def state(self) -> Dict[str, object]:
        """JSON-safe state for checkpointing / shard-to-coordinator
        shipping (inverse: :meth:`from_state`)."""
        out: Dict[str, object] = {
            "name": self.name, "count": self._count, "sum": self._sum,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        if self._count:
            out["min"], out["max"] = self._min, self._max
        if self._samples is not None:
            out["samples"] = list(self._samples)
        else:
            out["buckets"] = self._buckets.tolist()
        return out

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Histogram":
        histogram = cls(str(state["name"]), state.get("labels"))
        histogram._count = int(state["count"])
        histogram._sum = float(state["sum"])
        histogram._min = float(state.get("min", float("inf")))
        histogram._max = float(state.get("max", float("-inf")))
        if "samples" in state:
            histogram._samples = [float(v) for v in state["samples"]]
        else:
            histogram._samples = None
            buckets = np.asarray(state["buckets"], dtype=np.int64)
            if buckets.shape != (BUCKET_COUNT + 2,):
                raise ValueError(
                    f"histogram state for {histogram.name!r} has "
                    f"{buckets.shape[0]} buckets, expected "
                    f"{BUCKET_COUNT + 2} (incompatible grid)")
            histogram._buckets = buckets
        return histogram


def _bucket_index(value: float) -> int:
    """Counts-array index for ``value`` (0 underflow, -1 overflow)."""
    if value < BUCKET_MIN:
        return 0
    if value >= _EDGES[-1]:
        return BUCKET_COUNT + 1
    return int(np.searchsorted(_EDGES, value, side="right"))


def _running_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right --
    the float a loop of ``+=`` leaves (``np.sum`` adds pairwise and
    rounds differently)."""
    if not values.size:
        return start
    return float(np.add.accumulate(
        np.concatenate(((start,), values)))[-1])


def _bucketize(samples) -> np.ndarray:
    """Fold raw samples onto the shared grid (underflow+grid+overflow)."""
    counts = np.zeros(BUCKET_COUNT + 2, dtype=np.int64)
    values = np.asarray(samples, dtype=float)
    if values.size:
        indices = np.searchsorted(_EDGES, values, side="right")
        indices[values < BUCKET_MIN] = 0
        indices[values >= _EDGES[-1]] = BUCKET_COUNT + 1
        np.add.at(counts, indices, 1)
    return counts


def _prom_name(name: str) -> str:
    """Sanitise a metric name for the Prometheus exposition format."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(labels: Mapping[str, str],
                 extra: Optional[Mapping[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{merged[k]}"'
                     for k in sorted(merged))
    return "{" + inner + "}"


class Telemetry:
    """Registry of named instruments for one service/loadgen run."""

    def __init__(self,
                 clock: Callable[[], float] = time.time) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    @classmethod
    def from_state(cls, counters: Mapping[str, float],
                   histograms: Mapping[str, Dict]) -> "Telemetry":
        """A registry rebuilt from counter values and
        :meth:`Histogram.state` records, both by instrument key -- what
        a fleet shard ships and what a JSONL export carries."""
        telemetry = cls()
        for key in sorted(counters):
            name, labels = parse_key(key)
            telemetry.counter(name, labels).inc(counters[key])
        for key in sorted(histograms):
            telemetry.adopt(Histogram.from_state(histograms[key]))
        return telemetry

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        key = instrument_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            if key in self._histograms:
                raise ValueError(f"{key!r} is already a histogram")
            instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None) -> Histogram:
        key = instrument_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            if key in self._counters:
                raise ValueError(f"{key!r} is already a counter")
            instrument = self._histograms[key] = Histogram(name, labels)
        return instrument

    def counters(self) -> Dict[str, Counter]:
        """Key -> counter, in insertion order (live objects)."""
        return dict(self._counters)

    def find_counter(self, key: str) -> Optional[Counter]:
        """The counter registered under ``key``, or ``None`` -- a
        copy-free read for hot-path consumers (the SLO evaluator
        re-reads the registry every few decision batches)."""
        return self._counters.get(key)

    def find_histogram(self, key: str) -> Optional["Histogram"]:
        """The histogram registered under ``key``, or ``None``."""
        return self._histograms.get(key)

    def histograms(self) -> Dict[str, Histogram]:
        """Key -> histogram, in insertion order (live objects)."""
        return dict(self._histograms)

    def adopt(self, instrument) -> None:
        """Fold a free-standing instrument into the registry under its
        own (name, labels) key -- the rebuild side of checkpoint
        resume, where instruments arrive as deserialised objects rather
        than through the accessor methods."""
        if isinstance(instrument, Counter):
            self.counter(instrument.name,
                         instrument.labels).merge(instrument)
        elif isinstance(instrument, Histogram):
            self.histogram(instrument.name,
                           instrument.labels).merge(instrument)
        else:
            raise TypeError(f"cannot adopt {type(instrument).__name__}")

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold every instrument of ``other`` into this registry --
        the coordinator side of shard aggregation."""
        for counter in other._counters.values():
            self.adopt(counter)
        for histogram in other._histograms.values():
            self.adopt(histogram)
        return self

    def snapshot(self) -> List[Dict[str, object]]:
        """Every instrument's current reading, counters first (then
        histograms), each group sorted by key."""
        rows = [c.snapshot() for _, c in sorted(self._counters.items())]
        rows += [h.snapshot() for _, h in sorted(self._histograms.items())]
        return rows

    def export_jsonl(self, path: str,
                     run_label: Optional[str] = None) -> str:
        """Write one JSON object per instrument to ``path`` (JSONL):
        its :meth:`snapshot` row, and for a histogram its
        :meth:`Histogram.state` under ``"state"`` (what
        :func:`read_telemetry` rebuilds it from).

        Parent directories are created; the file is overwritten (one
        file per run -- label runs via the filename or ``run_label``).
        """
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        stamp = self._clock()
        rows = [c.snapshot() for _, c in sorted(self._counters.items())]
        rows += [{**h.snapshot(), "state": h.state()}
                 for _, h in sorted(self._histograms.items())]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                if run_label is not None:
                    row = {"run": run_label, **row}
                fh.write(json.dumps({**row, "unix_time": stamp}) + "\n")
        return path

    def export_prometheus(self) -> str:
        """Render every instrument in the Prometheus text exposition
        format (v0.0.4): counters as ``<name>_total``, histograms as
        summaries (quantile series + ``_sum``/``_count``).
        """
        lines: List[str] = []
        for _, counter in sorted(self._counters.items()):
            name = _prom_name(counter.name) + "_total"
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_prom_labels(counter.labels)} "
                         f"{counter.value:g}")
        for _, histogram in sorted(self._histograms.items()):
            name = _prom_name(histogram.name)
            lines.append(f"# TYPE {name} summary")
            for p in EXPORT_PERCENTILES:
                labels = _prom_labels(histogram.labels,
                                      {"quantile": f"{p / 100.0:g}"})
                lines.append(f"{name}{labels} "
                             f"{histogram.percentile(p):g}")
            base = _prom_labels(histogram.labels)
            lines.append(f"{name}_sum{base} {histogram.total:g}")
            lines.append(f"{name}_count{base} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def export_prometheus_file(self, path: str) -> str:
        """Write :meth:`export_prometheus` output to ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_prometheus())
        return path


def jsonl_files(paths: Sequence[str]) -> List[str]:
    """Each path itself, or for a directory its ``*.jsonl`` files in
    name order."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".jsonl")))
        else:
            files.append(path)
    return files


def read_telemetry(path: str) -> Telemetry:
    """The telemetry export at ``path`` -- one JSONL file, or every
    ``*.jsonl`` file of a directory -- as one merged registry: counters
    add up and histograms merge across files, as fleet shards do.

    Rows follow the :func:`read_jsonl` policy.  Every row must be a
    counter with its value or a histogram with its ``state`` record; any
    other row (a histogram exported with readouts only, a malformed
    state) raises ``ValueError`` naming the file.
    """
    merged = Telemetry()
    for file_path in jsonl_files([path]):
        rows = read_jsonl(file_path)
        counters: Dict[str, float] = {}
        histograms: Dict[str, Dict] = {}
        try:
            for row in rows:
                key = instrument_key(str(row.get("metric", "")),
                                     row.get("labels"))
                kind = row.get("type")
                if kind == "counter":
                    counters[key] = float(row["value"])
                elif kind == "histogram" and "state" in row:
                    histograms[key] = row["state"]
                else:
                    raise ValueError(
                        f"{kind} row {key!r} is not a counter or a "
                        "histogram with its instrument state (exports "
                        "carry counters and histogram states; re-export "
                        "it)")
            registry = Telemetry.from_state(counters, histograms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{file_path}: {exc}") from None
        merged.merge(registry)
    return merged


def read_jsonl(path: str) -> List[Dict]:
    """The object rows of one JSONL file, blank lines skipped.

    One policy for checkpoints, incident timelines, telemetry exports
    and trace files: an undecodable *final* line is the signature of a
    writer killed mid-append, so the rows before it stand; an
    undecodable (or non-object) line anywhere earlier is corruption
    and raises ``ValueError`` naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    rows: List[Dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            if lineno == len(lines):
                break
            raise ValueError(f"{path}:{lineno}: undecodable JSONL "
                             f"row ({exc})") from None
        if not isinstance(row, dict):
            raise ValueError(f"{path}:{lineno}: JSONL row is not an "
                             "object")
        rows.append(row)
    return rows


_sample_at = operator.itemgetter(0)


class WindowedSeries:
    """Cumulative ``(at, numerator, denominator)`` ring over one
    instrument reading of a growing :class:`Telemetry` registry.

    reading="latency"
        ``instrument`` names a histogram: observations above
        ``threshold`` over all observations.
    reading="mean"
        ``instrument`` names a histogram: sum over count.
    reading="ratio"
        ``instrument`` / ``total`` name counters.
    reading="rate"
        ``instrument`` names a counter; the denominator is the
        caller's ``at`` axis itself.

    Counters and histograms only ever grow (and fleet prefixes merge
    monotonically), so a windowed value is a delta ratio against the
    newest sample at or before the window start -- the zero origin
    before any sample.  ``horizon`` is the longest window a caller
    will ask for; older samples are dropped, keeping one anchor at or
    before every reachable window start.  The drop is amortised (once
    the ring has doubled): an older sample still present never changes
    which anchor a window finds.
    """

    def __init__(self, label: str, reading: str, instrument: str,
                 total: str = "", threshold: float = 0.0,
                 horizon: float = 0.0) -> None:
        #: Names the owner in the monotonic-``at`` error.
        self.label = label
        self.reading = reading
        self.instrument = instrument
        self.total = total
        self.threshold = threshold
        self.horizon = horizon
        self._samples: List[Tuple[float, float, float]] = []
        #: Ring length past which :meth:`push` drops expired samples.
        self._trim_len = 8

    def _cumulative(self, telemetry: "Telemetry"
                    ) -> Tuple[float, float]:
        """(numerator, denominator) running totals; the ``rate``
        denominator is filled in by :meth:`push`."""
        if self.reading in ("latency", "mean"):
            histogram = telemetry.find_histogram(self.instrument)
            if histogram is None:
                return 0.0, 0.0
            if self.reading == "latency":
                return (histogram.count_over(self.threshold),
                        float(histogram.count))
            return float(histogram.total), float(histogram.count)
        numerator = telemetry.find_counter(self.instrument)
        total = telemetry.find_counter(self.total)
        return (numerator.value if numerator is not None else 0.0,
                total.value if total is not None else 0.0)

    def overall(self, telemetry: "Telemetry") -> float:
        """The whole-registry value (no windowing, nothing stored)."""
        num, den = self._cumulative(telemetry)
        return num / den if den > 0 else 0.0

    def push(self, telemetry: "Telemetry", at: float) -> None:
        """Sample the registry at logical time ``at`` (strictly after
        the previous sample)."""
        samples = self._samples
        if samples and at <= samples[-1][0]:
            raise ValueError(
                f"observation at {at} is not after the previous "
                f"sample at {samples[-1][0]} ({self.label})")
        num, den = self._cumulative(telemetry)
        samples.append((at, num, at if self.reading == "rate" else den))
        if len(samples) > self._trim_len:
            keep = bisect.bisect_right(samples, at - self.horizon,
                                       hi=len(samples) - 1,
                                       key=_sample_at) - 1
            if keep > 0:
                del samples[:keep]
            self._trim_len = 2 * len(samples) + 8

    def rate(self, window: float, idle: float = 0.0) -> float:
        """Delta ratio of the newest sample against the newest earlier
        sample at or before ``at - window``; ``idle`` when the
        denominator did not move."""
        samples = self._samples
        at, num, den = samples[-1]
        index = bisect.bisect_right(samples, at - window,
                                    hi=len(samples) - 1,
                                    key=_sample_at)
        anchor_num = anchor_den = 0.0
        if index > 0:
            _, anchor_num, anchor_den = samples[index - 1]
        delta_den = den - anchor_den
        if delta_den <= 0:
            return idle
        return (num - anchor_num) / delta_den
