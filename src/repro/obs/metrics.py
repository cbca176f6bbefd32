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
:meth:`Telemetry.merge`) -- the aggregate's memory grows with the
instruments and their value ranges, never with the observations.  A
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
import math
import operator
import os
import re
import time
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as np

#: Percentiles exported for every histogram.
EXPORT_PERCENTILES = (50.0, 90.0, 99.0)

#: Relative accuracy of every histogram percentile (DDSketch: Masson,
#: Rim and Lee, VLDB 2019): a readout is within this fraction of the
#: sample value it stands for.
RELATIVE_ACCURACY = 0.01
#: Bucket ``k`` holds the values in ``(GAMMA**(k-1), GAMMA**k]``; the
#: grid is shared, so any two histograms merge bucket for bucket.
GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
#: Keys are ``ceil(np.log(x) / _LOG_GAMMA)`` in the scalar and the
#: bulk path alike: ``math.log`` rounds differently on some inputs, and
#: a boundary value would change bucket between the two.
_LOG_GAMMA = float(np.log(GAMMA))
#: Zeros, negatives and values up to this share one low bucket.
BUCKET_MIN = 1e-6

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
    """Mergeable log-bucket sketch with relative-error percentiles.

    A value ``x > BUCKET_MIN`` lands in bucket ``ceil(log_GAMMA x)``;
    zeros, negatives and values up to ``BUCKET_MIN`` share one low
    bucket.  The state is integer counts from ``offset`` (the lowest
    bucket seen) up to the highest, plus exact ``count`` / ``sum`` /
    ``min`` / ``max``: it grows with the values' dynamic range, never
    with the observation count, and a merge adds counts, exactly.
    Percentiles are within :data:`RELATIVE_ACCURACY` of the sample at
    their rank; p0 and p100 are the exact min and max.  A NaN or an
    infinity is refused with a ``ValueError`` naming the instrument.
    """

    def __init__(self, name: str,
                 labels: Optional[Mapping[str, str]] = None) -> None:
        self.name = name
        self.labels: Dict[str, str] = \
            {k: str(v) for k, v in (labels or {}).items()}
        self.key = instrument_key(name, self.labels)
        self._count, self._sum = 0, 0.0
        self._min, self._max = float("inf"), float("-inf")
        #: Observations at or below ``BUCKET_MIN``; bucket
        #: ``_offset + i`` holds ``_counts[i]`` of the others.
        self._low, self._offset = 0, 0
        self._counts = np.zeros(0, dtype=np.int64)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.key!r} cannot hold "
                             f"{value}: observations must be finite")
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= BUCKET_MIN:
            self._low += 1
            return
        index = math.ceil(np.log(value) / _LOG_GAMMA) - self._offset
        if 0 <= index < self._counts.size:
            self._counts[index] += 1
        else:
            self._add(index + self._offset, np.ones(1, dtype=np.int64))

    def observe_many(self, values) -> None:
        """:meth:`observe` every value of ``values``, in order, as a
        constant number of array operations, leaving exactly what the
        loop leaves: keys come from the same ``np.log``, and ``sum`` is
        added left to right (never the pairwise ``np.sum``)."""
        values = np.asarray(values, dtype=float)
        if values.size == 1:
            self.observe(values.item())
            return
        values = values.ravel()
        if not values.size:
            return
        if not np.isfinite(values).all():   # refused, changing nothing
            self.observe(values[~np.isfinite(values)][0])
        self._count += values.size
        self._sum = _running_sum(self._sum, values)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        high = values[values > BUCKET_MIN]
        self._low += values.size - high.size
        if high.size:
            keys = np.ceil(np.log(high) / _LOG_GAMMA).astype(np.int64)
            first = int(keys.min())
            self._add(first, np.bincount(keys - first))

    def _add(self, first: int, counts: np.ndarray) -> None:
        """Add ``counts`` to buckets ``first, first + 1, ...``."""
        if not self._counts.size:
            self._offset = first
        start, size = first - self._offset, self._counts.size
        if start < 0 or start + counts.size > size:
            low = min(first, self._offset)
            grown = np.zeros(max(first + counts.size, self._offset + size)
                             - low, dtype=np.int64)
            grown[self._offset - low:self._offset - low + size] = \
                self._counts
            self._counts, self._offset, start = grown, low, first - low
        self._counts[start:start + counts.size] += counts

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Percentile ``p`` in [0, 100] (0.0 when empty): the bucket at
        rank ``floor(p / 100 * (count - 1))`` read at ``2 GAMMA**k /
        (GAMMA + 1)`` (the low bucket at 0), clamped to [min, max]."""
        if self._count == 0:
            return 0.0
        if p <= 0.0:
            return self._min
        if p >= 100.0:
            return self._max
        rank = math.floor(p / 100.0 * (self._count - 1)) - self._low
        value = 0.0
        if rank >= 0:
            index = int(np.searchsorted(np.cumsum(self._counts), rank,
                                        side="right"))
            value = 2.0 * GAMMA ** (self._offset + index) / (GAMMA + 1.0)
        return float(min(max(value, self._min), self._max))

    def count_over(self, threshold: float) -> float:
        """Observations strictly above ``threshold`` (0.0 when empty):
        the buckets above the threshold's, plus the share of its own
        bucket's span (clamped to [min, max]) above it -- off by at
        most that bucket's count, and smooth in the threshold."""
        threshold = float(threshold)
        if self._count == 0 or threshold >= self._max:
            return 0.0
        if threshold < self._min:
            return float(self._count)
        counts = self._counts
        if threshold <= BUCKET_MIN:
            above, inside = float(counts.sum()), self._low
            low, high = self._min, BUCKET_MIN
        else:
            key = math.ceil(np.log(threshold) / _LOG_GAMMA)
            index = key - self._offset
            above = float(counts[max(index + 1, 0):].sum())
            inside = int(counts[index]) if 0 <= index < counts.size else 0
            low, high = GAMMA ** (key - 1), GAMMA ** key
        low, high = max(low, self._min), min(high, self._max)
        if inside and high > low:
            share = (high - threshold) / (high - low)
            above += inside * min(max(share, 0.0), 1.0)
        return float(min(above, self._count))

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "metric": self.name, "type": "histogram",
            "count": self.count, "sum": self.total, "mean": self.mean,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        for p in EXPORT_PERCENTILES:
            out[f"p{p:g}"] = self.percentile(p)
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (never mutating it):
        counts add, so any split of a stream merged in any order leaves
        the whole stream's state (``sum`` up to addition order)."""
        if other._count == 0:
            return self
        if other._counts.size:
            self._add(other._offset, other._counts)
        self._low += other._low
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
        out.update(low=self._low, offset=self._offset,
                   counts=self._counts.tolist())
        return out

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "Histogram":
        """The histogram a :meth:`state` record describes; a pre-sketch
        state (``samples`` / ``buckets``), counts that are negative, not
        integers or not adding up to ``count``, or a non-finite ``sum`` /
        ``min`` / ``max`` raise ``ValueError`` naming the histogram."""
        histogram = cls(str(state["name"]), state.get("labels"))
        counts, low, count, offset, total = (state.get(key) for key in (
            "counts", "low", "count", "offset", "sum"))
        bounds = (state.get("min"), state.get("max")) if count else ()
        old = [key for key in ("samples", "buckets") if key in state]
        if old:
            problem = (f"pre-sketch state (a {old[0]!r} record of an "
                       "older version; re-export it)")
        elif not (isinstance(counts, list) and type(count) is int
                  and type(offset) is int and all(
                      type(n) is int and 0 <= n < 2 ** 63
                      for n in counts + [low])):
            problem = "counts, low and count must be non-negative integers"
        elif low + sum(counts) != count:
            problem = f"low + bucket counts {low + sum(counts)} != {count}"
        elif not all(type(v) in (int, float) and math.isfinite(v)
                     for v in (total, *bounds)):
            problem = "sum, min and max must be finite"
        else:
            histogram._count, histogram._low = count, low
            histogram._sum = float(total)
            if count:
                histogram._min, histogram._max = map(float, bounds)
            histogram._offset = offset
            histogram._counts = np.array(counts, dtype=np.int64)
            return histogram
        raise ValueError(f"histogram {histogram.key!r}: {problem}")


def _running_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` added left to right --
    the float a loop of ``+=`` leaves (``np.sum`` adds pairwise and
    rounds differently)."""
    if not values.size:
        return start
    return float(np.add.accumulate(
        np.concatenate(((start,), values)))[-1])


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
    return [row for _, row in read_jsonl_numbered(path)]


def read_jsonl_numbered(path: str) -> List[Tuple[int, Dict]]:
    """:func:`read_jsonl`'s rows with their 1-based line numbers, for
    readers that refuse a row by ``path:lineno``.  Lines are decoded
    one by one, so a byte that is not UTF-8 (a flipped bit) is a row
    that does not decode like any other."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    rows: List[Tuple[int, Dict]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            if lineno == len(lines):
                break
            raise ValueError(f"{path}:{lineno}: undecodable JSONL "
                             f"row ({exc})") from None
        if not isinstance(row, dict):
            raise ValueError(f"{path}:{lineno}: JSONL row is not an "
                             "object")
        rows.append((lineno, row))
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
