"""Structured tracing: low-overhead spans, mergeable JSONL trace files.

The span API is one call::

    from repro.obs.trace import trace

    with trace("serve.decide", cell="cell-3", scenario="bursty"):
        ...

When tracing is disabled (the default) ``trace()`` returns a shared
null span and the cost is one global read plus a no-op context
manager -- cheap enough to leave in every hot path.  When a
:class:`Tracer` is installed (:func:`configure`, or
:func:`configure_from_env` in worker processes), every span is timed
and folded into an in-memory aggregation keyed by ``(path, attrs)``
where *path* is the ``/``-joined stack of active span names, so the
rollup is a flamegraph: ``fleet.shard/serve.decide/serve.forward``.

Trace files are self-describing JSONL -- a ``header`` row and the
aggregated ``stats`` rows written on flush (deltas: the aggregation
clears on flush, so appends from long runs remain correct), one row
per key however many spans it counts, so files stay small at full
instrumentation density.  Files from different processes merge by
concatenation; :func:`read_rollup` sums ``stats`` rows across any set
of files or directories (refusing a malformed one by ``path:lineno``),
and :func:`rollup_digest` hashes the *attributed* span profile (rows
carrying at least one non-volatile attribute, counts only) -- the
serving core reports one ``serve.decide`` row (and its
stage children) per slot per cell with ``cell``/``scenario`` attrs
(:meth:`Tracer.add`: it decides many cells per call, so it counts
them rather than opening a span each), however the cells are packed
into shards, so the digest is invariant to shard count, mirroring the
telemetry-merge guarantee.

Cross-process wiring: set ``REPRO_TRACE_DIR`` (the ``fleet run
--trace-dir`` flag does this) and every process that calls
:func:`configure_from_env` appends to its own
``trace-<label>-<pid>.jsonl`` in that directory; ``repro obs report
<dir>`` merges them.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import json
import math
import os
import time
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.obs.metrics import jsonl_files, read_jsonl_numbered

TRACE_FORMAT = 1
ENV_TRACE_DIR = "REPRO_TRACE_DIR"
#: Fields every ``stats`` row carries; all but ``path`` are numbers.
STATS_FIELDS = ("path", "count", "total_ms", "child_ms")
#: Attributes that legitimately differ between equivalent runs
#: (process ids, shard indices); excluded from the rollup digest.
VOLATILE_ATTRS = frozenset({"pid", "shard", "worker"})

AttrsKey = Tuple[Tuple[str, str], ...]
RollupKey = Tuple[str, AttrsKey]


class _NullSpan:
    """Returned by :func:`trace` when tracing is off; does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: times itself, reports to its tracer on exit."""

    __slots__ = ("_tracer", "name", "attrs", "path", "child_s", "_start")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.path = (stack[-1].path + "/" + self.name) if stack \
            else self.name
        self.child_s = 0.0
        stack.append(self)
        self._start = tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self._tracer
        duration = tracer.clock() - self._start
        stack = tracer._stack
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        tracer._record(self, duration)
        return False


def _attrs_key(attrs: Dict[str, Any]) -> AttrsKey:
    if not attrs:
        return ()
    return tuple(sorted((k, str(v)) for k, v in attrs.items()))


class Tracer:
    """Aggregating span recorder.

    ``path=None`` keeps everything in memory (the overhead-gate and
    unit-test mode); with a path, flushed aggregation deltas are
    appended as JSONL.  Single-threaded per process by design -- every
    repro worker is a process, not a thread.
    """

    def __init__(self, path: Optional[str] = None,
                 clock: Callable[[], float] = time.perf_counter,
                 label: str = "proc") -> None:
        self.path = path
        self.label = label
        self.clock = clock
        self._stack: List[_Span] = []
        # key -> [count, total_s, child_s]
        self._stats: Dict[RollupKey, List[float]] = {}
        self._header_written = False

    # ---- recording ---------------------------------------------------

    def span(self, name: str, attrs: Dict[str, Any]) -> _Span:
        return _Span(self, name, attrs)

    def _record(self, span: _Span, duration: float) -> None:
        key = (span.path, _attrs_key(span.attrs))
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += span.child_s

    def add(self, name: str, attrs: Dict[str, Any], count: int = 1,
            total_s: float = 0.0, child_s: float = 0.0) -> None:
        """Fold ``count`` spans called ``name`` into the aggregation
        without opening them -- what a row-wise caller that did many
        attributed units of work in one call reports per unit.

        The rollup counts are those of ``count`` ``trace(name,
        **attrs)`` blocks run under the innermost open span.
        ``total_s`` is the time the caller attributes to them
        (``child_s`` of it inside their own children).  A ``/`` in ``name`` places the rows deeper below
        the open span; their time is then already part of the
        shallower row's total, so only a ``/``-less add counts towards
        the open span's child time.
        """
        stack = self._stack
        path = (stack[-1].path + "/" + name) if stack else name
        if stack and "/" not in name:
            stack[-1].child_s += total_s
        key = (path, _attrs_key(attrs))
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = [0, 0.0, 0.0]
        stats[0] += count
        stats[1] += total_s
        stats[2] += child_s

    def lap(self, name: str, since: float) -> float:
        """:meth:`add` one ``name`` row timed from ``since`` (a
        :attr:`clock` reading) to now; returns now, so laps chain."""
        now = self.clock()
        self.add(name, {}, 1, now - since)
        return now

    # ---- reading / flushing ------------------------------------------

    def rollup(self) -> Dict[RollupKey, Dict[str, float]]:
        """The in-memory aggregation (unflushed spans only)."""
        return {key: {"count": stats[0], "total_ms": stats[1] * 1e3,
                      "child_ms": stats[2] * 1e3}
                for key, stats in self._stats.items()}

    def flush(self) -> None:
        """Append the aggregation *deltas* to the trace file (after
        its header, on the file's first write) and clear the
        aggregation, so repeated flushes from a long-lived process
        never double-count."""
        if self.path is None:
            return
        lines = []
        for (path, attrs), stats in sorted(self._stats.items()):
            row: Dict[str, Any] = {
                "kind": "stats", "path": path,
                "count": stats[0], "total_ms": stats[1] * 1e3,
                "child_ms": stats[2] * 1e3}
            if attrs:
                row["attrs"] = dict(attrs)
            lines.append(json.dumps(row) + "\n")
        self._stats.clear()
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if not self._header_written and fh.tell() == 0:
                fh.write(json.dumps(
                    {"kind": "header", "format": TRACE_FORMAT,
                     "label": self.label, "pid": os.getpid()}) + "\n")
            self._header_written = True
            fh.writelines(lines)


# ---- module-level switchboard ---------------------------------------

_TRACER: Optional[Tracer] = None


def trace(name: str, **attrs: Any):
    """Open a span (the one instrumentation entry point).

    Returns a context manager; a shared no-op one when tracing is
    disabled, so instrumented hot paths pay one global read.
    """
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, attrs)


def active() -> Optional[Tracer]:
    return _TRACER


def enabled() -> bool:
    return _TRACER is not None


def configure(path: Optional[str] = None,
              label: str = "proc") -> Tracer:
    """Install a tracer for this process (replacing any current one)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.flush()
    _TRACER = Tracer(path=path, label=label)
    return _TRACER


def disable() -> None:
    """Flush and uninstall the current tracer (no-op when off)."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.flush()
        _TRACER = None


def flush() -> None:
    if _TRACER is not None:
        _TRACER.flush()


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the block, then put back the tracer (or
    none) installed before it, unflushed."""
    global _TRACER
    previous, _TRACER = _TRACER, tracer
    try:
        yield tracer
    finally:
        _TRACER = previous


def configure_from_env(label: str = "proc") -> Optional[Tracer]:
    """Install a file-backed tracer if ``REPRO_TRACE_DIR`` is set.

    Idempotent: an already-installed tracer is kept.  Each process
    writes its own ``trace-<label>-<pid>.jsonl``, so concurrent fleet
    shards and pool workers never contend on one file; the reader
    merges.  A flush is registered via ``atexit`` so short-lived
    workers leave complete files behind.
    """
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    directory = os.environ.get(ENV_TRACE_DIR)
    if not directory:
        return None
    path = os.path.join(directory,
                        f"trace-{label}-{os.getpid()}.jsonl")
    tracer = configure(path=path, label=label)
    atexit.register(flush)
    return tracer


# ---- trace-file reading / rollup ------------------------------------

def read_rollup(paths: Sequence[str]) \
        -> Dict[RollupKey, Dict[str, float]]:
    """Merge the ``stats`` rows of any set of trace files/directories
    into one rollup (the mergeable cross-process read path).

    Rows follow the :func:`~repro.obs.metrics.read_jsonl` policy; rows
    of other kinds are skipped.  A ``stats`` row lacking one of
    :data:`STATS_FIELDS`, or holding anything but a finite number in
    a numeric one, raises ``ValueError`` naming ``path:lineno`` and
    the field.
    """
    rollup: Dict[RollupKey, Dict[str, float]] = {}
    for file_path in jsonl_files(paths):
        for lineno, row in read_jsonl_numbered(file_path):
            if row.get("kind") != "stats":
                continue
            for name in STATS_FIELDS:
                value = row.get(name)
                if value is None:
                    raise ValueError(f"{file_path}:{lineno}: stats row "
                                     f"lacks {name}")
                if name != "path" and not (
                        type(value) in (int, float)
                        and math.isfinite(value)):
                    raise ValueError(
                        f"{file_path}:{lineno}: stats row {name} "
                        f"{value!r} is not a finite number")
            attrs = row.get("attrs") or {}
            if not isinstance(attrs, dict):
                raise ValueError(f"{file_path}:{lineno}: stats row "
                                 f"attrs is not an object")
            key = (str(row["path"]),
                   tuple(sorted((str(k), str(v))
                                for k, v in attrs.items())))
            entry = rollup.setdefault(
                key, {"count": 0, "total_ms": 0.0, "child_ms": 0.0})
            entry["count"] += int(row["count"])
            entry["total_ms"] += float(row["total_ms"])
            entry["child_ms"] += float(row["child_ms"])
    return rollup


def rollup_digest(rollup: Dict[RollupKey, Dict[str, float]]) -> str:
    """SHA-256 over the *attributed* span profile.

    Only rows with at least one non-volatile attribute participate,
    and only their counts: per-cell serve rows count once per slot per
    cell regardless of how cells are packed into shards or how batch
    steps interleave, while unattributed engine/batch spans (whose
    counts legitimately depend on sharding) are excluded.  Two runs of
    the same fleet spec at different shard counts therefore digest
    identically.
    """
    sha = hashlib.sha256()
    for (path, attrs), entry in sorted(rollup.items()):
        kept = tuple((k, v) for k, v in attrs
                     if k not in VOLATILE_ATTRS)
        if not kept:
            continue
        sha.update(json.dumps(
            [path, kept, int(entry["count"])],
            sort_keys=True).encode("utf-8"))
    return sha.hexdigest()


def format_rollup(rollup: Dict[RollupKey, Dict[str, float]],
                  limit: Optional[int] = None) -> str:
    """Flamegraph-style text rollup: paths as an indented tree with
    count / total / self time, attribute splits folded per path."""
    by_path: Dict[str, Dict[str, float]] = {}
    for (path, _attrs), entry in rollup.items():
        agg = by_path.setdefault(
            path, {"count": 0, "total_ms": 0.0, "child_ms": 0.0})
        agg["count"] += entry["count"]
        agg["total_ms"] += entry["total_ms"]
        agg["child_ms"] += entry["child_ms"]
    if not by_path:
        return "(no spans)"
    rows = sorted(by_path.items())
    if limit is not None:
        rows = rows[:limit]
    name_width = max(
        len("  " * path.count("/") + path.rsplit("/", 1)[-1])
        for path, _ in rows)
    name_width = max(name_width, len("span"))
    lines = [f"{'span':<{name_width}}  {'count':>9}  "
             f"{'total ms':>12}  {'self ms':>12}"]
    for path, agg in rows:
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        self_ms = agg["total_ms"] - agg["child_ms"]
        lines.append(f"{label:<{name_width}}  {agg['count']:>9.0f}  "
                     f"{agg['total_ms']:>12.2f}  {self_ms:>12.2f}")
    return "\n".join(lines)


def rollup_rows(rollup: Dict[RollupKey, Dict[str, float]]) \
        -> List[Dict[str, Any]]:
    """JSON-friendly rollup rows (one per (path, attrs) key)."""
    rows = []
    for (path, attrs), entry in sorted(rollup.items()):
        rows.append({
            "path": path, "attrs": dict(attrs),
            "count": int(entry["count"]),
            "total_ms": entry["total_ms"],
            "self_ms": entry["total_ms"] - entry["child_ms"]})
    return rows
