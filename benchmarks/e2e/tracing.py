"""Measurement primitives of the e2e benchmark.

Three things live here, all independent of the program under test:

* :class:`Tracer` -- in-memory spans ``{name, start, end, parent,
  repeat, tag}`` recorded *around* calls into the program's public
  functions (nothing under ``src/`` is instrumented) and dumped when
  the benchmark ends;
* :class:`SpeedMeter` -- fixed micro-probes run on a 5 ms timer
  inside every measured region.  The sandbox this benchmark was sized
  on changes core speed by up to 3x, for anything between a tenth of
  a second and a minute at a time (a pure-Python loop shows the same
  swing in *CPU* time and ``/proc/stat`` shows no steal, so it is the
  core that slows, not the scheduler that preempts); raw wall times
  of ten runs spread by 30-40 % of their median there, wider than any
  bound a regression gate could use.  Every end-to-end *time* is
  therefore reported at reference core speed: wall seconds times the
  mean of the speed samples taken while they passed.  Raw wall and
  CPU seconds are kept beside it in the result file, and per-layer
  numbers are raw seconds throughout;
* small statistics helpers (median / quartiles / percentiles, peak
  RSS).
"""

from __future__ import annotations

import bisect
import os
import resource
import signal
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------

#: Span columns, in the order rows are dumped.
SPAN_COLUMNS = ("name", "start_us", "end_us", "parent", "repeat", "tag")


class _Span:
    """Context manager closing one span (see :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer.end(self._index)
        return False


class Tracer:
    """Span recorder: append-only lists, one row per layer call.

    ``begin``/``end`` are the hot-loop form (two list appends and one
    clock read each); ``span`` wraps them in a context manager.  The
    parent of a new span is whatever span is open when it begins, so
    self time (duration minus covered children) is recoverable.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.repeat = 0
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._repeats: List[int] = []
        self._tags: List[str] = []
        self._stack: List[int] = []

    def begin(self, name: str, tag: str = "") -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._repeats.append(self.repeat)
        self._tags.append(tag)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> float:
        now = time.perf_counter()
        self._ends[index] = now
        self._stack.pop()
        return now - self._starts[index]

    def span(self, name: str, tag: str = "") -> _Span:
        return _Span(self, self.begin(name, tag))

    def __len__(self) -> int:
        return len(self._names)

    # ---- reading -----------------------------------------------------

    def durations(self, name: str, repeat: Optional[int] = None,
                  tag: Optional[str] = None) -> List[float]:
        """Durations (s) of every closed span called ``name``."""
        return [self._ends[i] - self._starts[i]
                for i, n in enumerate(self._names)
                if n == name
                and (repeat is None or self._repeats[i] == repeat)
                and (tag is None or self._tags[i] == tag)]

    def self_seconds(self, repeat: int) -> Dict[str, float]:
        """Span name -> summed *self* time in one repeat: each span's
        duration minus the part its direct children cover."""
        covered: Dict[int, float] = {}
        for i, parent in enumerate(self._parents):
            if parent >= 0 and self._repeats[i] == repeat:
                covered[parent] = covered.get(parent, 0.0) \
                    + self._ends[i] - self._starts[i]
        totals: Dict[str, float] = {}
        for i, name in enumerate(self._names):
            if self._repeats[i] != repeat:
                continue
            own = self._ends[i] - self._starts[i] - covered.get(i, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def counts(self, repeat: int) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for i, name in enumerate(self._names):
            if self._repeats[i] == repeat:
                totals[name] = totals.get(name, 0) + 1
        return totals

    def dump(self, repeat: Optional[int] = None) -> Dict[str, object]:
        """Columnar JSON form of the span list (times in integer
        microseconds from the first span's start)."""
        names = sorted(set(self._names))
        index = {name: i for i, name in enumerate(names)}
        origin = self._starts[0] if self._starts else 0.0
        rows = [
            [index[self._names[i]],
             int(round((self._starts[i] - origin) * 1e6)),
             int(round((self._ends[i] - origin) * 1e6)),
             self._parents[i], self._repeats[i], self._tags[i]]
            for i in range(len(self._names))
            if repeat is None or self._repeats[i] == repeat]
        return {"workload": self.workload, "names": names,
                "columns": list(SPAN_COLUMNS), "rows": rows}


# ---------------------------------------------------------------------
# core-speed meter
# ---------------------------------------------------------------------

_VALUES = np.linspace(0.0, 1.0, 64)
_ROWS = np.random.default_rng(2).random((32, 64))
_WEIGHTS = np.random.default_rng(1).random((64, 64))


def _probe_ufuncs() -> None:
    """Bytecode dispatch around small-array ufunc calls."""
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(75):
        scaled = _VALUES * 1.0001 + 0.5
        np.maximum(scaled, 0.3, out=scaled)
        total += float(scaled[3])
        table[i & 15] = total


def _probe_matmul() -> None:
    """A hidden layer's worth of matmul + tanh, as the networks do."""
    for _ in range(15):
        np.tanh(_ROWS @ _WEIGHTS)


class SpeedMeter:
    """Reads the core's current speed every :data:`TICK_S` seconds,
    *inside* whatever region is running.

    An interval timer interrupts the main thread; the handler runs one
    of two fixed micro-probes in turn (bytecode dispatch around small
    ufunc calls; matmul + tanh -- what the program spends its time
    on.  A third, pure-bytecode probe made the correction worse: it
    slows less than the program does when the core is slowest) and
    stores ``reference CPU seconds / CPU seconds taken``.  Thread CPU
    time, not wall, so a probe that gets preempted still reads the
    core and not the scheduler.  A region's speed is the mean of the
    samples that fell into it, so its duration at reference speed is
    the integral of speed over its wall time: the work it did.

    ``REF_S`` is what each probe takes on an undisturbed core of the
    box the committed baseline was recorded on; it fixes the scale of
    the reported numbers, never their ratio between two commits.
    """

    TICK_S = 0.005
    PROBES = (_probe_ufuncs, _probe_matmul)
    REF_S = (0.000152, 0.000158)

    def __init__(self) -> None:
        self._at: List[float] = []
        self._speeds: List[float] = []
        self._costs: List[float] = []

    def __enter__(self) -> "SpeedMeter":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        kind = len(self._at) % len(self.PROBES)
        cpu = time.thread_time()
        self.PROBES[kind]()
        cpu = time.thread_time() - cpu
        self._at.append(entered)
        self._speeds.append(self.REF_S[kind] / cpu)
        self._costs.append(time.perf_counter() - entered)

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """(mean speed, wall seconds the probes themselves took) of
        the samples taken in ``[start, end)``; a window shorter than a
        tick borrows the nearest sample."""
        lo = bisect.bisect_left(self._at, start)
        hi = bisect.bisect_left(self._at, end)
        if lo == hi:
            if not self._at:
                raise RuntimeError("the speed meter is not running")
            nearest = min(lo, len(self._at) - 1)
            return self._speeds[nearest], 0.0
        return (statistics.fmean(self._speeds[lo:hi]),
                sum(self._costs[lo:hi]))

    def median_speed(self) -> float:
        return statistics.median(self._speeds)


class Stopwatch:
    """Times one region: raw wall and CPU seconds, and seconds at
    reference speed."""

    def __init__(self, meter: SpeedMeter) -> None:
        self._meter = meter
        #: Wall seconds of the region, as the clock read them.
        self.wall_s = 0.0
        #: CPU seconds (user + system) of this process and of the
        #: children it reaped while the region ran.
        self.cpu_s = 0.0
        #: Mean core speed while it ran (1.0 = the reference core).
        self.speed = 1.0
        #: The region's duration at reference speed, the meter's own
        #: probes taken out.
        self.ref_s = 0.0
        #: ``ref_s / wall_s``: what turns a wall time taken somewhere
        #: inside the region into reference seconds (probes fall
        #: evenly over the region, so every part carries their share).
        self.scale = 1.0

    def __enter__(self) -> "Stopwatch":
        self._cpu = _cpu_seconds()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        self.cpu_s = _cpu_seconds() - self._cpu
        self.speed, probes_s = self._meter.window(self.started, end)
        self.wall_s = end - self.started
        self.ref_s = (self.wall_s - probes_s) * self.speed
        self.scale = self.ref_s / self.wall_s
        return False


def _cpu_seconds() -> float:
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them;
    a single sample is its own three quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summary(values: Sequence[float]) -> Dict[str, object]:
    """The per-metric record of the result file."""
    q1, median, q3 = quartiles(values)
    return {"samples": list(values), "median": median, "q1": q1,
            "q3": q3, "n": len(values)}


def percentile(values: Iterable[float], p: float) -> float:
    data = np.fromiter(values, dtype=float)
    return float(np.percentile(data, p)) if data.size else 0.0


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child,
    in MB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
