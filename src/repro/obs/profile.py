"""Opt-in per-kernel profiling hooks: wall-clock and allocation laps.

The engine's numeric kernels (:func:`repro.engine.kernels
.evaluate_rows`) are instrumented with *laps*: at each kernel-stage
boundary the active profiler records the time (and optionally the net
traced allocation) since the previous boundary.  When no profiler is
active -- the default -- the hook is one module-global read per
``evaluate_rows`` call, so the hot path stays hot.

Sampling: a :class:`KernelProfiler` with ``sample_interval=N`` laps
every N-th ``evaluate_rows`` call and scales totals back up in the
report, so profiling a long campaign costs a fraction of full
instrumentation.  Allocation tracking (``alloc=True``) uses
``tracemalloc`` and is markedly slower; it is for directed
memory-hunting sessions, not steady-state runs.  The kernels build
fresh arrays (no buffer pool serves them), so an allocation lap is
the stage's real allocation traffic: the traced bytes its arrays
still hold at the stage boundary, minus what it freed (a temporary
dropped inside the stage cancels out).

Usage::

    profiler = KernelProfiler(sample_interval=4)
    with profiler:                     # activate() / deactivate()
        run_episode(...)
    print(format_profile(profiler.report()))

``python -m repro obs profile`` wraps this around one scenario
episode and prints the per-kernel cost breakdown that directs the
ROADMAP's kernel-optimisation pass.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, List, Optional


class _Lap:
    """One sampled ``evaluate_rows`` call's stage stopwatch."""

    __slots__ = ("_profiler", "_last", "_last_alloc")

    def __init__(self, profiler: "KernelProfiler") -> None:
        self._profiler = profiler
        self._last_alloc = (tracemalloc.get_traced_memory()[0]
                            if profiler.alloc else 0)
        self._last = profiler._clock()

    def lap(self, kernel: str) -> None:
        """Close the stage that just ran under ``kernel``'s name."""
        profiler = self._profiler
        now = profiler._clock()
        alloc = 0
        if profiler.alloc:
            current = tracemalloc.get_traced_memory()[0]
            alloc = current - self._last_alloc
            self._last_alloc = current
        stats = profiler._stats.get(kernel)
        if stats is None:
            stats = profiler._stats[kernel] = [0, 0.0, 0]
        stats[0] += 1
        stats[1] += now - self._last
        stats[2] += alloc
        self._last = now


class KernelProfiler:
    """Sampling per-kernel cost recorder (see module docstring)."""

    def __init__(self, sample_interval: int = 1, alloc: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.sample_interval = sample_interval
        self.alloc = alloc
        self._clock = clock
        self._calls = 0
        # kernel -> [laps, seconds, alloc_bytes]
        self._stats: Dict[str, List[float]] = {}

    # ---- hook side (called from the kernels) -------------------------

    def begin(self) -> Optional[_Lap]:
        """Start timing one kernel call, or ``None`` if this call
        falls between samples."""
        self._calls += 1
        if (self._calls - 1) % self.sample_interval:
            return None
        return _Lap(self)

    # ---- lifecycle ---------------------------------------------------

    def __enter__(self) -> "KernelProfiler":
        activate(self)
        return self

    def __exit__(self, *exc) -> bool:
        deactivate()
        return False

    # ---- reading -----------------------------------------------------

    @property
    def calls(self) -> int:
        return self._calls

    def report(self) -> List[Dict[str, object]]:
        """Per-kernel rows, costliest first.  ``est_total_ms`` scales
        the sampled time by the sampling interval (the estimate of the
        kernel's full cost); ``share`` is its fraction of the summed
        estimates."""
        total = sum(stats[1] for stats in self._stats.values())
        rows = []
        for kernel, stats in sorted(self._stats.items(),
                                    key=lambda kv: -kv[1][1]):
            row: Dict[str, object] = {
                "kernel": kernel,
                "laps": int(stats[0]),
                "sampled_ms": stats[1] * 1e3,
                "est_total_ms": stats[1] * 1e3 * self.sample_interval,
                "share": (stats[1] / total) if total else 0.0,
            }
            if self.alloc:
                row["alloc_bytes"] = int(stats[2])
            rows.append(row)
        return rows


# ---- module-level switchboard ---------------------------------------

_ACTIVE: Optional[KernelProfiler] = None


def activate(profiler: KernelProfiler) -> KernelProfiler:
    """Install ``profiler`` as the process-wide kernel profiler."""
    global _ACTIVE
    if profiler.alloc and not tracemalloc.is_tracing():
        tracemalloc.start()
    _ACTIVE = profiler
    return profiler


def deactivate() -> None:
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.alloc \
            and tracemalloc.is_tracing():
        tracemalloc.stop()
    _ACTIVE = None


def active() -> Optional[KernelProfiler]:
    return _ACTIVE


def begin() -> Optional[_Lap]:
    """The kernel-side hook: ``None`` (one global read) when profiling
    is off or this call is unsampled, else a started :class:`_Lap`."""
    profiler = _ACTIVE
    if profiler is None:
        return None
    return profiler.begin()


def format_profile(rows: List[Dict[str, object]]) -> str:
    """Text table for :meth:`KernelProfiler.report` rows."""
    if not rows:
        return "(no kernel laps recorded)"
    has_alloc = "alloc_bytes" in rows[0]
    header = (f"{'kernel':<12}  {'laps':>7}  {'sampled ms':>11}  "
              f"{'est total ms':>13}  {'share':>6}")
    if has_alloc:
        header += f"  {'alloc kB':>10}"
    lines = [header]
    for row in rows:
        line = (f"{row['kernel']:<12}  {row['laps']:>7}  "
                f"{row['sampled_ms']:>11.2f}  "
                f"{row['est_total_ms']:>13.2f}  "
                f"{row['share']:>6.1%}")
        if has_alloc:
            line += f"  {row['alloc_bytes'] / 1024.0:>10.1f}"
        lines.append(line)
    return "\n".join(lines)
