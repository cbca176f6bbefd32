"""Content-keyed result cache shared by every experiment entry point.

A cache key is the SHA-256 of the canonical JSON of everything that can
change a result: the full :class:`~repro.config.ExperimentConfig`
object graph, the method/variant labels, the seed, the schedule
parameters, and the code version (git commit when available).  Re-running
a figure therefore only recomputes units whose inputs actually changed;
edits to the source invalidate every entry at once.

Two storage layers back each key:

* an in-process dict holding live result objects (so repeated calls in
  one process return the *same* object -- the contract the old
  ``_BASELINE_CACHE`` in ``experiments/harness.py`` provided), and
* an optional on-disk JSON store (see :mod:`repro.runtime.serialization`)
  that survives processes and is shared by parallel workers.

The process-wide shared instance is obtained with :func:`shared_cache`;
its disk directory comes from ``REPRO_CACHE_DIR`` or
:func:`configure_shared_cache` (the CLI and worker initialisers call the
latter).  Without a directory the shared cache is memory-only, keeping
tests hermetic.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from typing import Any, Dict, Optional

from repro.runtime.serialization import from_jsonable, to_jsonable

#: Sentinel distinguishing "no cache entry" from a stored ``None``.
MISSING = object()

_code_version: Optional[str] = None


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args], capture_output=True, text=True,
        timeout=10, check=True).stdout


def code_version() -> str:
    """Version string mixed into every cache key.

    Resolution order: the ``REPRO_CODE_VERSION`` environment variable
    (escape hatch for containers without git), the short git commit of
    the source tree, then the package ``__version__``.  A dirty
    worktree appends ``-dirty.<hash>`` over ``git status`` plus the
    tracked diff, so uncommitted edits and added/removed files
    invalidate cached results too.  Limitations: the *contents* of
    untracked files are not hashed (only their status lines), and a
    cache directory inside the worktree must be gitignored (the
    default ``.repro_cache`` is) or its files would churn the hash on
    every run.  The version is computed once per process;
    ``REPRO_CODE_VERSION`` overrides all of this.
    """
    global _code_version
    if _code_version is None:
        version = os.environ.get("REPRO_CODE_VERSION")
        if not version:
            root = os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))
            try:
                # Guard against resolving an *enclosing* repo (e.g. a
                # pip install inside someone's gitignored venv): only
                # trust git if it governs this very file -- tracked,
                # or at least visible as untracked (not ignored).
                me = os.path.abspath(__file__)
                try:
                    _git(root, "ls-files", "--error-unmatch", me)
                except subprocess.CalledProcessError:
                    if not _git(root, "status", "--porcelain",
                                "--", me).strip():
                        raise
                version = _git(root, "rev-parse", "--short",
                               "HEAD").strip()
                pending = _git(root, "status", "--porcelain")
                if pending:
                    digest = hashlib.sha256(
                        (pending + _git(root, "diff", "HEAD"))
                        .encode("utf-8")).hexdigest()
                    version += f"-dirty.{digest[:10]}"
            except (OSError, subprocess.SubprocessError):
                version = ""
        if not version:
            from repro import __version__
            version = __version__
        _code_version = version
    return _code_version


def pin_code_version(version: str) -> None:
    """Force :func:`code_version` to return ``version``.

    Worker processes are pinned to the parent's computed version (see
    the runner's initializer): a worker re-deriving it from git could
    disagree with the parent -- e.g. once cache files appear in the
    worktree -- and silently split the key space.
    """
    global _code_version
    _code_version = version


def content_key(payload: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(to_jsonable(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-layer (memory + optional disk) content-addressed store."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._memory: Dict[str, Any] = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def fetch(self, key: str) -> Any:
        """Return the cached value for ``key`` or :data:`MISSING`."""
        if key in self._memory:
            return self._memory[key]
        if self.directory:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        value = from_jsonable(json.load(fh))
                except (OSError, ValueError, KeyError, TypeError):
                    # torn JSON, a malformed array record (ValueError)
                    # or a tagged record missing / mistyping a field:
                    # the entry is corrupt or partial, so recompute
                    return MISSING
                self._memory[key] = value
                return value
        return MISSING

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in memory and (if configured) on disk.

        Disk failures degrade to memory-only -- by the time put() runs
        the value has already been computed, so a full disk or a
        vanished cache dir must never abort the run (fetch() degrades
        the same way).
        """
        self._memory[key] = value
        if self.directory:
            path = self._path(key)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(to_jsonable(value), fh)
                os.replace(tmp, path)  # atomic: concurrent-writer safe
            except (TypeError, OSError):
                # TypeError: not losslessly serialisable; OSError: the
                # disk let us down.  Either way keep it memory-only.
                try:
                    os.remove(tmp)
                except OSError:
                    pass

    def __contains__(self, key: str) -> bool:
        return self.fetch(key) is not MISSING

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.directory:
            keys.update(name[:-5] for name in os.listdir(self.directory)
                        if name.endswith(".json"))
        return len(keys)

    def clear(self) -> None:
        """Drop every entry in both layers."""
        self._memory.clear()
        if self.directory:
            for name in os.listdir(self.directory):
                if name.endswith(".json"):
                    os.remove(os.path.join(self.directory, name))

    def disk_usage(self) -> int:
        """Total bytes of the on-disk entries (0 when memory-only)."""
        if not self.directory:
            return 0
        total = 0
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                try:
                    total += os.path.getsize(
                        os.path.join(self.directory, name))
                except OSError:
                    continue  # entry vanished mid-scan
        return total

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-*stored* disk entries until the store
        fits in ``max_bytes`` (ops hygiene: ``python -m repro cache
        prune --max-size``).

        Eviction order is file mtime (the store never rewrites an
        entry, so mtime is store order).  Pruned keys are dropped from
        the memory layer too, so a later ``fetch`` misses instead of
        resurrecting the evicted value.  Returns eviction stats.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        stats = {"removed": 0, "kept": 0, "bytes_before": 0,
                 "bytes_after": 0}
        if not self.directory:
            return stats
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path,
                            name[:-5]))
        entries.sort()
        total = sum(size for _, size, _, _ in entries)
        stats["bytes_before"] = total
        for _, size, path, key in entries:
            if total <= max_bytes:
                stats["kept"] += 1
                continue
            try:
                os.remove(path)
            except OSError:
                stats["kept"] += 1
                continue
            self._memory.pop(key, None)
            total -= size
            stats["removed"] += 1
        stats["bytes_after"] = total
        return stats


_shared: Optional[ResultCache] = None


def shared_cache() -> ResultCache:
    """The process-wide cache (created on first use)."""
    global _shared
    if _shared is None:
        _shared = ResultCache(os.environ.get("REPRO_CACHE_DIR") or None)
    return _shared


def configure_shared_cache(directory: Optional[str]) -> ResultCache:
    """(Re)build the shared cache with an explicit disk directory."""
    global _shared
    _shared = ResultCache(directory)
    return _shared
