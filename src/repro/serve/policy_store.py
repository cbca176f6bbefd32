"""Versioned on-disk policy snapshots for the decision service.

A :class:`PolicySnapshot` captures everything the online slicing
service needs to make decisions without retraining: per-slice policy
weights (exported through the ``state_dict`` round-trip helpers on
:class:`~repro.nn.network.MLP`-based models), the resolved
:class:`~repro.config.ExperimentConfig`, the scenario the policy was
trained on, and the code version of the training run.  Snapshots are
stored as tagged JSON (:mod:`repro.runtime.serialization` -- no
pickle, no code execution on load) under ``<name>@<version>.json``;
saving the same name again bumps the version, so a store directory is
an append-only history of deployments.

Format 2 stores every weight array as one binary record (dtype, shape
and the base64 of its little-endian bytes): exact, about half the size
of a JSON float list, and cheap to hash, so the content digest that
:meth:`PolicyStore.load` re-verifies costs milliseconds.  There is no
reader for format 1 (float lists); such a file is refused with a
:class:`ValueError` naming it, and must be re-saved.  Every other
unreadable snapshot -- truncated JSON, a malformed array record, a
missing field, a digest that does not match -- is a
:class:`ValueError` naming the snapshot ref and its path.

All four comparison methods snapshot:

* ``onslicing`` -- per-slice actor/critic/Gaussian head, the pi_phi
  cost estimator (weights + target scaling), the Lagrangian
  multiplier, and the rule-based fallback policy pi_b;
* ``onrl``      -- per-slice actor/critic/Gaussian head;
* ``baseline``  -- the grid-searched :class:`RuleBasedPolicy` tables;
* ``model_based`` -- config only (policies are rebuilt analytically).

The store holds the decision surface, not training state: optimiser
moments, rollout buffers, the action modifier and the cost surrogate
are not saved.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Dict, List, Optional

from repro.config import ExperimentConfig
from repro.runtime.cache import code_version, content_key
from repro.runtime.serialization import from_jsonable, to_jsonable

FORMAT = 2

#: Methods the store knows how to snapshot and serve.
SNAPSHOT_METHODS = ("onslicing", "onrl", "baseline", "model_based")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_FILE_RE = re.compile(r"^(?P<name>[A-Za-z0-9][A-Za-z0-9._-]*)"
                      r"@(?P<version>\d{4})\.json$")


@dataclass(frozen=True)
class PolicySnapshot:
    """One immutable, serialisable policy deployment."""

    name: str
    method: str
    scenario: str
    seed: int
    config: ExperimentConfig
    #: Per-slice payload, keyed by the training slice name.  Contents
    #: are method-specific (see module docstring) but always include
    #: the slice's ``app`` so a snapshot can serve foreign populations.
    policies: Dict[str, Dict[str, Any]]
    code_version: str = ""
    version: int = 0
    created_unix: float = 0.0

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid snapshot name {self.name!r}")
        if self.method not in SNAPSHOT_METHODS:
            raise ValueError(f"unknown snapshot method {self.method!r}; "
                             f"expected one of {SNAPSHOT_METHODS}")

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"

    @cached_property
    def digest(self) -> str:
        """Content hash of everything that changes decisions.

        Computed on first access and kept on this instance: a snapshot
        is immutable by contract (derive variants with
        :func:`dataclasses.replace`, which starts a fresh object with
        no memo), so re-serialising every weight per read buys nothing.
        """
        return content_key({"method": self.method,
                            "config": self.config,
                            "policies": self.policies})


@dataclass(frozen=True)
class SnapshotInfo:
    """One store listing row (no weights loaded)."""

    name: str
    version: int
    method: str
    scenario: str
    created_unix: float
    digest: str
    path: str

    @property
    def ref(self) -> str:
        return f"{self.name}@{self.version}"


class PolicyStore:
    """Append-only directory of versioned policy snapshots."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str, version: int) -> str:
        return os.path.join(self.directory, f"{name}@{version:04d}.json")

    def _meta_path(self, name: str, version: int) -> str:
        return os.path.join(self.directory,
                            f"{name}@{version:04d}.meta.json")

    def versions(self, name: str) -> List[int]:
        """Stored versions of ``name``, ascending (empty if none)."""
        found = []
        for filename in os.listdir(self.directory):
            match = _FILE_RE.match(filename)
            if match and match.group("name") == name:
                found.append(int(match.group("version")))
        return sorted(found)

    def save(self, snapshot: PolicySnapshot) -> PolicySnapshot:
        """Store ``snapshot`` under the next version of its name.

        Returns the snapshot actually written (version assigned,
        creation time and code version stamped).  Writes are atomic
        (tmp file + hard-link into place) so a concurrent reader never
        sees a partial snapshot, and version claims are *exclusive*:
        two concurrent savers of the same name get consecutive
        versions instead of silently overwriting each other.
        """
        stamped = replace(
            snapshot, created_unix=time.time(),
            code_version=snapshot.code_version or code_version())
        while True:
            versions = self.versions(stamped.name)
            version = (versions[-1] + 1) if versions else 1
            stamped = replace(stamped, version=version)
            payload = {
                "format": FORMAT,
                "name": stamped.name,
                "version": stamped.version,
                "method": stamped.method,
                "scenario": stamped.scenario,
                "seed": stamped.seed,
                "code_version": stamped.code_version,
                "created_unix": stamped.created_unix,
                "digest": stamped.digest,
                "config": to_jsonable(stamped.config),
                "policies": to_jsonable(stamped.policies),
            }
            path = self._path(stamped.name, version)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            try:
                os.link(tmp, path)  # atomic claim: fails if taken
            except FileExistsError:
                os.remove(tmp)
                continue  # lost the race: claim the next version
            except OSError:
                # filesystem without hard links: best-effort rename
                if os.path.exists(path):
                    os.remove(tmp)
                    continue
                os.replace(tmp, path)
            else:
                os.remove(tmp)
            break
        meta = {key: payload[key]
                for key in ("format", "name", "version", "method",
                            "scenario", "seed", "code_version",
                            "created_unix", "digest")}
        meta_tmp = f"{self._meta_path(stamped.name, version)}" \
                   f".tmp.{os.getpid()}"
        with open(meta_tmp, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        os.replace(meta_tmp, self._meta_path(stamped.name, version))
        return stamped

    def load(self, ref: str) -> PolicySnapshot:
        """Load ``"name"`` (latest version) or ``"name@N"`` (exact).

        The stored digest is re-verified against the decoded contents,
        so a corrupted or hand-edited snapshot fails loudly instead of
        serving wrong allocations.  Every way a file can fail to decode
        (invalid JSON, an old format, a malformed record, a missing
        field, a digest mismatch) raises :class:`ValueError` naming
        the ref and the path.
        """
        name, _, version_text = ref.partition("@")
        if version_text:
            if not version_text.isdigit():
                raise ValueError(
                    f"invalid snapshot ref {ref!r}: expected 'name' "
                    "or 'name@<version>' with an integer version")
            version = int(version_text)
        else:
            versions = self.versions(name)
            if not versions:
                raise KeyError(f"no snapshot named {name!r} in "
                               f"{self.directory}")
            version = versions[-1]
        path = self._path(name, version)
        if not os.path.exists(path):
            raise KeyError(f"no snapshot {name}@{version} in "
                           f"{self.directory}")
        where = f"snapshot {name}@{version} ({path})"
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except ValueError as exc:         # JSONDecodeError, bad UTF-8
            raise ValueError(f"{where} is not valid JSON: {exc}") \
                from exc
        found = payload.get("format") if isinstance(payload, dict) \
            else None
        if found != FORMAT:
            raise ValueError(
                f"{where} has format {found!r}; this store reads format "
                f"{FORMAT} only (binary weight records) -- re-save the "
                "snapshot with this version of repro")
        try:
            stored = payload["digest"]
            snapshot = PolicySnapshot(
                name=payload["name"], method=payload["method"],
                scenario=payload["scenario"], seed=payload["seed"],
                config=from_jsonable(payload["config"]),
                policies=from_jsonable(payload["policies"]),
                code_version=payload["code_version"],
                version=payload["version"],
                created_unix=payload["created_unix"])
        except KeyError as exc:
            raise ValueError(f"{where} is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} cannot be decoded: {exc}") \
                from exc
        if snapshot.digest != stored:
            raise ValueError(
                f"{where} is corrupt: stored digest {str(stored)[:12]} "
                f"!= recomputed {snapshot.digest[:12]}")
        return snapshot

    def list(self) -> List[SnapshotInfo]:
        """Every stored snapshot (metadata only), oldest first.

        Reads the small ``.meta.json`` sidecars written alongside each
        snapshot, so listing a store of many multi-megabyte snapshots
        never decodes weight arrays; a snapshot missing its sidecar
        (hand-copied into the store) falls back to the full file.
        """
        rows = []
        for filename in sorted(os.listdir(self.directory)):
            match = _FILE_RE.match(filename)
            if not match:
                continue
            path = os.path.join(self.directory, filename)
            meta_path = self._meta_path(match.group("name"),
                                        int(match.group("version")))
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        payload = json.load(fh)
                except (OSError, ValueError):
                    continue  # partial/corrupt file: skip the row
            rows.append(SnapshotInfo(
                name=payload["name"], version=payload["version"],
                method=payload["method"], scenario=payload["scenario"],
                created_unix=payload["created_unix"],
                digest=payload["digest"], path=path))
        rows.sort(key=lambda info: (info.created_unix, info.ref))
        return rows

    def latest(self, method: Optional[str] = None
               ) -> Optional[SnapshotInfo]:
        """The most recently saved snapshot (optionally of one method)."""
        rows = [info for info in self.list()
                if method is None or info.method == method]
        return rows[-1] if rows else None

    def __len__(self) -> int:
        return len(self.list())


# ---- snapshot builders ------------------------------------------------


def _slice_apps(cfg: ExperimentConfig) -> Dict[str, str]:
    return {spec.name: spec.app for spec in cfg.slices}


def snapshot_onslicing(name: str, bundle, scenario: str = "default",
                       seed: int = 42) -> PolicySnapshot:
    """Snapshot a trained :class:`~repro.experiments.harness
    .OnSlicingBundle`: per-slice pi_theta weights, the pi_phi estimator
    driving the safe fallback, the Lagrangian multiplier, and pi_b."""
    apps = _slice_apps(bundle.cfg)
    policies: Dict[str, Dict[str, Any]] = {}
    for slice_name, agent in bundle.agents.items():
        policies[slice_name] = {
            "app": apps[slice_name],
            "model": agent.model.state_dict(),
            "estimator": agent.estimator.network.state_dict(),
            "estimator_scale": list(agent.estimator.target_scale),
            "lagrangian": float(agent.lagrangian.value),
            "baseline": bundle.baselines[slice_name],
        }
    return PolicySnapshot(name=name, method="onslicing",
                          scenario=scenario, seed=seed,
                          config=bundle.cfg, policies=policies)


def snapshot_onrl(name: str, cfg: ExperimentConfig, agents,
                  scenario: str = "default",
                  seed: int = 17) -> PolicySnapshot:
    """Snapshot trained per-slice :class:`OnRLAgent` policies."""
    apps = _slice_apps(cfg)
    policies = {
        slice_name: {"app": apps[slice_name],
                     "model": agent.state_dict()}
        for slice_name, agent in agents.items()
    }
    return PolicySnapshot(name=name, method="onrl", scenario=scenario,
                          seed=seed, config=cfg, policies=policies)


def snapshot_baseline(name: str, cfg: ExperimentConfig, baselines,
                      scenario: str = "default",
                      seed: int = 42) -> PolicySnapshot:
    """Snapshot the grid-searched rule-based policy tables."""
    apps = _slice_apps(cfg)
    policies = {
        slice_name: {"app": apps[slice_name], "baseline": policy}
        for slice_name, policy in baselines.items()
    }
    return PolicySnapshot(name=name, method="baseline",
                          scenario=scenario, seed=seed, config=cfg,
                          policies=policies)


def snapshot_model_based(name: str, cfg: ExperimentConfig,
                         scenario: str = "default",
                         seed: int = 42) -> PolicySnapshot:
    """Snapshot the model-based method (config only -- the analytic
    policies are rebuilt from the slice specs at serve time)."""
    policies = {spec.name: {"app": spec.app} for spec in cfg.slices}
    return PolicySnapshot(name=name, method="model_based",
                          scenario=scenario, seed=seed, config=cfg,
                          policies=policies)
