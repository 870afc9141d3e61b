"""Content-addressed on-disk result cache for exploration sweeps.

A sweep is keyed by the SHA-256 of its canonical-JSON payload (scenario
definition + evaluation method + cache schema version), so re-running
the same scenario is a single file read and *any* change to the sweep —
one frequency, one transform parameter — moves to a fresh key.  Each
entry is one binary column file (:mod:`.colfile`): the scenario and
stats as a JSON header, the result columns as raw buffers.  Entries are
safe to delete.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .. import obs
from ..resilience import faults
from . import colfile

#: Bump whenever cached *results* could change — payload layout, model
#: equations, fallback thresholds — so old entries miss instead of
#: silently serving stale numbers.  The engine additionally folds the
#: package version and the kernel's fallback constants into the key.
#: v3: entries are binary column files (``.col``) instead of JSON.
CACHE_SCHEMA_VERSION = 3

#: File suffix of a cache entry.
ENTRY_SUFFIX = ".col"

#: Suffix of the JSON entries written before schema v3.  They are never
#: read, but :meth:`ResultCache.entries` still lists them so ``clear``,
#: ``prune`` and ``stats`` reclaim and count their space.
LEGACY_SUFFIX = ".json"

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_EXPLORE_CACHE"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_EXPLORE_CACHE`` or ``~/.cache/repro/explore``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "explore"


class ResultCache:
    """Column-file-per-entry cache keyed by content hash."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def quarantine_path_for(self, key: str) -> Path:
        """Where a quarantined entry for ``key`` is moved aside to."""
        return self.directory / f"{key}.quarantined"

    def quarantine(self, key: str) -> bool:
        """Move the entry for ``key`` aside so the next get recomputes.

        Used when an entry turns out corrupt — a torn file here, or a
        payload the engine could not parse back into a table.  The file
        is kept (renamed ``.quarantined``) for post-mortem rather than
        deleted; returns True when something was actually moved.
        """
        path = self.path_for(key)
        try:
            os.replace(path, self.quarantine_path_for(key))
        except OSError:
            return False
        obs.inc("cache.disk.quarantined")
        return True

    def get(self, key: str) -> dict | None:
        """The stored payload, or None on miss / quarantined entry.

        A present-but-unreadable entry (torn write, disk error) is
        quarantined — moved aside and recounted — instead of staying in
        place to poison the key forever.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                data = handle.read()
            if faults.active():
                data = faults.mangle("cache.read", data)
            payload = colfile.decode(data)
        except FileNotFoundError:
            obs.inc("cache.disk.misses")
            return None
        except (OSError, ValueError, faults.FaultError):
            self.quarantine(key)
            obs.inc("cache.disk.misses")
            return None
        obs.inc("cache.disk.hits")
        return payload

    def put(self, key: str, payload: dict) -> Path:
        """Atomically store ``payload`` under ``key``; returns the path.

        Write-to-temp-then-rename so a crashed run never leaves a
        half-written (and therefore poisoned) entry behind.
        """
        faults.check("cache.write")
        data = colfile.encode(payload)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        obs.inc("cache.disk.puts")
        return path

    def entries(self) -> list[Path]:
        """Paths of every stored entry (empty when the dir is absent)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for suffix in (ENTRY_SUFFIX, LEGACY_SUFFIX)
            for path in self.directory.glob(f"*{suffix}")
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and total size — `repro cache stats` / `/v1/cache/stats`."""
        total_bytes = 0
        entries = self.entries()
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        quarantined = (
            len(list(self.directory.glob("*.quarantined")))
            if self.directory.is_dir()
            else 0
        )
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "quarantined": quarantined,
        }

    def prune(self, max_entries: int) -> int:
        """Keep the ``max_entries`` newest entries; returns the number removed.

        Age is mtime (puts rewrite the file, so a refreshed entry counts
        as new).  Bounds an unbounded sweep cache without nuking it.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")

        def _mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:
                return 0.0

        entries = sorted(self.entries(), key=_mtime, reverse=True)
        removed = 0
        for path in entries[max_entries:]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
