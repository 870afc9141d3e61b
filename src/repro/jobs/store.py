"""Crash-safe persistent job state: one JSON file per job.

:class:`JobStore` is the durable half of the job subsystem.  Every
:class:`JobRecord` mutation rewrites the job's file atomically
(write-to-temp, ``os.replace``) — the same discipline as the result
cache — so a killed process never leaves a half-written record, and a
restarted one reloads every job exactly as last persisted.  A finished
job's result table is stored next to its record as one binary column
file (:mod:`repro.explore.colfile`), the result cache's format.  Terminal
states (``done`` / ``failed`` / ``cancelled``) therefore survive any
restart; non-terminal jobs are what :meth:`JobManager.recover
<repro.jobs.manager.JobManager.recover>` re-queues, which is safe
because finished shards live in the result cache and replay for free.

The store is also the change-notification hub: every save bumps a
version counter under a condition variable, so event streams and
``wait()`` callers block on real transitions instead of hot-polling.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .. import obs
from ..explore import colfile
from ..resilience import faults

__all__ = [
    "JOBS_DIR_ENV",
    "JobNotFound",
    "JobRecord",
    "JobStore",
    "STATES",
    "TERMINAL_STATES",
    "default_jobs_dir",
]

#: Environment override for the default job-store location.
JOBS_DIR_ENV = "REPRO_JOBS_DIR"

#: States a job can no longer leave; exactly these must survive restarts.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The full lifecycle: ``queued → running → done | failed | cancelled``.
STATES = ("queued", "running", *TERMINAL_STATES)

#: Events kept per job (state transitions + one per shard); older ones
#: are dropped oldest-first so a many-shard job cannot balloon its file.
MAX_EVENTS = 512


class JobNotFound(KeyError):
    """No job with the requested id exists in this store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"no job {self.job_id!r} in the job store"


def default_jobs_dir() -> Path:
    """``$REPRO_JOBS_DIR`` or ``~/.cache/repro/jobs``."""
    override = os.environ.get(JOBS_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "jobs"


def _new_job_id() -> str:
    return uuid.uuid4().hex[:16]


def _record_bytes(record: "JobRecord", scenario: str | None = None) -> bytes:
    """Exactly ``json.dumps(record.to_dict()).encode("utf-8")``, reusing
    ``scenario`` (the scenario's own ``json.dumps``) when given.  json.dumps
    runs the C encoder; json.dump, the pure-Python one, for the same bytes."""
    scenario = scenario or json.dumps(record.scenario)
    rest = record.to_dict()
    del rest["id"], rest["scenario"]
    head = f'{{"id": {json.dumps(record.id)}, "scenario": {scenario}, '
    return (head + json.dumps(rest)[1:]).encode("utf-8")


@dataclass
class JobRecord:
    """One job's full persisted state (the JSON file's in-memory twin)."""

    id: str
    scenario: dict[str, Any]
    solver: str = "auto"
    options: dict[str, Any] = field(default_factory=dict)
    shards: int | None = None
    state: str = "queued"
    created_at: float = 0.0
    updated_at: float = 0.0
    progress: dict[str, int] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    error: str = ""
    cache_key: str = ""
    stats: dict[str, Any] | None = None
    #: Total events ever appended; each event carries it as ``seq`` so
    #: streams stay gap-aware even after the event window is trimmed.
    event_seq: int = 0
    #: Distributed-trace linkage captured at submit time:
    #: ``{"trace_id": ..., "parent_id": ...}`` — the submitting
    #: request's trace and the span the job's tree parents under.
    trace: dict[str, Any] | None = None
    #: Client-minted dedup key: resubmitting with the same key returns
    #: this record instead of running the sweep twice.
    idempotency_key: str = ""
    #: End-to-end budget carried from the submitting request, if any.
    deadline_ms: int | None = None
    #: True when the job finished with some shards poisoned and the
    #: merged result covers only the shards that succeeded.
    partial: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def scenario_name(self) -> str:
        return str(self.scenario.get("name", ""))

    def to_dict(self) -> dict[str, Any]:
        """The complete record (the persisted file layout)."""
        return {
            "id": self.id,
            "scenario": self.scenario,
            "solver": self.solver,
            "options": self.options,
            "shards": self.shards,
            "state": self.state,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "progress": dict(self.progress),
            "events": list(self.events),
            "error": self.error,
            "cache_key": self.cache_key,
            "stats": self.stats,
            "event_seq": self.event_seq,
            "trace": self.trace,
            "idempotency_key": self.idempotency_key,
            "deadline_ms": self.deadline_ms,
            "partial": self.partial,
        }

    def to_payload(self) -> dict[str, Any]:
        """The API view: everything but the scenario body and event log."""
        return {
            "id": self.id,
            "scenario_name": self.scenario_name,
            "solver": self.solver,
            "options": dict(self.options),
            "shards": self.shards,
            "state": self.state,
            "created_at": round(self.created_at, 3),
            "updated_at": round(self.updated_at, 3),
            "progress": dict(self.progress),
            "n_events": len(self.events),
            "error": self.error,
            "cache_key": self.cache_key,
            "stats": self.stats,
            "trace_id": (self.trace or {}).get("trace_id", ""),
            "partial": self.partial,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRecord":
        if not isinstance(payload, Mapping):
            raise TypeError(f"job record must be a mapping, got {type(payload)}")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


class JobStore:
    """Thread-safe, disk-backed registry of :class:`JobRecord` entries.

    All mutation goes through the store (``create`` / ``update`` /
    ``transition`` / ``add_event``) under one lock; every mutation
    persists atomically before it is observable, so the in-memory view
    never runs ahead of the disk.  Unreadable files found on load are
    skipped, not fatal — one corrupt entry must not take down the
    service.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_jobs_dir()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._version = 0
        self._records: dict[str, JobRecord] = {}
        #: Each live job's encoded scenario, the bulk of its record and
        #: never changed after create; dropped at the terminal save.
        self._scenarios: dict[str, str] = {}
        self._load()

    # -- persistence ---------------------------------------------------------
    def path_for(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def result_path_for(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.result.col"

    @staticmethod
    def _backup_path_for(path: Path) -> Path:
        # ``<id>.json.bak`` — outside the ``*.json`` glob on purpose.
        return path.with_name(path.name + ".bak")

    def _read_record(self, path: Path) -> JobRecord | None:
        try:
            with path.open("r", encoding="utf-8") as handle:
                return JobRecord.from_dict(json.load(handle))
        except (OSError, json.JSONDecodeError, TypeError, KeyError):
            return None

    def _recover_from_backup(self, path: Path) -> JobRecord | None:
        """Torn record file: fall back to its last-good ``.bak`` twin.

        The torn file is moved aside (``.corrupt``) for post-mortem and
        the backup's state rewritten as current.  Losing the very last
        mutation is fine — a lost progress tick re-runs; a lost terminal
        write re-runs the job, which is idempotent through the result
        cache — whereas trusting half a JSON file is not.
        """
        record = self._read_record(self._backup_path_for(path))
        if record is None:
            return None
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass
        try:
            self._write(path, _record_bytes(record))
        except (OSError, faults.FaultError):
            pass
        return record

    def _load(self) -> None:
        if not self.directory.is_dir():
            return
        recovered = 0
        for path in sorted(self.directory.glob("*.json")):
            if path.name.endswith(".result.json"):
                # A JSON result file from before results became column
                # files: not a record, and no longer read.
                continue
            record = self._read_record(path)
            if record is None:
                record = self._recover_from_backup(path)
                if record is None:
                    continue
                recovered += 1
            self._records[record.id] = record
        # A crash between the backup rotation and the final rename
        # leaves only ``<id>.json.bak``: restore those too.
        for backup in sorted(self.directory.glob("*.json.bak")):
            main = backup.with_name(backup.name[: -len(".bak")])
            if main.exists():
                continue
            record = self._read_record(backup)
            if record is None or record.id in self._records:
                continue
            try:
                self._write(main, _record_bytes(record))
            except (OSError, faults.FaultError):
                pass
            self._records[record.id] = record
            recovered += 1
        if recovered:
            obs.inc("jobs.store.recovered", recovered)

    def _write(self, path: Path, data: bytes, backup: bool = False) -> None:
        faults.check("store.write")
        self.directory.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
            if backup and path.exists():
                # Keep the previous good state next to the new one, so
                # a record torn by a crash or disk fault recovers to its
                # last persisted state instead of vanishing.
                os.replace(path, self._backup_path_for(path))
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def _save_locked(self, record: JobRecord, advisory: bool = False) -> None:
        """Persist ``record``; ``advisory`` saves tolerate write failure.

        Progress ticks and event appends are advisory — the in-memory
        record stays authoritative and the next successful save persists
        the accumulated state — whereas creates and state transitions
        must reach disk or raise.
        """
        record.updated_at = time.time()
        scenario = self._scenarios.pop(record.id, None)
        scenario = scenario or json.dumps(record.scenario)
        if not record.terminal:
            self._scenarios[record.id] = scenario
        try:
            self._write(
                self.path_for(record.id),
                _record_bytes(record, scenario),
                backup=True,
            )
        except (OSError, faults.FaultError):
            if not advisory:
                raise
            obs.inc("jobs.store.write_errors")
        self._version += 1
        self._cond.notify_all()

    # -- lifecycle -----------------------------------------------------------
    def create(
        self,
        scenario: Mapping[str, Any],
        solver: str = "auto",
        options: Mapping[str, Any] | None = None,
        shards: int | None = None,
        progress: Mapping[str, int] | None = None,
        trace: Mapping[str, Any] | None = None,
        idempotency_key: str = "",
        deadline_ms: int | None = None,
    ) -> JobRecord:
        """Mint, persist and return a new ``queued`` job."""
        record = JobRecord(
            id=_new_job_id(),
            scenario=dict(scenario),
            solver=solver,
            options=dict(options or {}),
            shards=shards,
            state="queued",
            created_at=time.time(),
            progress=dict(progress or {}),
            trace=dict(trace) if trace else None,
            idempotency_key=idempotency_key,
            deadline_ms=deadline_ms,
        )
        with self._lock:
            self._records[record.id] = record
            self._append_event_locked(
                record, {"event": "state", "state": "queued"}
            )
            self._save_locked(record)
        return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._records[job_id]
            except KeyError:
                raise JobNotFound(job_id) from None

    def list(self) -> list[JobRecord]:
        """Every known job, newest first."""
        with self._lock:
            return sorted(
                self._records.values(),
                key=lambda record: (record.created_at, record.id),
                reverse=True,
            )

    def find_by_idempotency_key(self, key: str) -> JobRecord | None:
        """The newest job submitted with ``key``, or None.

        Linear over the in-memory records — job counts are bounded by
        prune policy, and dedup lookups happen once per submit.
        """
        if not key:
            return None
        with self._lock:
            matches = [
                record
                for record in self._records.values()
                if record.idempotency_key == key
            ]
        if not matches:
            return None
        return max(matches, key=lambda record: (record.created_at, record.id))

    def transition(
        self,
        job_id: str,
        state: str,
        error: str = "",
        stats: Mapping[str, Any] | None = None,
        cache_key: str | None = None,
        partial: bool | None = None,
        **event_fields: Any,
    ) -> JobRecord:
        """Move a job to ``state`` (persisting an event), and return it.

        Terminal states are sticky: transitioning an already-terminal
        job is a no-op returning the record unchanged, so racing
        finish/cancel paths cannot overwrite each other's outcome.
        """
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}; known: {STATES}")
        with self._lock:
            record = self.get(job_id)
            if record.terminal:
                return record
            record.state = state
            if error:
                record.error = error
            if stats is not None:
                record.stats = dict(stats)
            if cache_key is not None:
                record.cache_key = cache_key
            if partial is not None:
                record.partial = bool(partial)
            self._append_event_locked(
                record, {"event": "state", "state": state, **event_fields}
            )
            self._save_locked(record)
            return record

    def add_event(
        self,
        job_id: str,
        event: str,
        progress: Mapping[str, int] | None = None,
        **fields: Any,
    ) -> JobRecord:
        """Append a progress event (shard completions etc.) and persist,
        merging ``progress`` counters in the same save."""
        with self._lock:
            record = self.get(job_id)
            record.progress.update(progress or {})
            self._append_event_locked(record, {"event": event, **fields})
            self._save_locked(record, advisory=True)
            return record

    def _append_event_locked(
        self, record: JobRecord, event: dict[str, Any]
    ) -> None:
        record.event_seq += 1
        record.events.append(
            {"ts": round(time.time(), 3), "seq": record.event_seq, **event}
        )
        if len(record.events) > MAX_EVENTS:
            del record.events[: len(record.events) - MAX_EVENTS]

    def update_progress(self, job_id: str, **counters: int) -> JobRecord:
        """Merge progress counters (``shards_done``, ``points_done``, …);
        counters that already hold these values write nothing."""
        counters = {name: int(value) for name, value in counters.items()}
        with self._lock:
            record = self.get(job_id)
            if counters.items() <= record.progress.items():
                return record
            record.progress.update(counters)
            self._save_locked(record, advisory=True)
            return record

    # -- results -------------------------------------------------------------
    def write_result(self, job_id: str, payload: Mapping[str, Any]) -> Path:
        """Persist a job's merged columnar result payload atomically."""
        path = self.result_path_for(job_id)
        self._write(path, colfile.encode(payload))
        return path

    def read_result(self, job_id: str) -> dict[str, Any] | None:
        """The stored result payload, or None when absent/unreadable."""
        try:
            with self.result_path_for(job_id).open("rb") as handle:
                return colfile.decode(handle.read())
        except (OSError, ValueError):
            return None

    # -- change notification --------------------------------------------------
    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def wait_for_change(self, version: int, timeout: float) -> int:
        """Block until the store version moves past ``version`` (or timeout).

        Returns the current version either way; callers re-read whatever
        records they follow.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._version == version:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    break
            return self._version

    def stats(self) -> dict[str, Any]:
        """Aggregate view for ``/v1/jobs`` listings and health payloads."""
        with self._lock:
            by_state: dict[str, int] = {}
            for record in self._records.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
        return {
            "directory": str(self.directory),
            "jobs": sum(by_state.values()),
            "by_state": by_state,
        }
