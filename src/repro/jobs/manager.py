"""Job orchestration: queue, shard, evaluate, merge, persist.

:class:`JobManager` is the execution half of the job subsystem.  One
dispatcher thread drains the submit queue job by job; each job's
scenario is split by :func:`~.sharder.shard_scenario` and its shards
evaluated concurrently on a :class:`WorkerPool` through the columnar
engine (numpy releases the GIL, so threads scale the kernel across
cores), then scatter-merged back into one
:class:`~repro.explore.columnar.ResultTable` that is bit-identical to
the unsharded run.

Jobs share the service's single-flight :class:`~repro.service.coalesce.
Coalescer` under the same :func:`flight_key` the inline ``/v1/explore``
path computes, so an identical sweep submitted as a job while an inline
request is in flight (or vice versa) costs one engine run.  The merged
result is also written to the engine's result cache under the inline
key, so later inline explores of the same scenario are cache hits.

Every lifecycle edge is instrumented (``jobs.submitted`` /
``jobs.completed`` / ``jobs.failed`` / ``jobs.cancelled`` counters, a
``jobs.queue_depth`` gauge, a ``jobs.shard_seconds`` histogram and a
per-job span tree) and persisted through the crash-safe
:class:`~.store.JobStore`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .. import obs
from ..resilience import Deadline, DeadlineExceeded, faults
from ..explore.cache import CACHE_SCHEMA_VERSION, ResultCache
from ..explore.engine import (
    ExplorationResult,
    _cache_key,
    explore,
    flight_key,
    write_cached,
)
from ..explore.scenario import Scenario
from ..service.coalesce import Coalescer
from ..service.memcache import TieredCache, as_cache
from ..solvers import EngineSolver, check_options, get_solver
from ..study import ResultSet, Study
from .sharder import Shard, merge_stats, merge_tables, shard_scenario
from .store import JobRecord, JobStore

__all__ = [
    "JobCancelled",
    "JobError",
    "JobStateError",
    "JobTimeout",
    "JobManager",
    "WorkerPool",
    "flight_key",
]

#: How long the dispatcher sleeps between queue checks while idle.
_DISPATCH_IDLE_SECONDS = 0.5


class JobError(Exception):
    """Base class for job-subsystem failures."""


class JobCancelled(JobError):
    """Raised inside a job's producer when its cancel flag is set."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"job {job_id} was cancelled")
        self.job_id = job_id


class JobStateError(JobError):
    """The job exists but is in the wrong state for the operation."""


class JobTimeout(JobError):
    """``wait()`` gave up before the job reached a terminal state."""


def _default_pool_size() -> int:
    # Enough threads to cover the default shard fan-out even on small
    # machines (the kernel releases the GIL, so oversubscription on one
    # core costs little and tests still exercise real concurrency).
    return max(2, min(8, os.cpu_count() or 1))


class WorkerPool:
    """Lazily started thread pool evaluating shards for the manager."""

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or _default_pool_size()
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any):
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-job-shard",
                )
            return self._executor.submit(fn, *args, **kwargs)

    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: Signature of the pluggable shard evaluator: (shard scenario, engine
#: method) in, ExplorationResult out.  Tests inject gates/counters here
#: without monkey-patching the engine.
EvaluateShard = Callable[[Scenario, str], ExplorationResult]


class JobManager:
    """Submit/poll/cancel/stream lifecycle over a persistent store.

    Jobs are dispatched strictly one at a time (a job's parallelism is
    its shards, not its siblings — the bounded worker pool is the
    concurrency budget), which keeps per-job latency predictable under
    a queue and makes the queue-depth gauge meaningful.
    """

    def __init__(
        self,
        store: JobStore | str | Path | None = None,
        cache: TieredCache | ResultCache | str | Path | None = None,
        use_cache: bool = True,
        coalescer: Coalescer | None = None,
        pool: WorkerPool | None = None,
        evaluate_shard: EvaluateShard | None = None,
        recover: bool = True,
        trace_store: "obs.TraceStore | None" = None,
        max_shard_retries: int = 1,
        shard_timeout: float | None = None,
        allow_partial: bool = True,
    ) -> None:
        if max_shard_retries < 0:
            raise ValueError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {shard_timeout}"
            )
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self.cache = as_cache(cache)
        self.use_cache = use_cache
        self.coalescer = coalescer or Coalescer()
        self.pool = pool or WorkerPool()
        #: Extra attempts a failing shard gets before it is poisoned.
        self.max_shard_retries = max_shard_retries
        #: Watchdog: with no shard finishing for this long, in-flight
        #: shards are presumed hung, abandoned and re-queued.
        self.shard_timeout = shard_timeout
        #: When True, a job with poisoned shards still delivers the
        #: merged surviving shards tagged ``partial=true``.
        self.allow_partial = allow_partial
        # When set (the service passes its TraceStore), a job executed
        # on the dispatcher thread records its span tree here under the
        # submitting request's trace id — the cross-thread stitch.
        self.trace_store = trace_store
        self._evaluate_shard = evaluate_shard or self._explore_shard
        self._submit_lock = threading.Lock()
        self._lock = threading.Lock()
        self._queue: deque[str] = deque()
        self._queue_cond = threading.Condition(self._lock)
        self._cancel_events: dict[str, threading.Event] = {}
        self._stopping = False
        self._dispatcher: threading.Thread | None = None
        if recover:
            self.recover()

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        scenario: Scenario | Mapping[str, Any],
        solver: str = "auto",
        options: Mapping[str, Any] | None = None,
        shards: int | None = None,
        idempotency_key: str = "",
        deadline_ms: int | None = None,
    ) -> JobRecord:
        """Persist a new queued job and wake the dispatcher.

        Raises :class:`~repro.solvers.SolverError` on an unknown solver
        name or an option the solver does not take, and ``ValueError``
        on a bad shard count — all before anything is persisted, so a
        rejected submit leaves no record.

        With an ``idempotency_key``, resubmitting the same key returns
        the already-known job instead of creating (and running) a
        duplicate — the contract that makes client submit-retries safe.
        ``deadline_ms`` bounds the job's execution; past it, remaining
        shards are abandoned and the job fails (or completes partial).
        """
        if not isinstance(scenario, Scenario):
            scenario = Scenario.from_dict(dict(scenario))
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if deadline_ms is not None and deadline_ms < 1:
            raise ValueError(
                f"deadline_ms must be >= 1, got {deadline_ms}"
            )
        options = dict(options or {})
        solver_obj = get_solver(solver)
        solver = solver_obj.name
        if isinstance(solver_obj, EngineSolver):
            check_options(solver, options, ())
            planned = len(shard_scenario(scenario, shards))
        else:
            planned = 1
        # Capture the submitting thread's trace context (the server's
        # request handler activates one per traced request), so the
        # job's spans — run later, on other threads — stitch under the
        # submitting request's span in one tree.
        context = obs.current_context()
        trace = (
            {"trace_id": context.trace_id, "parent_id": context.span_id}
            if context is not None and self.trace_store is not None
            else None
        )
        # Dedup-check and create under one lock, so two racing retries
        # of the same submit cannot both mint a job.  Deliberately NOT
        # self._lock: that one doubles as the queue condition and
        # _enqueue must be able to take it after this block.
        with self._submit_lock:
            if idempotency_key:
                existing = self.store.find_by_idempotency_key(
                    idempotency_key
                )
                if existing is not None:
                    obs.inc("jobs.deduplicated")
                    return existing
            record = self.store.create(
                scenario.to_dict(),
                solver=solver,
                options=options,
                shards=shards,
                trace=trace,
                idempotency_key=idempotency_key,
                deadline_ms=deadline_ms,
                progress={
                    "shards_total": planned,
                    "shards_done": 0,
                    "points_total": scenario.size,
                    "points_done": 0,
                },
            )
        obs.inc("jobs.submitted", solver=solver)
        self._enqueue(record.id)
        return record

    def _enqueue(self, job_id: str) -> None:
        with self._queue_cond:
            self._cancel_events.setdefault(job_id, threading.Event())
            self._queue.append(job_id)
            self._set_queue_gauge_locked()
            self._ensure_dispatcher_locked()
            self._queue_cond.notify_all()

    def recover(self) -> list[str]:
        """Re-queue every non-terminal job found on disk (oldest first).

        Safe to replay: finished shards are cache hits, so a job killed
        mid-run re-runs only the shards it had not completed.  Terminal
        jobs are left exactly as persisted.
        """
        requeued: list[str] = []
        for record in reversed(self.store.list()):
            if record.terminal:
                continue
            if record.state == "running":
                self.store.transition(record.id, "queued", requeued=True)
            self._enqueue(record.id)
            requeued.append(record.id)
        return requeued

    # -- dispatcher ----------------------------------------------------------
    def _ensure_dispatcher_locked(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-job-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._stopping:
                    self._queue_cond.wait(_DISPATCH_IDLE_SECONDS)
                if self._stopping:
                    return
                job_id = self._queue.popleft()
                self._set_queue_gauge_locked()
            try:
                self._execute(job_id)
            except Exception:  # pragma: no cover — the dispatcher survives
                # _execute already recorded the failure on the job; a bug
                # escaping it must not kill the only dispatcher thread.
                pass

    def _set_queue_gauge_locked(self) -> None:
        obs.set_gauge("jobs.queue_depth", len(self._queue))

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def _trace_scope(
        self, record: JobRecord
    ) -> tuple["obs.SpanTracer | None", "obs.TraceContext | None"]:
        """A fresh tracer + adopted context for a traced job, else Nones."""
        trace = record.trace or {}
        trace_id = str(trace.get("trace_id", ""))
        if not trace_id or self.trace_store is None:
            return None, None
        return obs.SpanTracer(), obs.TraceContext(
            trace_id, str(trace.get("parent_id", ""))
        )

    def _flush_trace(
        self, record: JobRecord, tracer: "obs.SpanTracer | None"
    ) -> None:
        """Record the job's finished span trees under its trace id."""
        if tracer is None or self.trace_store is None:
            return
        roots = tracer.to_dict()["roots"]
        if roots:
            self.trace_store.add_spans(
                str((record.trace or {}).get("trace_id", "")),
                roots,
                job_id=record.id,
            )

    def _execute(self, job_id: str) -> None:
        record = self.store.get(job_id)
        if record.terminal:
            return
        cancel = self._cancel_events.setdefault(job_id, threading.Event())
        if cancel.is_set():
            self.store.transition(job_id, "cancelled")
            obs.inc("jobs.cancelled")
            return
        self.store.transition(job_id, "running")
        scenario = Scenario.from_dict(record.scenario)
        key = flight_key(scenario, record.solver, record.options)
        started = time.perf_counter()
        tracer, context = self._trace_scope(record)
        try:
            with obs.adopt(tracer, context):
                with obs.span("jobs.run", job=job_id, solver=record.solver):
                    result, coalesced = self.coalescer.run(
                        key, lambda: self._produce(record, scenario, cancel)
                    )
        except JobCancelled:
            self.store.transition(job_id, "cancelled")
            obs.inc("jobs.cancelled")
        except DeadlineExceeded as error:
            obs.inc("jobs.deadline_breaches")
            self.store.transition(
                job_id, "failed", error=f"DeadlineExceeded: {error}"
            )
            obs.inc("jobs.failed")
        except Exception as error:  # noqa: BLE001 — the job failure boundary
            self.store.transition(
                job_id, "failed", error=f"{type(error).__name__}: {error}"
            )
            obs.inc("jobs.failed")
        else:
            partial = bool(getattr(result, "partial", False))
            self.store.write_result(job_id, result.to_payload(coalesced))
            if not partial:
                # A full result completes the progress counters; a
                # partial one keeps the honest shards_done/points_done
                # the shard loop recorded.
                progress = self.store.get(job_id).progress
                self.store.update_progress(
                    job_id,
                    shards_done=progress.get("shards_total", 1),
                    points_done=progress.get("points_total", len(result)),
                )
            self.store.transition(
                job_id,
                "done",
                stats=result.stats.to_dict() if result.stats else None,
                cache_key=result.cache_key,
                coalesced=coalesced,
                partial=partial or None,
                seconds=round(time.perf_counter() - started, 4),
            )
            obs.inc("jobs.completed", solver=record.solver)
        finally:
            self._flush_trace(record, tracer)

    # -- producers (run under the coalescer flight) ---------------------------
    def _explore_shard(
        self, scenario: Scenario, method: str
    ) -> ExplorationResult:
        return explore(
            scenario,
            method=method,
            cache=self.cache,
            use_cache=self.use_cache,
        )

    def _produce(
        self,
        record: JobRecord,
        scenario: Scenario,
        cancel: threading.Event,
    ) -> ResultSet:
        solver_obj = get_solver(record.solver)
        if isinstance(solver_obj, EngineSolver):
            return self._produce_sharded(record, scenario, solver_obj, cancel)
        return self._produce_registry(record, scenario)

    def _run_shard(
        self,
        record_id: str,
        shard: Shard,
        method: str,
        cancel: threading.Event,
        trace: "tuple[obs.SpanTracer | None, obs.TraceContext | None]" = (
            None,
            None,
        ),
    ) -> tuple[ExplorationResult, float]:
        if cancel.is_set():
            raise JobCancelled(record_id)
        faults.check("shard.run")
        # Adopt the dispatcher's tracer + context on this pool thread:
        # the shard span (and the engine phase spans beneath it) parent
        # under the job's ``jobs.run`` span instead of orphaning here.
        with obs.adopt(*trace):
            started = time.perf_counter()
            with obs.span("jobs.shard", shard=shard.index + 1, of=shard.count):
                exploration = self._evaluate_shard(shard.scenario, method)
            return exploration, time.perf_counter() - started

    def _produce_sharded(
        self,
        record: JobRecord,
        scenario: Scenario,
        solver: EngineSolver,
        cancel: threading.Event,
    ) -> ResultSet:
        method = solver.engine_method
        shards = shard_scenario(scenario, record.shards)
        self.store.update_progress(
            record.id,
            shards_total=len(shards),
            shards_done=0,
            points_total=scenario.size,
            points_done=0,
        )
        started = time.perf_counter()
        # The trace scope shard workers adopt: this (dispatcher) thread's
        # tracer, positioned at the currently open span (``jobs.run``).
        tracer = obs.current_tracer()
        shard_context = None
        if tracer is not None:
            open_span = tracer.current_span()
            if open_span is not None and open_span.span_id:
                base = obs.current_context() or obs.TraceContext("", "")
                shard_context = base.child(open_span.span_id)
        deadline = (
            Deadline.after(record.deadline_ms / 1000.0)
            if record.deadline_ms
            else None
        )

        def submit_one(shard: Shard):
            return self.pool.submit(
                self._run_shard,
                record.id,
                shard,
                method,
                cancel,
                trace=(tracer, shard_context),
            )

        attempts = {shard.index: 1 for shard in shards}
        pending = {submit_one(shard): shard for shard in shards}
        done: dict[int, tuple[Shard, ExplorationResult]] = {}
        failures: dict[int, str] = {}
        points_done = 0
        last_progress = time.monotonic()

        def retry_or_poison(shard: Shard, why: str, event: str) -> None:
            """Give the shard another attempt within budget, else poison it."""
            if attempts[shard.index] <= self.max_shard_retries:
                attempts[shard.index] += 1
                obs.inc("jobs.shard_retries")
                self.store.add_event(
                    record.id,
                    event,
                    shard=shard.index + 1,
                    of=shard.count,
                    attempt=attempts[shard.index],
                    error=why,
                )
                pending[submit_one(shard)] = shard
            else:
                failures[shard.index] = why
                obs.inc("jobs.shard_poisoned")
                self.store.add_event(
                    record.id,
                    "shard_poisoned",
                    shard=shard.index + 1,
                    of=shard.count,
                    attempts=attempts[shard.index],
                    error=why,
                )

        try:
            while pending:
                timeouts = []
                if self.shard_timeout is not None:
                    timeouts.append(
                        max(
                            0.0,
                            self.shard_timeout
                            - (time.monotonic() - last_progress),
                        )
                    )
                if deadline is not None:
                    timeouts.append(max(0.0, deadline.remaining()))
                finished, _ = futures_wait(
                    set(pending), timeout=min(timeouts) if timeouts else None
                )
                if cancel.is_set():
                    raise JobCancelled(record.id)
                if not finished and deadline is not None and deadline.expired:
                    # Budget spent: whatever is still in flight is
                    # abandoned, and the shards it covered count as
                    # failed for the partial-result decision below.
                    obs.inc("jobs.deadline_breaches")
                    self.store.add_event(
                        record.id,
                        "deadline",
                        budget_ms=record.deadline_ms,
                        shards_done=len(done),
                        shards_abandoned=len(pending),
                    )
                    for future, shard in pending.items():
                        future.cancel()
                        failures[shard.index] = (
                            f"deadline of {record.deadline_ms} ms exceeded"
                        )
                    pending.clear()
                    break
                if not finished:
                    # Watchdog: nothing finished within shard_timeout.
                    # The pool cannot kill a hung thread, so the futures
                    # are abandoned (their eventual results discarded)
                    # and the shards re-queued as fresh attempts.
                    hung = list(pending.items())
                    pending.clear()
                    obs.inc("jobs.shard_watchdog_timeouts", len(hung))
                    for future, shard in hung:
                        future.cancel()
                        retry_or_poison(
                            shard,
                            f"no progress for {self.shard_timeout:g}s "
                            f"(presumed hung)",
                            "shard_requeued",
                        )
                    last_progress = time.monotonic()
                    continue
                for future in finished:
                    shard = pending.pop(future)
                    try:
                        exploration, seconds = future.result()
                    except JobCancelled:
                        raise
                    except Exception as error:  # noqa: BLE001 — shard boundary
                        retry_or_poison(
                            shard,
                            f"{type(error).__name__}: {error}",
                            "shard_retry",
                        )
                        continue
                    done[shard.index] = (shard, exploration)
                    points_done += shard.n
                    last_progress = time.monotonic()
                    obs.observe("jobs.shard_seconds", seconds)
                    self.store.update_progress(
                        record.id,
                        shards_done=len(done),
                        points_done=points_done,
                    )
                    self.store.add_event(
                        record.id,
                        "shard",
                        shard=shard.index + 1,
                        of=shard.count,
                        rows=shard.n,
                        seconds=round(seconds, 4),
                        cache_hit=exploration.cache_hit,
                        attempt=attempts[shard.index],
                    )
                if cancel.is_set():
                    raise JobCancelled(record.id)
        except BaseException:
            # Abort everything not yet started; shards already running
            # finish on their pool thread and are simply discarded.
            for future in pending:
                future.cancel()
            raise

        if failures and not done:
            first = failures[min(failures)]
            raise JobError(
                f"all {len(shards)} shards failed; first error: {first}"
            )
        partial = bool(failures)
        if partial and not self.allow_partial:
            raise JobError(
                f"{len(failures)} of {len(shards)} shards failed: "
                + "; ".join(
                    f"shard {index + 1}: {why}"
                    for index, why in sorted(failures.items())
                )
            )

        pairs = [done[index] for index in sorted(done)]
        with obs.span("jobs.merge", job=record.id, shards=len(pairs)):
            if partial:
                # Surviving shards only: plain concatenation in shard
                # order (the scatter path requires full row coverage).
                table = merge_tables(
                    [exploration.table for _, exploration in pairs]
                )
            else:
                table = merge_tables(
                    [
                        (shard, exploration.table)
                        for shard, exploration in pairs
                    ]
                )
            stats = merge_stats(
                [exploration.stats for _, exploration in pairs],
                elapsed_seconds=time.perf_counter() - started,
            )
        engine_key = _cache_key(scenario, method)
        parity = all(exploration.parity_checked for _, exploration in pairs)
        if partial:
            obs.inc("jobs.partial_results")
            self.store.add_event(
                record.id,
                "partial",
                shards_failed=sorted(
                    index + 1 for index in failures
                ),
                shards_merged=len(pairs),
            )
        # A one-shard job's shard is the scenario itself: its explore()
        # already stored (or hit) the entry under the inline key.
        already_cached = [exploration.cache_key for _, exploration in pairs] == [
            engine_key
        ]
        if self.use_cache and not partial and not already_cached:
            # Under the inline explore() key, so a later inline request
            # for the full scenario is a cache hit, not a re-run.  A
            # partial table must never be cached under the full key.
            write_cached(
                self.cache,
                engine_key,
                {
                    "schema": CACHE_SCHEMA_VERSION,
                    "method": method,
                    "scenario": scenario.to_dict(),
                    "stats": stats.to_dict(),
                    "parity_checked": parity,
                    "columns": table.columns,
                },
            )
        return ResultSet(
            records=table.rows(),
            solver=solver.name,
            scenario=scenario,
            stats=stats,
            cache_hit=False,
            cache_key=engine_key,
            partial=partial,
        )

    def _produce_registry(
        self, record: JobRecord, scenario: Scenario
    ) -> ResultSet:
        # Scalar and custom solvers evaluate as one unit through
        # Study.run (the same path as an inline request).
        self.store.update_progress(
            record.id, shards_total=1, points_total=scenario.size
        )
        return (
            Study.from_scenario(scenario)
            .solver(record.solver, **record.options)
            .cached(self.cache, enabled=self.use_cache)
            .run()
        )

    # -- queries -------------------------------------------------------------
    def job(self, job_id: str) -> dict[str, Any]:
        """The status payload for one job (raises :class:`JobNotFound`)."""
        return self.store.get(job_id).to_payload()

    def jobs(self) -> list[dict[str, Any]]:
        """Status payloads for every known job, newest first."""
        return [record.to_payload() for record in self.store.list()]

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll: float = 1.0,
    ) -> dict[str, Any]:
        """Block until the job is terminal; returns its status payload.

        Raises :class:`JobTimeout` when ``timeout`` elapses first.  The
        wait rides the store's change condition, so it wakes on real
        transitions rather than busy-polling (``poll`` only bounds each
        individual sleep).
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        version = self.store.version
        while True:
            record = self.store.get(job_id)
            if record.terminal:
                return record.to_payload()
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise JobTimeout(
                        f"job {job_id} still {record.state!r} after "
                        f"{timeout:g} s"
                    )
                version = self.store.wait_for_change(
                    version, min(poll, remaining)
                )
            else:
                version = self.store.wait_for_change(version, poll)

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Request cancellation; returns the job's (new) status payload.

        A queued job is cancelled immediately; a running job stops at
        the next shard boundary (pending shards are aborted).  A
        terminal job raises :class:`JobStateError` — there is nothing
        left to cancel.
        """
        with self._lock:
            record = self.store.get(job_id)
            if record.terminal:
                raise JobStateError(
                    f"job {job_id} is already {record.state!r}"
                )
            event = self._cancel_events.setdefault(job_id, threading.Event())
            event.set()
            if record.state == "queued":
                record = self.store.transition(job_id, "cancelled")
                obs.inc("jobs.cancelled")
                # Drop it from the queue now: leaving the id for the
                # dispatcher to skip later would hold jobs.queue_depth
                # above zero for work that no longer exists.
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
                self._set_queue_gauge_locked()
        return self.store.get(job_id).to_payload()

    def job_result(self, job_id: str) -> ResultSet:
        """The merged result of a ``done`` job as a typed ResultSet."""
        return self.job_result_response(job_id)[0]

    def job_result_response(self, job_id: str) -> tuple[ResultSet, bool]:
        """(ResultSet, coalesced) — what the result route serialises.

        Both come from one read of the job's result file.
        """
        record = self.store.get(job_id)
        if record.state != "done":
            raise JobStateError(
                f"job {job_id} is {record.state!r}; results exist only "
                f"for 'done' jobs"
            )
        payload = self.store.read_result(job_id)
        if payload is None:
            raise JobStateError(
                f"job {job_id} is done but its result file is missing"
            )
        return ResultSet.from_payload(payload), bool(payload.get("coalesced"))

    def stream_events(
        self,
        job_id: str,
        poll: float = 0.5,
        timeout: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Yield each job event once, following until a terminal state.

        Events carry a monotonically increasing ``seq``, so the stream
        is gap-free even when the store trims its event window.  With a
        ``timeout`` the generator stops (without error) once the job has
        produced nothing new for that long.
        """
        last_seq = -1
        version = self.store.version
        idle_deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            record = self.store.get(job_id)
            fresh = [
                event
                for event in record.events
                if event.get("seq", 0) > last_seq
            ]
            for event in fresh:
                last_seq = max(last_seq, int(event.get("seq", 0)))
                yield event
            if record.terminal:
                return
            if fresh and idle_deadline is not None:
                idle_deadline = time.monotonic() + timeout
            if idle_deadline is not None and time.monotonic() >= idle_deadline:
                return
            version = self.store.wait_for_change(version, poll)

    # -- shutdown ------------------------------------------------------------
    def close(self) -> None:
        """Stop the dispatcher and worker pool (queued jobs stay queued)."""
        with self._queue_cond:
            self._stopping = True
            self._queue_cond.notify_all()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=5.0)
        self.pool.shutdown()
