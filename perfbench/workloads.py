"""The benchmark's three workloads: inputs from the seed, one op kind each.

Every workload builds its inputs from the seed alone, runs one kind of
operation in a closed loop from one process, and checks each op's
output; an op that raises or fails its check is a failed op.

``sweep-mixed``  ``Study.run()`` of the 100,800-point mixed sweep, no
                 cache: the exact fallback search dominates.
``job-persist``  a fresh 12,600-point demo sweep per op, submitted as a
                 one-shard job to a disk-backed ``JobManager``; the op
                 is submit -> done, the read-back is timed apart.
``serve-warm``   ``ServiceClient.explore`` of one of 8 cached 1,008-row
                 sweeps against ``repro serve`` in its own process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import Study, obs
from repro.core.closed_form import closed_form_optimum
from repro.core.numerical import numerical_optimum
from repro.explore.columnar import ResultRows, ResultTable, expand_columns
from repro.explore.engine import FALLBACK_METHOD
from repro.explore.scenario import FrequencyGrid, Scenario, demo_scenario

from tracer import TRACED_PREFIX, Tracer

HERE = Path(__file__).resolve().parent

#: Relative ptot agreement required of sampled rows against the scalar
#: oracles (the engine's own vectorized/scalar parity tolerance).
ORACLE_RTOL = 1e-9


@dataclasses.dataclass
class Outcome:
    """One timed op: its latency, whether its output checked out."""

    latency: float
    ok: bool
    fetch: float | None = None
    error: str = ""


def digest(result) -> str:
    """SHA-256 over every column of a ResultSet, bit-exact.

    NaN (the infeasible rows' operating point) is hashed as +inf so
    equal results hash equal whatever NaN payload produced them.
    """
    records = result.records
    if isinstance(records, ResultRows):
        table = records.table
    else:
        table = ResultTable.from_records(records)
    hasher = hashlib.sha256()
    for name, column in sorted(table.columns.items()):
        hasher.update(name.encode())
        if column.dtype == object:
            hasher.update("\x00".join(map(str, column.tolist())).encode())
        else:
            if column.dtype.kind == "f":
                column = np.where(np.isnan(column), np.inf, column)
            hasher.update(np.ascontiguousarray(column).tobytes())
    return hasher.hexdigest()


def jittered(base: Scenario, rng: random.Random, start: float, stop: float,
             points: int, name: str) -> Scenario:
    """``base`` with a log grid whose endpoints are moved by up to 1 %."""
    grid = FrequencyGrid.logspace(
        start * (1.0 + rng.uniform(-0.01, 0.01)),
        stop * (1.0 + rng.uniform(-0.01, 0.01)),
        points,
    )
    return dataclasses.replace(base, name=name, frequencies=grid)


def attempt(workload, index: int, tracer: Tracer | None = None) -> Outcome:
    """Run one op; an exception makes it a failed op, not a crash."""
    started = time.perf_counter()
    try:
        return workload.op(index, tracer)
    except Exception as error:  # noqa: BLE001 — the op failure boundary
        return Outcome(
            time.perf_counter() - started,
            False,
            error=f"{type(error).__name__}: {error}",
        )


@contextmanager
def traced_op(tracer: Tracer | None, op: int, root: str = "op"):
    """Mark ``op`` as the one being traced and open its root span."""
    if tracer is None:
        yield
        return
    tracer.current = op
    span = tracer.open(root, op)
    try:
        yield
    finally:
        tracer.close(span)
        tracer.current = None


class SweepMixed:
    name = "sweep-mixed"

    def __init__(self, seed: int, workdir: Path,
                 frequency_points: int = 4200, oracle_rows: int = 200) -> None:
        base = demo_scenario()
        rng = random.Random(f"{self.name}:{seed}")
        # bench_columnar.mixed_scenario(): the grid runs deep into
        # infeasible territory for the slow chains, so trusted,
        # fallback and infeasible points all occur.
        self.scenario = jittered(
            base, rng, 2e6, 1.5e9, frequency_points, "bench-columnar"
        )
        self.oracle_rows = oracle_rows
        self.setup_failures = 0
        self.last = None

    def _run(self):
        return (
            Study.from_scenario(self.scenario)
            .solver("auto")
            .cached(enabled=False)
            .run()
        )

    def setup(self) -> None:
        self.reference = digest(self._run())

    def op(self, index: int, tracer: Tracer | None) -> Outcome:
        with traced_op(tracer, index):
            started = time.perf_counter()
            result = self._run()
            latency = time.perf_counter() - started
        self.last = result
        ok = digest(result) == self.reference
        return Outcome(latency, ok, error="" if ok else "digest differs")

    def final_check(self) -> list[str]:
        """Stride sample of the last result against the scalar oracles.

        Feasibility must match the exact numerical optimum on every
        sampled row.  Fallback rows are the exact search, so their
        ptot must equal ``numerical_optimum``'s; trusted rows are the
        Eq. 9-13 closed form, so theirs must equal the scalar
        ``closed_form_optimum`` (the closed form itself differs from
        the exact optimum by up to a few percent by design).
        """
        if self.last is None:
            return ["no op completed"]
        table = self.last.records.table
        columns = expand_columns(self.scenario)
        problems = []
        stride = max(1, len(table) // self.oracle_rows)
        for index in range(0, len(table), stride):
            point = columns.design_point(index)
            args = (point.architecture, point.technology, point.frequency)
            try:
                exact = numerical_optimum(*args).ptot
            except ValueError:
                exact = None
            feasible = bool(table.columns["feasible"][index])
            if feasible != (exact is not None):
                problems.append(f"row {index}: feasibility differs")
                continue
            if not feasible:
                continue
            if table.columns["method"][index] == FALLBACK_METHOD:
                oracle = exact
            else:
                oracle = closed_form_optimum(*args).ptot
            ptot = float(table.columns["ptot"][index])
            if abs(ptot - oracle) > ORACLE_RTOL * abs(oracle):
                problems.append(f"row {index}: ptot {ptot!r} vs {oracle!r}")
        return problems

    def close(self) -> None:
        pass


class JobPersist:
    name = "job-persist"

    def __init__(self, seed: int, workdir: Path,
                 frequency_points: int = 525) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.base = demo_scenario(frequency_points=frequency_points)
        self.frequency_points = frequency_points
        self.cache_dir = workdir / "cache"
        self.jobs_dir = workdir / "jobs"
        self.setup_failures = 0
        self.manager = None

    def setup(self) -> None:
        from repro.jobs.manager import JobManager
        from repro.jobs.store import JobStore

        self.manager = JobManager(
            store=JobStore(self.jobs_dir), cache=self.cache_dir
        )
        if not attempt(self, -1).ok:
            self.setup_failures += 1

    def op(self, index: int, tracer: Tracer | None) -> Outcome:
        # A fresh grid per op, so the job's cache lookups always miss.
        scenario = jittered(
            self.base, self.rng, 2e6, 64e6, self.frequency_points,
            f"job-persist-{index}",
        )
        with traced_op(tracer, index):
            started = time.perf_counter()
            handle = Study.from_scenario(scenario).submit(
                shards=1, manager=self.manager
            )
            status = handle.wait()
            latency = time.perf_counter() - started
        with traced_op(tracer, index, root="fetch"):
            started = time.perf_counter()
            result = handle.result()
            fetch = time.perf_counter() - started
        record = self.manager.store.get(handle.id)
        if tracer is not None:
            running = next(
                event["ts"] for event in record.events
                if event.get("state") == "running"
            )
            tracer.add(index, {
                "manager.queue_wait_ms": (running - record.created_at) * 1e3
            })
        problems = []
        if status.get("state") != "done":
            problems.append(f"job ended {status.get('state')!r}")
        if record.progress.get("points_done") != scenario.size:
            problems.append("points_done != size")
        if digest(result) != digest(Study.from_scenario(scenario).run()):
            problems.append("digest differs from in-process Study.run()")
        self._forget()
        return Outcome(latency, not problems, fetch, "; ".join(problems))

    def _forget(self) -> None:
        """Drop the op's files and memory-tier entries (untimed).

        Every op then starts from the same state, so neither disk use
        nor the process's memory grows with the number of ops.
        """
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        shutil.rmtree(self.jobs_dir, ignore_errors=True)
        self.manager.cache.memory.clear()

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        if self.manager is not None:
            self.manager.close()


class ServeWarm:
    name = "serve-warm"

    def __init__(self, seed: int, workdir: Path, frequency_points: int = 42,
                 variants: int = 8, server_args: tuple[str, ...] = (),
                 spans_path: Path | None = None) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        base = demo_scenario(frequency_points=frequency_points)
        self.variants = [
            jittered(base, rng, 2e6, 64e6, frequency_points, f"serve-warm-{k}")
            for k in range(variants)
        ]
        self.order = random.Random(f"{self.name}-order:{seed}")
        self.workdir = workdir
        self.server_args = tuple(server_args)
        self.spans_path = spans_path
        self.trace_ids: dict[str, int] = {}
        self.setup_failures = 0
        self.process = None
        self.peak_rss_mb = None

    def setup(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        command = [sys.executable, str(HERE / "serve.py")]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        command += [
            "--port", "0",
            "--cache-dir", str(self.workdir / "cache"),
            "--jobs-dir", str(self.workdir / "jobs"),
            *self.server_args,
        ]
        self.log = open(self.workdir / "server.log", "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        line = self.process.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServiceClient(line.split()[-1])
        # Cold fills: the cache writes of this path land in set-up.
        for scenario in self.variants:
            try:
                self.client.explore(scenario)
            except ServiceError:
                self.setup_failures += 1
        self.references = [
            digest(Study.from_scenario(scenario).run())
            for scenario in self.variants
        ]
        if not attempt(self, -1).ok:
            self.setup_failures += 1

    def op(self, index: int, tracer: Tracer | None) -> Outcome:
        k = self.order.randrange(len(self.variants))
        scenario = self.variants[k]
        if tracer is not None:
            trace_id = TRACED_PREFIX + os.urandom(12).hex()
            self.trace_ids[trace_id] = index
            obs.set_context(obs.TraceContext(trace_id, obs.mint_span_id()))
        try:
            with traced_op(tracer, index):
                started = time.perf_counter()
                result = self.client.explore(scenario)
                latency = time.perf_counter() - started
        finally:
            obs.clear_context()
        problems = []
        if not result.cache_hit:
            problems.append("not a cache hit")
        if len(result) != scenario.size:
            problems.append(f"{len(result)} records, expected {scenario.size}")
        elif digest(result) != self.references[k]:
            problems.append("digest differs from in-process Study.run()")
        return Outcome(latency, not problems, error="; ".join(problems))

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        """Stop the server (as Ctrl-C would) and read its peak memory."""
        import resource

        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self.log.close()
        # The server is this process's only child, so the children's
        # peak resident set is the server's.
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.process = None


WORKLOADS = {cls.name: cls for cls in (SweepMixed, JobPersist, ServeWarm)}

#: Input sizes for the harness self-tests (same code paths, tiny grids).
TINY = {
    "sweep-mixed": {"frequency_points": 40, "oracle_rows": 20},
    "job-persist": {"frequency_points": 8},
    "serve-warm": {"frequency_points": 4, "variants": 2},
}

