"""Orchestration: expand a scenario, vectorize, fall back, cache.

The batch core is columnar end to end: a scenario expands straight to
column arrays (:func:`~.columnar.expand_columns`), the vectorized
Eq. 9–13 kernel runs per technology group, every flagged point is
solved by the vectorized exact-numerical solver
(:mod:`repro.solvers.batch_numerical` — a lockstep port of the bounded
scipy search, bit-identical results without per-point scipy calls), and
the outcome is assembled by array masking into a
:class:`~.columnar.ResultTable`.  Per-row ``PointResult`` objects are
lazy views, materialised only when a caller indexes one.  The
multiprocessing pool survives exclusively behind
``method="numerical"``, the reference path that runs scipy on every
point on purpose.

A parity check compares sampled vectorized results against the scalar
closed form on every ``auto`` and ``closed-form`` run, so a drift
between the two implementations cannot pass silently.

:func:`run` is the one run path for every registry solver: key, cache
read, expand, ``solver.solve(columns)``, tally, cache write, heap
release.  :func:`explore` is that path for one of the engine's three
methods, and :class:`~repro.study.Study`, the job manager and the
service all reach it.  :func:`read_cached` and :func:`write_cached` are
the cache's failure handling: an undecodable entry is quarantined and
recomputed, a failed write is counted, not raised.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from .. import obs
from ..resilience import current_deadline, faults
from ..core.closed_form import closed_form_optimum
from ..core.numerical import DEFAULT_VDD_SPAN
from . import executor as executor_module
from ..service.memcache import TieredCache, as_cache
from .cache import CACHE_SCHEMA_VERSION, ResultCache, content_hash
from .columnar import CODE_DTYPE, Categorical, ExpandedColumns, ResultTable, expand_columns
from .scenario import Scenario
from .vectorized import batch_arrays_for_columns, closed_form_batch

#: Method tag on vectorized operating points.
VECTORIZED_METHOD = "vectorized-closed-form"

#: Method tag on points the auto policy re-solved exactly.
FALLBACK_METHOD = "numerical-fallback"

#: Relative tolerance of the engine's built-in vectorized-vs-scalar
#: parity check (the arithmetic is identical, so real agreement is at
#: machine precision; 1e-9 leaves room for operation-order noise only).
PARITY_RTOL = 1e-9

#: How many vectorized points each run spot-checks against the scalar
#: closed form.
PARITY_SAMPLES = 3

EVALUATION_METHODS = ("auto", "closed-form", "numerical")

#: Kernel sub-chunk size used *only when a deadline is active*: small
#: enough that a breached budget is noticed within a fraction of a
#: second of kernel work, large enough that splitting a technology
#: group costs under the bench gate's 2% (smaller chunks lose batch
#: amortisation in the vectorized kernel, not just the check itself).
#: With no deadline the kernel runs each technology group in one shot,
#: exactly as before — byte-identical results, zero overhead.
DEADLINE_CHUNK_ROWS = 65536

#: Fresh evaluations of at least this many rows hand the heap they
#: freed back to the OS.  glibc raises its mmap threshold as large
#: arrays are freed, so a sweep's temporaries soon live on the main
#: heap, and how much of the freed heap stays resident depends on where
#: the last-freed blocks lie: after identical 100,800-point sweeps the
#: process peaked at either ~113 or ~129 MB.  ``malloc_trim(0)`` returns
#: every free page and the next sweep re-faults them, ~4 % of its time;
#: on a 12,600-point job that was 7 %, for a few MB, hence the floor.
RELEASE_HEAP_MIN_ROWS = 65536


@dataclass(frozen=True)
class PointResult:
    """Flat, JSON-serialisable record of one evaluated candidate.

    This is what the analysis helpers consume and what one row of the
    columnar :class:`~.columnar.ResultTable` materialises to: the
    architecture summary is inlined (names plus the Eq. 13 inputs and
    the area proxy) so a cached sweep is self-contained.
    """

    architecture: str
    technology: str
    frequency: float
    n_cells: float
    activity: float
    logical_depth: float
    capacitance: float
    area: float
    feasible: bool
    method: str
    vdd: float | None = None
    vth: float | None = None
    pdyn: float | None = None
    pstat: float | None = None
    ptot: float | None = None
    reason: str = ""

    @property
    def ptot_or_inf(self) -> float:
        """Total power, with +inf standing in for infeasible points."""
        return self.ptot if self.ptot is not None else float("inf")

    @property
    def area_proxy(self) -> float:
        """Layout area when known, otherwise the cell count.

        The paper's Table 1 reports area per architecture; parameter-only
        sweeps may not have it, and ``N`` tracks it closely (Table 1's
        area/cell spread across the thirteen multipliers is ~20 %).
        """
        return self.area if self.area > 0.0 else self.n_cells

    # Populated once after the class body: record (de)serialisation is
    # the serving layer's hot path (every response converts thousands of
    # records), and per-call dataclasses.asdict/fields introspection
    # costs more than the conversion itself.
    _FIELD_NAMES: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELD_NAMES}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PointResult":
        known = cls._FIELD_NAMES
        return cls(**{k: v for k, v in payload.items() if k in known})

    def describe(self) -> str:
        if not self.feasible:
            return (
                f"{self.architecture} on {self.technology} "
                f"@ {self.frequency / 1e6:g} MHz: infeasible ({self.reason})"
            )
        return (
            f"{self.architecture} on {self.technology} "
            f"@ {self.frequency / 1e6:g} MHz: Ptot={self.ptot * 1e6:.2f} uW "
            f"(Vdd={self.vdd:.3f} V, Vth={self.vth:.3f} V)"
        )


PointResult._FIELD_NAMES = tuple(f.name for f in fields(PointResult))


@dataclass(frozen=True)
class EvaluationStats:
    """Where the work went in one sweep.

    ``phases`` maps engine phase names (``expand``, ``kernel``,
    ``fallback``, ``analysis``, ``cache_read``, ``cache_write``) to wall
    seconds — the per-sweep breakdown behind ``--profile``, the service
    ``stats`` payload and the benchmark snapshots.  It is empty for
    stats built by callers that did not time phases (old cache entries,
    hand-rolled tallies); consumers must treat missing keys as "not
    measured", not zero.
    """

    n_candidates: int
    n_feasible: int
    n_vectorized: int
    n_fallback: int
    elapsed_seconds: float
    phases: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_candidates": self.n_candidates,
            "n_feasible": self.n_feasible,
            "n_vectorized": self.n_vectorized,
            "n_fallback": self.n_fallback,
            "elapsed_seconds": self.elapsed_seconds,
            "phases": dict(self.phases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationStats":
        return cls(**payload)

    @classmethod
    def from_table(
        cls,
        table: ResultTable,
        elapsed_seconds: float,
        phases: Mapping[str, float] | None = None,
    ) -> "EvaluationStats":
        """Tally a columnar sweep from its method codes, building no rows."""
        method = Categorical.from_values(table.columns.stored["method"])
        counts = np.bincount(method.codes, minlength=len(method.vocab))
        vocab = np.array(method.vocab, dtype=object)
        return cls(
            n_candidates=len(table),
            n_feasible=table.n_feasible,
            n_vectorized=int(counts[vocab == VECTORIZED_METHOD].sum()),
            n_fallback=int(
                counts[(vocab == FALLBACK_METHOD) | (vocab == "numerical")].sum()
            ),
            elapsed_seconds=elapsed_seconds,
            phases=dict(phases or {}),
        )

    def describe(self) -> str:
        rate = self.n_candidates / self.elapsed_seconds if self.elapsed_seconds else float("inf")
        return (
            f"{self.n_candidates} candidates ({self.n_feasible} feasible) in "
            f"{self.elapsed_seconds:.3f} s ({rate:,.0f}/s; "
            f"{self.n_vectorized} vectorized, {self.n_fallback} exact-numerical)"
        )


@dataclass
class ExplorationResult:
    """A fully evaluated scenario plus provenance.

    ``points`` is a lazy, list-compatible view over the columnar
    ``table`` (one ``PointResult`` materialised per index access);
    ``table`` carries the structure-of-arrays representation the
    analysis, caching and serving layers operate on directly.
    """

    scenario: Scenario
    method: str
    points: Sequence[PointResult]
    stats: EvaluationStats
    cache_hit: bool = False
    cache_key: str = ""
    cache_path: Path | None = None
    parity_checked: bool = False
    table: ResultTable | None = field(default=None, repr=False, compare=False)

    @property
    def feasible_points(self) -> list[PointResult]:
        return [p for p in self.points if p.feasible]

    @property
    def best(self) -> PointResult | None:
        """Cheapest feasible candidate, or None when nothing closes timing."""
        if self.table is not None:
            index = self.table.best_index()
            return None if index is None else self.table.row(index)
        feasible = self.feasible_points
        if not feasible:
            return None
        return min(feasible, key=lambda p: p.ptot_or_inf)

    def describe(self) -> str:
        source = "cache hit" if self.cache_hit else "evaluated"
        lines = [
            f"scenario {self.scenario.name!r} [{self.method}] — {source}",
            f"  {self.stats.describe()}",
        ]
        best = self.best
        if best is not None:
            lines.append(f"  best: {best.describe()}")
        return "\n".join(lines)


def _closed_form_reason_values(
    name: str, margin: float, log_argument: float
) -> str:
    """Reason string mirroring the scalar chain's exception messages."""
    if margin <= 0.0:
        chi_a = 1.0 - margin
        return (
            f"{name}: chi*A = {chi_a:.3f} >= 1 — the architecture cannot "
            f"meet timing in this technology at this frequency"
        )
    return (
        f"{name}: ln argument {log_argument:.3e} <= 1 "
        f"implies a non-positive optimal threshold"
    )


def _check_parity(columns: ExpandedColumns, batch, positions, indices) -> None:
    """Spot-check vectorized values against the scalar closed form.

    ``positions`` index into the batch arrays, ``indices`` into the
    expanded grid; both are aligned.  Raises ``RuntimeError`` on drift —
    this is an internal-consistency invariant, not user error.
    """
    if not len(positions):
        return
    picks = sorted({0, len(positions) // 2, len(positions) - 1})
    for pick in picks[:PARITY_SAMPLES]:
        position, index = positions[pick], indices[pick]
        point = columns.design_point(index)
        scalar = closed_form_optimum(
            point.architecture, point.technology, point.frequency
        )
        vector_ptot = float(batch.ptot[position])
        drift = abs(vector_ptot - scalar.ptot) / scalar.ptot
        if not np.isfinite(vector_ptot) or drift > PARITY_RTOL:
            raise RuntimeError(
                f"vectorized/scalar parity violation at {point.describe()}: "
                f"batch Ptot={vector_ptot!r} vs closed form {scalar.ptot!r} "
                f"(rel. drift {drift:.3e} > {PARITY_RTOL:g})"
            )


def _fallback_task(columns: ExpandedColumns, indices: np.ndarray):
    """Batch-numerical task for the flagged subset of a columnar grid.

    χ is recomputed with :func:`~repro.solvers.batch_numerical.
    exact_chi` rather than reused from the kernel: the kernel's array
    ``pow`` may differ from scalar libm by 1 ULP, and the fallback
    solver's contract is bit-parity with the scalar reference.
    """
    from ..solvers.batch_numerical import (
        BatchNumericalTask,
        chi_denominator,
        exact_chi,
    )

    technologies = columns.technologies
    tech_io = np.array([t.io for t in technologies], dtype=float)
    tech_zeta = np.array([t.zeta for t in technologies], dtype=float)
    tech_inv_alpha = np.array(
        [1.0 / t.alpha for t in technologies], dtype=float
    )
    tech_n_ut = np.array([t.n_ut for t in technologies], dtype=float)
    tech_nominal = np.array(
        [t.vdd_nominal for t in technologies], dtype=float
    )
    tech_denominator = np.array(
        [chi_denominator(t) for t in technologies], dtype=float
    )
    tech_index = columns.tech_index[indices]
    inv_alpha = tech_inv_alpha[tech_index]
    return BatchNumericalTask(
        name=columns.arch_name[indices],
        n_cells=columns.n_cells[indices],
        activity=columns.activity[indices],
        capacitance=columns.capacitance[indices],
        frequency=columns.frequency[indices],
        chi=exact_chi(
            columns.logical_depth[indices],
            columns.frequency[indices],
            tech_zeta[tech_index] * columns.zeta_factor[indices],
            tech_denominator[tech_index],
            inv_alpha,
        ),
        io_power=tech_io[tech_index] * columns.io_factor[indices],
        inv_alpha=inv_alpha,
        n_ut=tech_n_ut[tech_index],
        vdd_lo=DEFAULT_VDD_SPAN[0] * tech_nominal[tech_index],
        vdd_hi=DEFAULT_VDD_SPAN[1] * tech_nominal[tech_index],
    )


def _evaluate_columns(columns: ExpandedColumns, method: str) -> ResultTable:
    """The columnar batch core for ``auto`` and ``closed-form``.

    One vectorized kernel call per technology group, one vectorized
    exact-numerical solve for the whole flagged set, results assembled
    by mask assignment into the table's column arrays — no per-point
    Python objects anywhere on this path: ``method`` is the ``flagged``
    mask as codes, ``reason`` is ``""`` plus the rejection texts.  The
    ``kernel`` and
    ``fallback`` phases go to the caller's open timer, if any
    (:func:`repro.obs.active_timer`).
    """
    timer = obs.active_timer("engine")
    deadline = current_deadline()
    rows_done = 0
    n = columns.n
    vdd = np.full(n, np.nan)
    vth = np.full(n, np.nan)
    pdyn = np.full(n, np.nan)
    pstat = np.full(n, np.nan)
    ptot = np.full(n, np.nan)
    feasible = np.zeros(n, dtype=bool)
    reason_codes = np.zeros(n, dtype=CODE_DTYPE)
    reason_vocab = [""]
    flagged = np.zeros(n, dtype=bool)

    def add_reasons(rows: np.ndarray, texts: Categorical) -> None:
        reason_codes[rows] = texts.codes + len(reason_vocab)
        reason_vocab.extend(texts.vocab)

    with timer.phase("kernel"):
        for tech_position, tech in enumerate(columns.technologies):
            indices = np.flatnonzero(columns.tech_index == tech_position)
            if not indices.size:
                continue
            if deadline is None:
                # No deadline: one shot per technology group, the exact
                # pre-resilience path (byte-identical, zero overhead).
                chunks = (indices,)
            else:
                chunks = tuple(
                    indices[start : start + DEADLINE_CHUNK_ROWS]
                    for start in range(0, indices.size, DEADLINE_CHUNK_ROWS)
                )
            for part in chunks:
                if deadline is not None:
                    deadline.check(
                        "engine.kernel", rows_done=rows_done, rows_total=n
                    )
                batch = closed_form_batch(
                    tech, **batch_arrays_for_columns(columns, part)
                )
                trusted = batch.feasible & ~batch.needs_fallback
                keep = batch.feasible if method == "closed-form" else trusted
                kept = part[keep]
                vdd[kept] = batch.vdd[keep]
                vth[kept] = batch.vth[keep]
                pdyn[kept] = batch.pdyn[keep]
                pstat[kept] = batch.pstat[keep]
                ptot[kept] = batch.ptot[keep]
                feasible[kept] = True
                if method == "closed-form":
                    rejected = ~batch.feasible
                    rows = part[rejected]
                    texts = [
                        _closed_form_reason_values(
                            columns.arch_name[index], margin, log_argument
                        )
                        for index, margin, log_argument in zip(
                            rows.tolist(),
                            batch.margin[rejected].tolist(),
                            batch.log_argument[rejected].tolist(),
                        )
                    ]
                    add_reasons(rows, Categorical.from_values(texts))
                else:
                    flagged[part[~trusted]] = True
                _check_parity(
                    columns, batch, np.flatnonzero(trusted), part[trusted]
                )
                rows_done += int(part.size)

    if flagged.any():
        from ..solvers.batch_numerical import solve_batch

        flagged_indices = np.flatnonzero(flagged)
        if deadline is not None:
            deadline.check(
                "engine.fallback",
                rows_done=rows_done,
                rows_total=n,
                fallback_points=int(flagged_indices.size),
            )
        with timer.phase("fallback", points=int(flagged_indices.size)):
            solution = solve_batch(_fallback_task(columns, flagged_indices))
        vdd[flagged_indices] = solution.vdd
        vth[flagged_indices] = solution.vth
        pdyn[flagged_indices] = solution.pdyn
        pstat[flagged_indices] = solution.pstat
        ptot[flagged_indices] = solution.ptot
        feasible[flagged_indices] = solution.feasible
        add_reasons(flagged_indices, solution.reason)

    return ResultTable(
        {
            "architecture": columns.arch_name,
            "technology": columns.tech_name,
            "frequency": columns.frequency,
            "n_cells": columns.n_cells,
            "activity": columns.activity,
            "logical_depth": columns.logical_depth,
            "capacitance": columns.capacitance,
            "area": columns.area,
            "feasible": feasible,
            "method": Categorical(
                flagged.astype(CODE_DTYPE), (VECTORIZED_METHOD, FALLBACK_METHOD)
            ),
            "vdd": vdd,
            "vth": vth,
            "pdyn": pdyn,
            "pstat": pstat,
            "ptot": ptot,
            "reason": Categorical(reason_codes, reason_vocab),
        }
    )


def _evaluate_numerical(
    columns: ExpandedColumns, jobs: int | None = None
) -> ResultTable:
    """The scipy reference on every row, over the process pool."""
    points = [columns.design_point(index) for index in range(columns.n)]
    return ResultTable.from_solutions(
        columns, executor_module.run_numerical(points, jobs=jobs), "numerical"
    )


def _engine_solver(method: str):
    """The registry solver behind one of :data:`EVALUATION_METHODS`."""
    from ..solvers.batch import ENGINE_SOLVERS

    try:
        return ENGINE_SOLVERS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {EVALUATION_METHODS}"
        ) from None


def evaluate_table(
    scenario: Scenario,
    method: str = "auto",
    jobs: int | None = None,
    timer: "obs.PhaseTimer | None" = None,
) -> ResultTable:
    """Evaluate a scenario straight to a :class:`ResultTable`, uncached.

    ``method`` is ``"auto"``, ``"closed-form"`` or ``"numerical"``.
    Pass an :class:`~repro.obs.PhaseTimer` to collect the per-phase
    wall-time breakdown (``expand``, ``solve`` and, for ``auto`` and
    ``closed-form``, ``kernel`` and ``fallback``).
    """
    solver = _engine_solver(method)
    timer = timer if timer is not None else obs.PhaseTimer("engine")
    with timer.phase("expand"):
        columns = expand_columns(scenario)
    with timer.phase("solve", solver=solver.name):
        return solver.solve(columns, jobs=jobs)


def cache_key_payload(scenario: Scenario) -> dict[str, Any]:
    """Everything a cached sweep's numbers depend on, minus the solve path.

    Shared by this engine's cache key and :class:`repro.study.Study`'s
    registry-path key (each adds its own solve-path discriminator), so a
    future invalidation input — a new kernel threshold, a schema bump —
    is added once and moves every key.  The payload covers the sweep
    itself, the payload schema, the package version (a proxy for
    model-equation changes) and the kernel's fallback thresholds, so a
    release that moves any of them misses the old entries instead of
    serving stale results.
    """
    from .. import __version__
    from .vectorized import FALLBACK_MARGIN, FIT_RANGE_TOLERANCE, VTH_FLOOR_NUT

    return {
        "scenario": scenario.to_dict(),
        "schema": CACHE_SCHEMA_VERSION,
        "version": __version__,
        "fallback": [FALLBACK_MARGIN, FIT_RANGE_TOLERANCE, VTH_FLOOR_NUT],
    }


def _cache_key(scenario: Scenario, method: str) -> str:
    return content_hash({**cache_key_payload(scenario), "method": method})


def flight_key(
    scenario: Scenario, solver: str, options: Mapping[str, Any]
) -> str:
    """The key of one (scenario, solver, options) request.

    :func:`run` caches every solver but the engine's three under it, and
    the service and the job manager single-flight under it, so identical
    sweeps submitted as a job and posted to ``/v1/explore`` concurrently
    join one coalescer flight and cost one engine run.
    """
    return content_hash(
        {
            **cache_key_payload(scenario),
            "solver": solver,
            "options": dict(options),
        }
    )


def read_cached(
    cache: TieredCache, key: str
) -> tuple[ResultTable, EvaluationStats, bool] | None:
    """``(table, stats, parity_checked)`` stored under ``key``, or None.

    A well-formed entry that does not decode to a table and its stats
    is quarantined and reads as a miss, the same contract as a torn
    file: the caller recomputes instead of failing on it.
    """
    stored = cache.get(key)
    if stored is None:
        return None
    try:
        table = ResultTable.from_cache_payload(stored)
        stats = EvaluationStats.from_dict(stored["stats"])
    except (KeyError, ValueError, TypeError):
        cache.quarantine(key)
        return None
    return table, stats, bool(stored.get("parity_checked", False))


def write_cached(
    cache: TieredCache, key: str, payload: dict[str, Any]
) -> Path | None:
    """Store ``payload`` under ``key``; its path, or None if the write failed.

    A failed write must not fail the run: the result is already computed
    and correct, so the failure is counted in ``cache.disk.write_errors``.
    """
    try:
        return cache.put(key, payload)
    except (OSError, faults.FaultError):
        obs.inc("cache.disk.write_errors")
        return None


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def run(
    scenario: Scenario,
    solver,
    options: Mapping[str, Any] | None = None,
    jobs: int | None = None,
    cache: TieredCache | ResultCache | str | Path | None = None,
    use_cache: bool = True,
) -> ExplorationResult:
    """Solve a scenario with any registry solver, through the result cache.

    The one run path: compute the key, read the cache (a corrupt entry
    is quarantined and read as a miss), expand the grid, call
    ``solver.solve(columns, jobs=jobs, **options)``, tally the table,
    write the cache (a failed write is counted, not raised) and hand a
    large evaluation's freed heap back to the OS.  The engine's three
    solvers take no options and key on :func:`_cache_key` of their
    method, so :func:`explore` and ``Study`` share entries; every other
    solver keys on :func:`flight_key`.
    """
    from ..solvers.base import check_options
    from ..solvers.batch import EngineSolver

    options = dict(options or {})
    if isinstance(solver, EngineSolver):
        check_options(solver.name, options, ())
        method = solver.engine_method
        key = _cache_key(scenario, method)
    else:
        method = solver.name
        key = flight_key(scenario, method, options)
    parity_checked = method in ("auto", "closed-form")
    timer = obs.PhaseTimer("engine")
    with obs.span("engine.explore", method=method):
        cache = as_cache(cache)
        if use_cache:
            with timer.phase("cache_read"):
                cached = read_cached(cache, key)
            if cached is not None:
                table, stats, parity_checked = cached
                obs.inc("engine.runs", method=method, outcome="cache_hit")
                return ExplorationResult(
                    scenario=scenario,
                    method=method,
                    points=table.rows(),
                    stats=stats,
                    cache_hit=True,
                    cache_key=key,
                    cache_path=cache.path_for(key),
                    parity_checked=parity_checked,
                    table=table,
                )

        started = time.perf_counter()
        with timer.phase("expand"):
            columns = expand_columns(scenario)
        with timer.phase("solve", solver=solver.name):
            table = solver.solve(columns, jobs=jobs, **options)
        elapsed = time.perf_counter() - started

        with timer.phase("analysis"):
            stats = EvaluationStats.from_table(
                table, elapsed, phases=timer.phases
            )
        cache_path = None
        if use_cache:
            with timer.phase("cache_write"):
                cache_path = write_cached(
                    cache,
                    key,
                    {
                        "schema": CACHE_SCHEMA_VERSION,
                        "method": method,
                        "scenario": scenario.to_dict(),
                        "stats": stats.to_dict(),
                        "parity_checked": parity_checked,
                        "columns": table.columns.stored,
                    },
                )
        # The returned stats carry the complete phase map (including
        # cache_write, which the stored payload necessarily cannot).
        stats = replace(stats, phases=dict(timer.phases))
        obs.inc("engine.runs", method=method, outcome="computed")
        obs.inc("engine.points_evaluated", stats.n_candidates)
        obs.inc("engine.kernel_seconds", timer.phases.get("kernel", 0.0))
        if stats.n_fallback:
            obs.inc("engine.fallback_points", stats.n_fallback)
        if len(table) >= RELEASE_HEAP_MIN_ROWS and (trim := _malloc_trim()):
            trim(0)
        return ExplorationResult(
            scenario=scenario,
            method=method,
            points=table.rows(),
            stats=stats,
            cache_hit=False,
            cache_key=key,
            cache_path=cache_path,
            parity_checked=parity_checked,
            table=table,
        )


def explore(
    scenario: Scenario,
    method: str = "auto",
    jobs: int | None = None,
    cache: TieredCache | ResultCache | str | Path | None = None,
    use_cache: bool = True,
) -> ExplorationResult:
    """Evaluate a scenario end to end, through the tiered result cache.

    :func:`run` with the engine solver of ``method``.

    Parameters
    ----------
    scenario:
        The sweep definition.
    method:
        ``"auto"`` (default), ``"closed-form"`` or ``"numerical"``.
    jobs:
        Worker processes for the ``"numerical"`` reference method (the
        auto fallback is vectorized and needs none).
    cache:
        A :class:`~repro.service.memcache.TieredCache`, a bare
        :class:`ResultCache`, a directory for one, or None for the
        default location.  Everything but a ready-made tiered cache
        gains the process-global in-memory LRU tier, so repeated sweeps
        within one process (the CLI, a notebook, the service) skip even
        the disk read.
    use_cache:
        When False, neither reads nor writes the cache.
    """
    return run(
        scenario,
        _engine_solver(method),
        jobs=jobs,
        cache=cache,
        use_cache=use_cache,
    )
