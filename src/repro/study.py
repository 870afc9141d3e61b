"""The :class:`Study` facade — one entry point for every power question.

The paper's methodology is a single question asked many ways: *which
(architecture, technology, Vdd, Vth) minimises total power at frequency
f?*  ``Study`` is the one public door to all of them.  A fluent builder
compiles to an explore :class:`~repro.explore.scenario.Scenario` under
the hood, runs it through the engine's one run path with a solver from
the :mod:`repro.solvers` registry (the ``"auto"`` default rides the
vectorized kernel with exact-numerical fallback), and every run returns
one typed :class:`ResultSet` of uniform records.

Quick start::

    from repro import Study

    answer = (
        Study("which-flavour")
        .architectures(wallace)
        .technologies("ULL", "LL", "HS")
        .frequencies(31.25e6)
        .solver("auto")
        .run()
    )
    print(answer.best().describe())
    print(answer.table(top=5))

Scaling up is the same code: add ``.frequency_range(...)``,
``.transforms(...)`` and ``.cached()`` and the identical pipeline sweeps
thousands of candidates through the batch kernel with content-hash
result caching.
"""

from __future__ import annotations

import csv
import io
import json
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import obs
from .core.architecture import ArchitectureParameters
from .core.technology import Technology, flavour
from .explore.analysis import (
    DEFAULT_OBJECTIVES,
    pareto_frontier,
    rank_points,
    report,
)
from .explore.cache import ResultCache
from .explore.columnar import ResultRows, ResultTable
from .service.memcache import TieredCache
from .explore.engine import EvaluationStats, PointResult
from .explore.engine import run as run_solver
from .explore.scenario import FrequencyGrid, Scenario, TransformStep
from .solvers import Solver, get_solver

__all__ = ["Record", "ResultSet", "Study"]

#: The uniform record type every Study run yields: one flat, JSON-ready
#: row per candidate with architecture / technology / frequency / Vdd /
#: Vth / Pdyn / Pstat / Ptot / feasibility / method / reason.
Record = PointResult


@dataclass(frozen=True)
class ResultSet:
    """Evaluated candidates plus provenance, with analysis built in.

    The record list is aligned with ``scenario.expand()`` order.  For
    engine-backed runs it is a lazy :class:`~repro.explore.columnar.
    ResultRows` view over the columnar ``ResultTable`` — list-compatible
    (indexing, iteration, equality) but materialising a ``Record`` only
    where one is actually read, while serialisation and the analysis
    fast paths use the backing column arrays directly.  All derived
    views (:meth:`feasible`, :meth:`rank`, :meth:`pareto`) return new
    ``ResultSet`` instances over a plain-list subset of the records, so
    the analysis methods compose: ``study.run().pareto().table()``.
    """

    records: Sequence[Record]
    solver: str
    scenario: Scenario | None = None
    stats: EvaluationStats | None = None
    cache_hit: bool = False
    cache_key: str = ""
    cache_path: Path | None = None
    #: True when the set covers only the shards of a job that survived
    #: (some shards were poisoned); rows present are still exact.
    partial: bool = False

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def _subset(self, records: Sequence[Record]) -> "ResultSet":
        return replace(self, records=list(records))

    @property
    def _table(self) -> "ResultTable | None":
        """The columnar table behind the records, if they are a lazy view."""
        records = self.records
        return records.table if isinstance(records, ResultRows) else None

    # -- analysis -----------------------------------------------------------
    @property
    def n_feasible(self) -> int:
        table = self._table
        if table is not None:
            return table.n_feasible
        return sum(1 for record in self.records if record.feasible)

    def feasible(self) -> "ResultSet":
        """Only the candidates that close timing."""
        return self._subset([r for r in self.records if r.feasible])

    def infeasible(self) -> "ResultSet":
        """Only the candidates that cannot close timing (with reasons)."""
        return self._subset([r for r in self.records if not r.feasible])

    def filter(self, predicate: Callable[[Record], bool]) -> "ResultSet":
        """Records satisfying an arbitrary predicate."""
        return self._subset([r for r in self.records if predicate(r)])

    def best(self) -> Record | None:
        """Cheapest feasible candidate, or None when nothing is feasible."""
        table = self._table
        if table is not None:
            index = table.best_index()
            return None if index is None else table.row(index)
        candidates = [r for r in self.records if r.feasible]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.ptot_or_inf)

    def rank(self, key: Callable[[Record], float] | None = None) -> "ResultSet":
        """Candidates sorted cheapest-first; infeasible ones last."""
        return self._subset(rank_points(self.records, key=key))

    def pareto(
        self,
        objectives: Sequence[tuple[str, str]] = DEFAULT_OBJECTIVES,
    ) -> "ResultSet":
        """The non-dominated feasible candidates, cheapest-first.

        Default objectives: optimal power ↓, frequency ↑, area proxy ↓ —
        the same frontier PR 1's explore reports mark.
        """
        return self._subset(pareto_frontier(self.records, objectives))

    # -- serialisation ------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        """One plain dict per record (JSON-ready).

        Table-backed result sets serialise column-wise (zip sixteen
        lists once) instead of materialising and introspecting every
        record object.
        """
        table = self._table
        if table is not None:
            return table.to_dicts()
        return [record.to_dict() for record in self.records]

    def to_payload(self, coalesced: bool = False) -> dict[str, Any]:
        """The result payload: provenance fields plus ``"columns"``.

        The one machine form of a result.  A job's result file and the
        service's binary answer are this payload as a column file; the
        JSON and NDJSON answers carry its fields with per-row records in
        place of ``"columns"``.  :meth:`from_payload` inverts it.  Only a
        table-backed set (every engine, registry and job run) has one.
        """
        table = self._table
        if table is None:
            raise ValueError("only a table-backed ResultSet has a payload")
        payload: dict[str, Any] = {
            "solver": self.solver,
            "n_records": len(table),
            "coalesced": coalesced,
            "cache": {"hit": self.cache_hit, "key": self.cache_key},
        }
        if self.partial:
            payload["partial"] = True
        if self.scenario is not None:
            payload["scenario"] = self.scenario.to_dict()
        if self.stats is not None:
            payload["stats"] = self.stats.to_dict()
        payload["columns"] = table.columns
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ResultSet":
        """The table-backed set a :meth:`to_payload` dict describes.

        A payload without ``"columns"`` raises ``KeyError``; missing or
        ragged columns raise ``ValueError``.
        """
        table = ResultTable.from_cache_payload(payload)
        stats = payload.get("stats")
        cache = payload.get("cache", {})
        return cls(
            records=table.rows(),
            solver=str(payload.get("solver", "")),
            scenario=Scenario.from_dict(payload["scenario"])
            if "scenario" in payload
            else None,
            stats=EvaluationStats.from_dict(stats) if stats else None,
            cache_hit=bool(cache.get("hit", False)),
            cache_key=str(cache.get("key", "")),
            partial=bool(payload.get("partial", False)),
        )

    def to_json(self, indent: int | None = 2) -> str:
        """The whole result set — records plus provenance — as JSON."""
        payload: dict[str, Any] = {
            "solver": self.solver,
            "records": self.to_dicts(),
        }
        if self.scenario is not None:
            payload["scenario"] = self.scenario.to_dict()
        if self.stats is not None:
            payload["stats"] = self.stats.to_dict()
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """The records as CSV (header + one row per candidate)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(Record._FIELD_NAMES))
        writer.writeheader()
        writer.writerows(self.to_dicts())
        return buffer.getvalue()

    def table(
        self,
        top: int = 15,
        objectives: Sequence[tuple[str, str]] = DEFAULT_OBJECTIVES,
    ) -> str:
        """Fixed-width ranking table with Pareto marks (explore's report)."""
        return report(self.records, top=top, objectives=objectives)

    def describe(self) -> str:
        """Provenance + stats + winner, one line each."""
        name = self.scenario.name if self.scenario is not None else "ad hoc"
        source = "cache hit" if self.cache_hit else "evaluated"
        lines = [f"scenario {name!r} [{self.solver}] — {source}"]
        if self.stats is not None:
            lines.append(f"  {self.stats.describe()}")
        best = self.best()
        if best is not None:
            lines.append(f"  best: {best.describe()}")
        return "\n".join(lines)


#: Process-global manager backing ``Study.submit()`` when the caller
#: does not pass one (shared queue, shared pool — same idea as the
#: process-global memory cache tier).
_JOB_MANAGER = None
_JOB_MANAGER_LOCK = threading.Lock()


def _default_job_manager():
    global _JOB_MANAGER
    with _JOB_MANAGER_LOCK:
        if _JOB_MANAGER is None:
            from .jobs.manager import JobManager

            _JOB_MANAGER = JobManager()
        return _JOB_MANAGER


def _as_architecture(spec: Any) -> ArchitectureParameters:
    if isinstance(spec, ArchitectureParameters):
        return spec
    if isinstance(spec, str):
        from .catalog import default_catalog

        return default_catalog().architectures.get(spec)
    if isinstance(spec, Mapping):
        return ArchitectureParameters(**spec)
    raise TypeError(
        f"expected ArchitectureParameters, a catalog name or a field "
        f"mapping, got {spec!r}"
    )


def _as_technology(spec: Any) -> Technology:
    if isinstance(spec, Technology):
        return spec
    if isinstance(spec, str):
        return flavour(spec)
    raise TypeError(
        f"expected Technology or a catalog name ('LL', 'HS', 'ULL', or "
        f"any registered technology), got {spec!r}"
    )


def _as_chain(spec: Any) -> tuple[TransformStep, ...]:
    if isinstance(spec, TransformStep):
        return (spec,)
    return tuple(spec)


class Study:
    """Fluent builder for power-optimisation studies.

    Every configuration method mutates the builder and returns ``self``
    so calls chain; :meth:`run` compiles the builder to a
    :class:`Scenario`, dispatches it through the named solver, and
    returns a :class:`ResultSet`.  A ``Study`` can be re-run (e.g. with
    a different solver) — :meth:`solver` and friends may be called
    between runs.
    """

    def __init__(self, name: str = "study") -> None:
        self._name = name
        self._description = ""
        self._architectures: list[ArchitectureParameters] = []
        self._technologies: list[Technology] = []
        self._frequencies: FrequencyGrid | None = None
        self._transform_chains: list[tuple[TransformStep, ...]] = []
        self._solver: str | Solver = "auto"
        self._solver_options: dict[str, Any] = {}
        self._jobs: int | None = None
        self._use_cache = False
        self._cache: TieredCache | ResultCache | str | Path | None = None
        self._scenario: Scenario | None = None

    # -- problem definition -------------------------------------------------
    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "Study":
        """Wrap an existing explore scenario (e.g. loaded from JSON).

        A wrapped scenario is taken as-is: the problem-definition
        builder methods (``architectures`` … ``described_as``) raise on
        such a study instead of silently discarding or ignoring parts of
        it — edit the :class:`Scenario` (``dataclasses.replace``) and
        re-wrap to change the problem.  Execution policy
        (:meth:`solver`, :meth:`jobs`, :meth:`cached`) stays
        configurable.
        """
        study = cls(scenario.name)
        study._scenario = scenario
        return study

    def _require_builder(self, method: str) -> None:
        if self._scenario is not None:
            raise ValueError(
                f"study {self._name!r} wraps an existing Scenario; "
                f".{method}(...) would silently conflict with it — edit "
                f"the Scenario (dataclasses.replace) and re-wrap instead"
            )

    def described_as(self, description: str) -> "Study":
        """Attach a human-readable description to the compiled scenario."""
        self._require_builder("described_as")
        self._description = description
        return self

    def architectures(self, *specs) -> "Study":
        """Add candidate architectures.

        Each spec is an :class:`ArchitectureParameters`, a field
        mapping, or a bare catalog name (builtin demo entries and
        pack-defined architectures alike).
        """
        self._require_builder("architectures")
        self._architectures.extend(_as_architecture(spec) for spec in specs)
        return self

    def technologies(self, *specs) -> "Study":
        """Add candidate technologies (objects or catalog names/aliases)."""
        self._require_builder("technologies")
        self._technologies.extend(_as_technology(spec) for spec in specs)
        return self

    def frequencies(self, *values) -> "Study":
        """Set the frequency grid: floats [Hz] or one :class:`FrequencyGrid`."""
        self._require_builder("frequencies")
        if len(values) == 1 and isinstance(values[0], FrequencyGrid):
            self._frequencies = values[0]
        else:
            self._frequencies = FrequencyGrid(
                tuple(float(value) for value in values)
            )
        return self

    def frequency_range(
        self, start: float, stop: float, points: int, spacing: str = "log"
    ) -> "Study":
        """Set a ``points``-long log or linear frequency grid [Hz]."""
        self._require_builder("frequency_range")
        if spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")
        maker = (
            FrequencyGrid.logspace if spacing == "log" else FrequencyGrid.linear
        )
        self._frequencies = maker(start, stop, points)
        return self

    def transforms(self, *chains) -> "Study":
        """Add Section 4 transform chains applied to every architecture.

        Each chain is a :class:`TransformStep` or a sequence of them; the
        identity chain ``()`` is always evaluated unless you pass only
        non-empty chains and want it gone — include ``()`` explicitly to
        keep the untransformed bases in the sweep.
        """
        self._require_builder("transforms")
        self._transform_chains.extend(_as_chain(chain) for chain in chains)
        return self

    # -- execution policy ---------------------------------------------------
    def solver(self, name: str | Solver, **options) -> "Study":
        """Pick the solve path by registry name (default ``"auto"``).

        ``options`` are forwarded to the solver on every run, e.g.
        ``.solver("bounded", vth_max=0.45)``.
        """
        get_solver(name)  # fail fast on typos, at build time
        self._solver = name
        self._solver_options = dict(options)
        return self

    def jobs(self, jobs: int | None) -> "Study":
        """Worker processes for exact-numerical points (None = all CPUs)."""
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self._jobs = jobs
        return self

    def cached(
        self,
        cache: TieredCache | ResultCache | str | Path | None = None,
        enabled: bool = True,
    ) -> "Study":
        """Read/write the tiered content-hash result cache on :meth:`run`.

        ``cache`` is a :class:`~repro.service.memcache.TieredCache`, a
        :class:`ResultCache`, a directory, or None for the default
        location (``$REPRO_EXPLORE_CACHE`` or ``~/.cache/repro/explore``);
        anything but a ready-made tiered cache gains the process-global
        in-memory LRU tier in front of the disk entries.
        """
        self._use_cache = enabled
        self._cache = cache
        return self

    # -- compilation + execution --------------------------------------------
    def scenario(self) -> Scenario:
        """Compile the builder to the explore scenario it will run."""
        if self._scenario is not None:
            return self._scenario
        if not self._architectures:
            raise ValueError(f"study {self._name!r} has no architectures")
        if not self._technologies:
            raise ValueError(f"study {self._name!r} has no technologies")
        if self._frequencies is None:
            raise ValueError(
                f"study {self._name!r} has no frequencies; call "
                f".frequencies(...) or .frequency_range(...)"
            )
        chains = tuple(self._transform_chains) or ((),)
        return Scenario(
            name=self._name,
            description=self._description,
            architectures=tuple(self._architectures),
            technologies=tuple(self._technologies),
            frequencies=self._frequencies,
            transform_chains=chains,
        )

    @property
    def solver_name(self) -> str:
        solver = self._solver
        return solver if isinstance(solver, str) else solver.name

    def submit(
        self, shards: int | None = None, manager: Any = None
    ) -> "Any":
        """Run this study as an async sharded job; returns an AsyncResult.

        The scenario is queued on a :class:`~repro.jobs.JobManager`
        (the process-global default when ``manager`` is None), split
        into up to ``shards`` content-hash slices and evaluated on
        background threads — ``submit().result()`` is record-for-record
        identical to :meth:`run`.  Import is deferred because the jobs
        package builds on Study.
        """
        from .jobs import AsyncResult
        from .jobs.manager import JobManager

        if manager is None:
            manager = _default_job_manager()
        elif not isinstance(manager, JobManager):
            raise TypeError(
                f"manager must be a JobManager, got {type(manager).__name__}"
            )
        record = manager.submit(
            self.scenario(),
            solver=self.solver_name,
            options=self._solver_options,
            shards=shards,
        )
        return AsyncResult(manager, record.id)

    def run(self) -> ResultSet:
        """Compile, solve, and package — the one call that does it all.

        Every solver goes through :func:`repro.explore.engine.run`, the
        path ``explore()`` takes too: the engine's solvers (``auto``,
        ``vectorized``, ``numerical``) key the cache exactly as
        ``explore()`` does, so a sweep cached through either door is a
        hit through the other; scalar and custom solvers key on
        :func:`~repro.explore.engine.flight_key`.
        """
        scenario = self.scenario()
        solver = get_solver(self._solver)
        obs.inc("solver.calls", solver=solver.name)
        with obs.span("study.run", study=self._name, solver=solver.name):
            exploration = run_solver(
                scenario,
                solver,
                self._solver_options,
                jobs=self._jobs,
                cache=self._cache,
                use_cache=self._use_cache,
            )
        return ResultSet(
            records=exploration.points,
            solver=solver.name,
            scenario=scenario,
            stats=exploration.stats,
            cache_hit=exploration.cache_hit,
            cache_key=exploration.cache_key,
            cache_path=exploration.cache_path,
        )
