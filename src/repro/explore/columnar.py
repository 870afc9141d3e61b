"""Structure-of-arrays results: the columnar spine of the explore engine.

Per-point objects do no arithmetic, yet a 100k-point sweep built from
them pays for one per point at every stage.  :class:`ResultTable` keeps
the whole evaluated sweep as one numpy array per ``PointResult`` column
instead, so every solver, the Pareto ranking, the cache payload and the
NDJSON stream all operate on contiguous arrays, and per-row objects are
materialised only when a caller actually indexes one
(:class:`ResultRows` is the lazy, list-compatible view).

:func:`expand_columns` is the matching front door: it materialises a
:class:`~.scenario.Scenario`'s cartesian candidate grid directly as
column arrays (``np.repeat``/``np.tile`` over the small per-axis value
lists), skipping the per-point ``DesignPoint`` list entirely on the
batch path.

Numeric record fields live in float64 columns — the type the
``PointResult`` schema declares.  Integer-typed inputs (an architecture
built with ``n_cells=608``) therefore serialise as ``608.0`` where the
pre-columnar object path leaked the ``int`` through; values are
unchanged, only the JSON spelling of integral constants moves.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from ..core.architecture import ArchitectureParameters
from ..core.technology import Technology
from .scenario import DesignPoint, Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.optimum import OptimizationResult
    from .engine import PointResult

__all__ = [
    "Categorical",
    "ExpandedColumns",
    "ResultRows",
    "ResultTable",
    "expand_columns",
]

#: String-valued ``PointResult`` columns: a handful of distinct values
#: each, so they travel as :class:`Categorical` codes from the expansion
#: to the column file (whose layout is codes plus a vocabulary too).
STRING_COLUMNS = ("architecture", "technology", "method", "reason")

CODE_DTYPE = np.dtype(np.uint32)

#: Always-present float columns (the Eq. 13 inputs plus the area proxy).
FLOAT_COLUMNS = (
    "frequency",
    "n_cells",
    "activity",
    "logical_depth",
    "capacitance",
    "area",
)

#: Operating-point columns that are ``None`` on infeasible rows; stored
#: as float64 with NaN standing in for the missing value.
OPTIONAL_FLOAT_COLUMNS = ("vdd", "vth", "pdyn", "pstat", "ptot")

BOOL_COLUMNS = ("feasible",)

#: Layout version of :meth:`ResultTable.save_npz` files.
NPZ_SCHEMA_VERSION = 1


def _record_cls() -> "type[PointResult]":
    # Late import: engine imports this module at top level, so the
    # reverse edge must resolve through sys.modules at call time.
    from .engine import PointResult

    return PointResult


def _field_names() -> tuple[str, ...]:
    return _record_cls()._FIELD_NAMES


class Categorical:
    """A string column as ``uint32`` codes into a vocabulary.

    Row ``i`` is ``vocab[codes[i]]``: an integer index gives that
    ``str``, a slice, mask or index array a ``Categorical``.  The
    vocabulary may hold unused or repeated strings (two derived
    architectures can share a name).  Nothing writes into ``codes``.
    """

    __slots__ = ("codes", "vocab")

    def __init__(self, codes: np.ndarray, vocab: Iterable[str]) -> None:
        self.codes = codes
        self.vocab = tuple(vocab)

    @classmethod
    def from_values(cls, values) -> "Categorical":
        """Factorize strings, the vocabulary in first-appearance order
        (a ``Categorical`` is returned as it is)."""
        if isinstance(values, Categorical):
            return values
        strings = values.tolist() if isinstance(values, np.ndarray) else list(values)
        vocab = tuple(dict.fromkeys(strings))
        if not all(isinstance(text, str) for text in vocab):
            raise ValueError("a string column holds non-string values")
        code = {text: index for index, text in enumerate(vocab)}
        return cls(
            np.fromiter(map(code.__getitem__, strings), CODE_DTYPE, len(strings)),
            vocab,
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        codes = self.codes[index]
        if np.ndim(codes) == 0:
            return self.vocab[codes]
        return Categorical(codes, self.vocab)

    def objects(self) -> np.ndarray:
        """The column as an object array of ``str``."""
        return np.array(self.vocab, dtype=object)[self.codes]

    def tolist(self) -> list[str]:
        return self.objects().tolist()

    def copy(self) -> "Categorical":
        return Categorical(self.codes.copy(), self.vocab)

    def canonical(self) -> "Categorical":
        """The form a column file stores: exactly :meth:`from_values` of
        this column's strings, in O(rows) numpy work."""
        n = len(self.codes)
        first = np.full(len(self.vocab), n)
        np.minimum.at(first, self.codes, np.arange(n))
        used = np.argsort(first, kind="stable")[: np.count_nonzero(first < n)]
        vocab = tuple(dict.fromkeys(self.vocab[i] for i in used.tolist()))
        if vocab == self.vocab:
            return self
        code = {text: index for index, text in enumerate(vocab)}
        remap = np.array([code.get(text, 0) for text in self.vocab], CODE_DTYPE)
        return Categorical(remap[self.codes], vocab)


class ColumnMap(Mapping):
    """``ResultTable.columns``: field name → column array, dict-like.

    ``stored``, the dict underneath, holds string columns as
    :class:`Categorical`.  Reading one stores its object array of
    ``str`` instead, so the array a caller holds is the table's truth
    for the column, as a numeric column's is.  Writers read ``stored``.
    """

    __slots__ = ("stored",)

    def __init__(self, stored: dict[str, Any]) -> None:
        self.stored = stored

    def __getitem__(self, name: str) -> np.ndarray:
        value = self.stored[name]
        if isinstance(value, Categorical):
            value = self.stored[name] = value.objects()
        return value

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.stored[name] = value

    def __contains__(self, name: object) -> bool:
        return name in self.stored

    def __iter__(self) -> Iterator[str]:
        return iter(self.stored)

    def __len__(self) -> int:
        return len(self.stored)


class ResultTable:
    """One evaluated sweep as structure-of-arrays, row-aligned.

    ``columns`` maps every ``PointResult`` field name to a numpy array
    of equal length: object arrays of ``str`` for the string columns
    (codes until read, see :class:`ColumnMap`), float64 for the numeric
    ones (NaN marking ``None`` in the optional operating-point columns)
    and bool for ``feasible``.  The table is the native output of the
    columnar engine and the native input of the analysis helpers, the
    cache payload and the NDJSON stream; :meth:`rows` provides the
    backward-compatible lazy list of ``PointResult`` views.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Mapping[str, Any]) -> None:
        names = _field_names()
        missing = sorted(set(names) - set(columns))
        if missing:
            raise ValueError(f"result table is missing columns: {missing}")
        lengths = {name: len(columns[name]) for name in names}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged result table columns: {lengths}")
        self.columns = ColumnMap({name: columns[name] for name in names})

    # -- basic container -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns["feasible"])

    @property
    def feasible(self) -> np.ndarray:
        return self.columns["feasible"]

    def column(self, name: str) -> np.ndarray:
        """A column by field name, or one of the derived analysis columns.

        ``ptot_or_inf`` (total power with +inf on infeasible rows) and
        ``area_proxy`` (layout area, falling back to the cell count)
        mirror the identically named ``PointResult`` properties.
        """
        if name == "ptot_or_inf":
            ptot = self.columns["ptot"]
            with np.errstate(invalid="ignore"):
                return np.where(np.isnan(ptot), np.inf, ptot)
        if name == "area_proxy":
            area = self.columns["area"]
            return np.where(area > 0.0, area, self.columns["n_cells"])
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"unknown result column {name!r}; known: "
                f"{', '.join(self.columns)} plus ptot_or_inf, area_proxy"
            ) from None

    # -- row views ------------------------------------------------------------
    def row(self, index: int) -> "PointResult":
        """Materialise one row as a ``PointResult`` (a fresh object per call)."""
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for {n}-row table")
        c = self.columns.stored

        def optional(name: str) -> float | None:
            value = c[name][index]
            return None if math.isnan(value) else float(value)

        return _record_cls()(
            architecture=c["architecture"][index],
            technology=c["technology"][index],
            frequency=float(c["frequency"][index]),
            n_cells=float(c["n_cells"][index]),
            activity=float(c["activity"][index]),
            logical_depth=float(c["logical_depth"][index]),
            capacitance=float(c["capacitance"][index]),
            area=float(c["area"][index]),
            feasible=bool(c["feasible"][index]),
            method=c["method"][index],
            vdd=optional("vdd"),
            vth=optional("vth"),
            pdyn=optional("pdyn"),
            pstat=optional("pstat"),
            ptot=optional("ptot"),
            reason=c["reason"][index],
        )

    def rows(self) -> "ResultRows":
        """The lazy, list-compatible sequence of per-row views."""
        return ResultRows(self)

    def take(self, indices) -> "ResultTable":
        """A new table of the selected rows (fancy-indexing every column)."""
        indices = np.asarray(indices)
        return ResultTable(
            {name: array[indices] for name, array in self.columns.stored.items()}
        )

    # -- analysis helpers ----------------------------------------------------
    @property
    def n_feasible(self) -> int:
        return int(np.count_nonzero(self.columns["feasible"]))

    def best_index(self) -> int | None:
        """Row index of the cheapest feasible candidate (None if none)."""
        ptot = self.column("ptot_or_inf")
        if not len(ptot) or not self.columns["feasible"].any():
            return None
        return int(np.argmin(ptot))

    # -- serialisation --------------------------------------------------------
    def _python_columns(self) -> dict[str, list]:
        """Every column as a plain python list, ``None`` replacing NaN."""
        out: dict[str, list] = {}
        for name in _field_names():
            array = self.columns.stored[name]
            values = array.tolist()
            if name in OPTIONAL_FLOAT_COLUMNS:
                for index in np.flatnonzero(np.isnan(array)).tolist():
                    values[index] = None
            out[name] = values
        return out

    def to_dicts(self) -> list[dict[str, Any]]:
        """One JSON-ready dict per row, keys in ``PointResult`` field order.

        Column-wise: the per-row path (materialise a ``PointResult``,
        ``getattr`` sixteen fields) costs ~10x more than zipping the
        sixteen column lists once.
        """
        names = _field_names()
        columns = self._python_columns()
        return [
            dict(zip(names, values))
            for values in zip(*(columns[name] for name in names))
        ]

    def to_payload_columns(self) -> dict[str, list]:
        """The compact columnar cache payload (field name → value list)."""
        return self._python_columns()

    def iter_ndjson_chunks(
        self, chunk_rows: int = 2048, kind: str = "record"
    ) -> Iterator[str]:
        """NDJSON record lines in multi-row chunks (no trailing newline).

        Each yielded string holds up to ``chunk_rows`` newline-joined
        ``{"kind": "record", ...}`` documents serialised straight from
        the column lists — byte-identical to ``json.dumps(record.
        to_dict(), sort_keys=True)`` per row, without materialising the
        rows.
        """
        names = _field_names()
        columns = self._python_columns()
        column_lists = [columns[name] for name in names]
        dumps = json.dumps
        n = len(self)
        for start in range(0, n, chunk_rows):
            stop = min(start + chunk_rows, n)
            rows = zip(*(values[start:stop] for values in column_lists))
            yield "\n".join(
                dumps({"kind": kind, **dict(zip(names, row))}, sort_keys=True)
                for row in rows
            )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence["PointResult"]) -> "ResultTable":
        records = list(records)
        columns: dict[str, np.ndarray] = {}
        for name in STRING_COLUMNS:
            columns[name] = Categorical.from_values(
                [getattr(r, name) for r in records]
            )
        for name in FLOAT_COLUMNS:
            columns[name] = np.array(
                [getattr(r, name) for r in records], dtype=float
            )
        for name in OPTIONAL_FLOAT_COLUMNS:
            columns[name] = np.array(
                [
                    np.nan if getattr(r, name) is None else getattr(r, name)
                    for r in records
                ],
                dtype=float,
            )
        columns["feasible"] = np.array(
            [r.feasible for r in records], dtype=bool
        )
        return cls(columns)

    @classmethod
    def from_solutions(
        cls,
        columns: "ExpandedColumns",
        solutions: Iterable[tuple["OptimizationResult | None", str]],
        method: str,
    ) -> "ResultTable":
        """One row per ``(result | None, reason)`` pair, aligned with ``columns``.

        The table of a per-point solver: a ``None`` result is an
        infeasible row carrying ``reason``; every row is tagged
        ``method``.
        """
        n = columns.n
        values = np.full((len(OPTIONAL_FLOAT_COLUMNS), n), np.nan)
        feasible = np.zeros(n, dtype=bool)
        reasons = []
        for index, (result, text) in enumerate(solutions):
            reasons.append(text)
            if result is not None:
                point = result.point
                values[:, index] = (
                    point.vdd, point.vth, point.pdyn, point.pstat, point.ptot
                )
                feasible[index] = True
        return cls(
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
                "method": Categorical(np.zeros(n, dtype=CODE_DTYPE), (method,)),
                "reason": Categorical.from_values(reasons),
                **dict(zip(OPTIONAL_FLOAT_COLUMNS, values)),
            }
        )

    @classmethod
    def from_payload_columns(cls, payload: Mapping[str, Any]) -> "ResultTable":
        """Rebuild from a field-name → values mapping, validating shape.

        The values may be arrays (a cache entry, string columns as
        :class:`Categorical`) or lists with ``None`` for missing
        operating-point values (:meth:`to_payload_columns`), which numpy
        reads as NaN under ``dtype=float``.  The table gets its own copy
        of every array: a memory-tier payload serves every later hit, so
        writing into one table must not reach it.  Raises
        ``ValueError`` on a missing column or ragged lengths so a
        corrupt cache entry surfaces as one well-typed error the engine
        can quarantine on, rather than a KeyError / broadcast error from
        deep inside numpy.
        """
        missing = [
            name for name in _field_names() if name not in payload
        ]
        if missing:
            raise ValueError(
                f"cache payload missing columns: {', '.join(missing)}"
            )
        lengths = {name: len(payload[name]) for name in _field_names()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"cache payload columns are ragged: {lengths}"
            )
        columns = {
            name: Categorical.from_values(payload[name]).copy()
            for name in STRING_COLUMNS
        }
        for name in FLOAT_COLUMNS + OPTIONAL_FLOAT_COLUMNS:
            columns[name] = np.array(payload[name], dtype=float)
        columns["feasible"] = np.array(payload["feasible"], dtype=bool)
        return cls(columns)

    @classmethod
    def from_cache_payload(cls, payload: Mapping[str, Any]) -> "ResultTable":
        """Rebuild a table from a cache entry or a job result payload.

        Both store ``"columns"`` (one array per field); a payload without
        them raises :class:`KeyError`, which the cache readers treat as
        a corrupt entry.
        """
        return cls.from_payload_columns(payload["columns"])

    def save_npz(self, path) -> "Path":
        """Write the table to one compressed ``.npz``, column per entry.

        The binary twin of :meth:`to_payload_columns`: no JSON encode
        cost, floats stay bit-exact (NaN marks infeasible), strings are
        stored as fixed-width unicode arrays.  A ``__schema__`` entry
        versions the layout for :meth:`load_npz`.
        """
        from pathlib import Path

        path = Path(path)
        arrays: dict[str, np.ndarray] = {
            name: np.asarray(self.columns[name], dtype=np.str_)
            for name in STRING_COLUMNS
        }
        for name in FLOAT_COLUMNS + OPTIONAL_FLOAT_COLUMNS + BOOL_COLUMNS:
            arrays[name] = self.columns[name]
        np.savez_compressed(
            path, __schema__=np.int64(NPZ_SCHEMA_VERSION), **arrays
        )
        return path

    @classmethod
    def load_npz(cls, path) -> "ResultTable":
        """Round-trip partner of :meth:`save_npz` (bit-exact floats)."""
        from pathlib import Path

        with np.load(Path(path)) as data:
            if "__schema__" not in data:
                raise ValueError(
                    f"{path}: not a ResultTable npz (missing __schema__)"
                )
            if int(data["__schema__"]) != NPZ_SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: unsupported ResultTable npz schema "
                    f"{int(data['__schema__'])} (expected {NPZ_SCHEMA_VERSION})"
                )
            missing = [
                name
                for name in STRING_COLUMNS
                + FLOAT_COLUMNS
                + OPTIONAL_FLOAT_COLUMNS
                + BOOL_COLUMNS
                if name not in data
            ]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}")
            columns: dict[str, Any] = {
                name: Categorical.from_values(data[name])
                for name in STRING_COLUMNS
            }
            for name in FLOAT_COLUMNS + OPTIONAL_FLOAT_COLUMNS:
                columns[name] = np.asarray(data[name], dtype=float)
            columns["feasible"] = np.asarray(data["feasible"], dtype=bool)
        return cls(columns)


class ResultRows(Sequence):
    """Lazy list of ``PointResult`` views over a :class:`ResultTable`.

    Indexing materialises one row and memoises it, so repeated access
    to the same index returns the same object (list-identity semantics
    for consumers that compare rows by ``is``); untouched rows cost
    nothing.  Equality compares by value against other row views and
    plain lists, so ``result.points == cached.points`` keeps working
    across the columnar rewrite.
    """

    __slots__ = ("table", "_materialised")

    def __init__(self, table: ResultTable) -> None:
        self.table = table
        self._materialised: list | None = None

    def __len__(self) -> int:
        return len(self.table)

    def _row(self, index: int) -> "PointResult":
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for {n}-row view")
        if self._materialised is None:
            self._materialised = [None] * n
        row = self._materialised[index]
        if row is None:
            row = self.table.row(index)
            self._materialised[index] = row
        return row

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        return self._row(index)

    def __iter__(self) -> Iterator["PointResult"]:
        return (self._row(i) for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultRows):
            if other.table is self.table:
                return True
            other = list(other)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable-backed, list-like: unhashable on purpose

    def __repr__(self) -> str:
        return f"ResultRows({len(self)} rows)"


@dataclass(frozen=True)
class ExpandedColumns:
    """A scenario's candidate grid as column arrays, expansion-ordered.

    ``arch_index``/``tech_index`` point into the (small) derived
    architecture and technology tuples, and are the codes of the
    ``arch_name``/``tech_name`` columns; every per-point model input is
    pre-broadcast to one flat float array so the batch kernel and the
    fallback solver index straight into them.  Row ``i`` corresponds
    exactly to ``scenario.expand()[i]``.
    """

    architectures: tuple[ArchitectureParameters, ...]
    technologies: tuple[Technology, ...]
    arch_index: np.ndarray
    tech_index: np.ndarray
    arch_name: Categorical
    tech_name: Categorical
    frequency: np.ndarray
    n_cells: np.ndarray
    activity: np.ndarray
    logical_depth: np.ndarray
    capacitance: np.ndarray
    area: np.ndarray
    io_factor: np.ndarray
    zeta_factor: np.ndarray

    @property
    def n(self) -> int:
        return len(self.frequency)

    def design_point(self, index: int) -> DesignPoint:
        """Materialise one candidate as an object (parity checks, per-point solvers)."""
        return DesignPoint(
            architecture=self.architectures[int(self.arch_index[index])],
            technology=self.technologies[int(self.tech_index[index])],
            frequency=float(self.frequency[index]),
        )


def expand_columns(scenario: Scenario) -> ExpandedColumns:
    """Materialise a scenario's cartesian grid straight to column arrays.

    Same candidate order as :meth:`Scenario.expand` (architecture-major,
    then technology, then frequency) without building the per-point
    object list: each per-architecture scalar is repeated over the
    technology × frequency block, the frequency grid is tiled across
    the rest.
    """
    architectures = tuple(scenario.derived_architectures())
    technologies = tuple(scenario.technologies)
    frequencies = np.array(tuple(scenario.frequencies), dtype=float)
    n_arch, n_tech, n_freq = (
        len(architectures),
        len(technologies),
        len(frequencies),
    )
    block = n_tech * n_freq

    def per_architecture(attribute: str) -> np.ndarray:
        values = np.array(
            [getattr(arch, attribute) for arch in architectures], dtype=float
        )
        return np.repeat(values, block)

    arch_index = np.repeat(np.arange(n_arch, dtype=CODE_DTYPE), block)
    tech_index = np.tile(
        np.repeat(np.arange(n_tech, dtype=CODE_DTYPE), n_freq), n_arch
    )
    return ExpandedColumns(
        architectures=architectures,
        technologies=technologies,
        arch_index=arch_index,
        tech_index=tech_index,
        arch_name=Categorical(arch_index, [arch.name for arch in architectures]),
        tech_name=Categorical(tech_index, [tech.name for tech in technologies]),
        frequency=np.tile(frequencies, n_arch * n_tech),
        n_cells=per_architecture("n_cells"),
        activity=per_architecture("activity"),
        logical_depth=per_architecture("logical_depth"),
        capacitance=per_architecture("capacitance"),
        area=per_architecture("area"),
        io_factor=per_architecture("io_factor"),
        zeta_factor=per_architecture("zeta_factor"),
    )
