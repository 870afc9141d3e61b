"""Deterministic scenario sharding and columnar shard merging.

A :class:`~repro.explore.scenario.Scenario` is a cartesian product
(derived architectures × technologies × frequencies), so it splits into
sub-scenarios along one axis without changing a single candidate:
:func:`shard_scenario` cuts the derived-architecture axis when it is
wide enough, the frequency axis otherwise, and returns :class:`Shard`
objects that each carry a fully formed sub-``Scenario`` plus the global
row indices its expansion occupies in the parent sweep.

Because every shard *is* a Scenario, a shard evaluated through
:func:`repro.explore.engine.explore` is keyed by its own content hash in
the shared result cache — re-submitting a job (or resuming one after a
crash) re-reads finished shards instead of recomputing them, which is
what makes jobs exactly-once per shard.

:func:`merge_tables` is the reduce step: scatter the shard
:class:`~repro.explore.columnar.ResultTable` columns back into parent
row order, string columns as codes into the union of the shards'
vocabularies.  The merged table is row-for-row identical to the unsharded
run — same arithmetic on the same rows, only grouped differently — and
:func:`merge_stats` aggregates the per-shard ``EvaluationStats``
(counters summed, phase wall-times summed) to match.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ..explore.engine import EvaluationStats
from ..explore.columnar import STRING_COLUMNS, Categorical, ResultTable
from ..explore.scenario import Scenario

__all__ = ["Shard", "merge_stats", "merge_tables", "shard_scenario"]

#: Default upper bound on shards per job when the caller does not pick a
#: count: enough to feed a few worker threads without slicing a small
#: sweep into confetti.
DEFAULT_MAX_SHARDS = 8


@dataclass(frozen=True)
class Shard:
    """One slice of a sharded sweep.

    ``scenario`` expands to exactly the parent rows listed (in order) by
    ``row_indices``; ``key`` is the slice's own content hash — the same
    hash the engine's result cache computes, so one shard maps to one
    cache entry.
    """

    index: int
    count: int
    scenario: Scenario
    row_indices: np.ndarray

    @property
    def n(self) -> int:
        return len(self.row_indices)

    @property
    def key(self) -> str:
        return self.scenario.content_hash()

    def describe(self) -> str:
        return (
            f"shard {self.index + 1}/{self.count}: "
            f"{self.n} rows of {self.scenario.name!r}"
        )


def _shard_name(scenario: Scenario, index: int, count: int) -> str:
    return f"{scenario.name}::shard-{index + 1}-of-{count}"


def shard_scenario(scenario: Scenario, n_shards: int | None = None) -> list[Shard]:
    """Split a scenario into ``n_shards`` deterministic sub-scenarios.

    The split is a pure function of ``(scenario, n_shards)``: the
    derived-architecture axis is cut into contiguous runs when it has at
    least ``n_shards`` entries (each shard's rows are then one
    contiguous parent block), otherwise the frequency grid is cut and
    each shard's rows interleave with the others by frequency position.
    Either way shard ``i`` expands to exactly ``row_indices[i]`` of the
    parent expansion, shard sizes differ by at most one axis unit, and
    the requested count is clamped to what the axes can support (a
    single-point scenario yields one shard).  A single shard is the
    scenario itself, so it shares the unsharded run's cache entry.
    """
    if n_shards is None:
        n_shards = DEFAULT_MAX_SHARDS
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    derived = tuple(scenario.derived_architectures())
    n_arch = len(derived)
    n_tech = len(scenario.technologies)
    frequencies = tuple(scenario.frequencies)
    n_freq = len(frequencies)
    count = max(1, min(n_shards, max(n_arch, n_freq)))
    if count == 1:
        return [
            Shard(
                index=0,
                count=1,
                scenario=scenario,
                row_indices=np.arange(scenario.size),
            )
        ]

    # Transform chains are folded into the derived architectures so each
    # sub-scenario is identity-chained; the parent expansion order
    # (derived-arch major, then technology, then frequency) is exactly
    # the order these sub-scenarios reproduce.
    shards: list[Shard] = []
    if n_arch >= count:
        block = n_tech * n_freq
        for index, split in enumerate(np.array_split(np.arange(n_arch), count)):
            lo, hi = int(split[0]), int(split[-1]) + 1
            sub = Scenario(
                name=_shard_name(scenario, index, count),
                description=scenario.description,
                architectures=derived[lo:hi],
                technologies=scenario.technologies,
                frequencies=scenario.frequencies,
                transform_chains=((),),
            )
            shards.append(
                Shard(
                    index=index,
                    count=count,
                    scenario=sub,
                    row_indices=np.arange(lo * block, hi * block),
                )
            )
        return shards

    flat = np.arange(n_arch * n_tech) * n_freq
    for index, split in enumerate(np.array_split(np.arange(n_freq), count)):
        lo, hi = int(split[0]), int(split[-1]) + 1
        sub = Scenario(
            name=_shard_name(scenario, index, count),
            description=scenario.description,
            architectures=derived,
            technologies=scenario.technologies,
            frequencies=replace(
                scenario.frequencies, values=frequencies[lo:hi]
            ),
            transform_chains=((),),
        )
        indices = (flat[:, None] + np.arange(lo, hi)[None, :]).ravel()
        shards.append(
            Shard(index=index, count=count, scenario=sub, row_indices=indices)
        )
    return shards


def merge_tables(
    tables: Sequence[ResultTable | Shard | tuple[Shard, ResultTable]],
    indices: Sequence[np.ndarray] | None = None,
) -> ResultTable:
    """Concatenate columnar shard tables back into parent row order.

    ``tables`` is the per-shard :class:`ResultTable` list (or
    ``(Shard, table)`` pairs, in which case the shard row indices are
    used automatically).  Without ``indices`` the tables are stacked in
    the given order; with ``indices`` (one global-row array per table)
    every column is scattered into its parent position, so any sharding
    scheme — contiguous blocks or frequency interleaves — merges to the
    exact unsharded layout.
    """
    pairs: list[tuple[np.ndarray | None, ResultTable]] = []
    for position, item in enumerate(tables):
        if isinstance(item, tuple):
            shard, table = item
            pairs.append((shard.row_indices, table))
        else:
            rows = None if indices is None else np.asarray(indices[position])
            pairs.append((rows, item))
    if not pairs:
        raise ValueError("merge_tables needs at least one shard table")

    shard_tables = [table for _, table in pairs]
    if all(rows is None for rows, _ in pairs):
        return ResultTable(
            {
                name: _merge_column(shard_tables, name, np.concatenate)
                for name in shard_tables[0].columns
            }
        )
    if any(rows is None for rows, _ in pairs):
        raise ValueError(
            "merge_tables needs row indices for every shard or for none"
        )

    total = sum(len(table) for _, table in pairs)
    for rows, table in pairs:
        if len(rows) != len(table):
            raise ValueError(
                f"shard of {len(table)} rows carries {len(rows)} row indices"
            )
    seen = np.zeros(total, dtype=bool)
    for rows, _ in pairs:
        if rows.size and (rows.min() < 0 or rows.max() >= total):
            raise ValueError(
                f"shard row indices out of range for {total} merged rows"
            )
        seen[rows] = True
    if not seen.all():
        raise ValueError("shard row indices do not cover the merged table")

    def scatter(parts: list[np.ndarray]) -> np.ndarray:
        out = np.empty(total, dtype=parts[0].dtype)
        for (rows, _), part in zip(pairs, parts):
            out[rows] = part
        return out

    return ResultTable(
        {
            name: _merge_column(shard_tables, name, scatter)
            for name in shard_tables[0].columns
        }
    )


def _merge_column(tables: list[ResultTable], name: str, combine):
    """``combine`` of the tables' ``name`` columns; string columns as
    codes into the tables' vocabularies laid end to end."""
    if name not in STRING_COLUMNS:
        return combine([table.columns[name] for table in tables])
    parts, vocab = [], ()
    for table in tables:
        part = Categorical.from_values(table.columns.stored[name])
        parts.append(part.codes + len(vocab))
        vocab += part.vocab
    return Categorical(combine(parts), vocab)


def merge_stats(
    stats: Iterable[EvaluationStats],
    elapsed_seconds: float | None = None,
) -> EvaluationStats:
    """Aggregate per-shard stats into one sweep-level tally.

    Counters sum; ``phases`` sums per phase name (total engine seconds
    spent in each phase across all shards — with parallel shards this
    exceeds the job's wall time on purpose, the same way CPU seconds
    do).  ``elapsed_seconds`` defaults to the shard sum; pass the job's
    measured wall time for a true end-to-end figure.
    """
    stats = list(stats)
    if not stats:
        raise ValueError("merge_stats needs at least one shard's stats")
    phases: dict[str, float] = {}
    for entry in stats:
        for name, seconds in entry.phases.items():
            phases[name] = phases.get(name, 0.0) + seconds
    return EvaluationStats(
        n_candidates=sum(s.n_candidates for s in stats),
        n_feasible=sum(s.n_feasible for s in stats),
        n_vectorized=sum(s.n_vectorized for s in stats),
        n_fallback=sum(s.n_fallback for s in stats),
        elapsed_seconds=(
            sum(s.elapsed_seconds for s in stats)
            if elapsed_seconds is None
            else elapsed_seconds
        ),
        phases=phases,
    )
