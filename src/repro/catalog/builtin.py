"""Builtin catalog population: everything that ships with repro.

``register_builtins`` attaches the paper's entities to a catalog:

* the three ST CMOS09 flavours of Table 2 (``technology``, with their
  short ``LL``/``HS``/``ULL`` labels as aliases);
* the demo architecture summaries the explore scenarios use
  (``architecture``);
* the Section 4 moves (``transform``);
* the seven solve paths (``solver``);
* the thirteen Table 1 multiplier factories (``generator``).

It runs lazily — wired as a loader on the default catalog, triggered by
the first read access — so importing :mod:`repro.catalog` alone stays
cheap and free of import cycles.  Existing names are left alone: a user
entry registered before first access is never clobbered by a builtin.
"""

from __future__ import annotations

from .registry import Catalog

__all__ = ["register_builtins"]

_SOURCE_TECH = "repro.core.technology"
_SOURCE_ARCH = "repro.explore.scenario"
_SOURCE_TRANSFORMS = "repro.core.transforms"
_SOURCE_SOLVERS = "repro.solvers"
_SOURCE_GENERATORS = "repro.generators.registry"

#: Short human labels for the Table 2 flavours (alias → summary).
_TECHNOLOGY_SUMMARIES = {
    "ULL": "ST CMOS09 ultra low leakage flavour (Table 2, top row)",
    "LL": "ST CMOS09 low leakage flavour (Table 2, middle row; the default)",
    "HS": "ST CMOS09 high speed flavour (Table 2, bottom row)",
}


def _first_doc_line(obj) -> str:
    doc = (getattr(obj, "__doc__", "") or "").strip()
    return doc.splitlines()[0] if doc else ""


def _register(namespace, name, value, aliases=(), **metadata) -> None:
    """Register one builtin, never disturbing earlier user entries.

    A claimed name skips the whole entry; a claimed alias is dropped
    from the builtin registration (the entry itself still lands) —
    population must never raise, or the catalog's lazy load would fail
    on first read.
    """
    if name in namespace:
        return
    free_aliases = tuple(a for a in aliases if a not in namespace)
    namespace.register(
        name, value, provenance="builtin", aliases=free_aliases, **metadata
    )


def register_builtins(catalog: Catalog) -> None:
    """Populate every namespace of ``catalog`` with the shipped entities."""
    _register_technologies(catalog)
    _register_architectures(catalog)
    _register_transforms(catalog)
    _register_solvers(catalog)
    _register_generators(catalog)


def _register_technologies(catalog: Catalog) -> None:
    from ..core.technology import ST_CMOS09_FLAVOURS

    namespace = catalog.technologies
    for label, tech in ST_CMOS09_FLAVOURS.items():
        _register(
            namespace,
            tech.name,
            tech,
            summary=_TECHNOLOGY_SUMMARIES.get(label, ""),
            source=_SOURCE_TECH,
            aliases=(label,),
        )


def _register_architectures(catalog: Catalog) -> None:
    from ..explore.scenario import _DEMO_ARCHITECTURES

    namespace = catalog.architectures
    for arch in _DEMO_ARCHITECTURES:
        _register(
            namespace,
            arch.name,
            arch,
            summary=arch.describe(),
            source=_SOURCE_ARCH,
        )


def _register_transforms(catalog: Catalog) -> None:
    from ..core.transforms import parallelize, pipeline, sequentialize

    namespace = catalog.transforms
    for op, applier in (
        ("parallelize", parallelize),
        ("pipeline", pipeline),
        ("sequentialize", sequentialize),
    ):
        _register(
            namespace,
            op,
            applier,
            summary=_first_doc_line(applier),
            source=_SOURCE_TRANSFORMS,
        )


def _register_solvers(catalog: Catalog) -> None:
    from ..solvers import (
        AUTO_SOLVER,
        BOUNDED_SOLVER,
        CLOSED_FORM_SOLVER,
        LINEARIZED_SOLVER,
        NUMERICAL_SCALAR_SOLVER,
        NUMERICAL_SOLVER,
        VECTORIZED_SOLVER,
    )

    namespace = catalog.solvers
    for solver in (
        CLOSED_FORM_SOLVER,
        LINEARIZED_SOLVER,
        NUMERICAL_SOLVER,
        NUMERICAL_SCALAR_SOLVER,
        VECTORIZED_SOLVER,
        BOUNDED_SOLVER,
        AUTO_SOLVER,
    ):
        _register(
            namespace,
            solver.name,
            solver,
            summary=getattr(solver, "summary", ""),
            source=_SOURCE_SOLVERS,
        )


def _register_generators(catalog: Catalog) -> None:
    from functools import partial

    from ..generators.registry import MULTIPLIER_FACTORIES

    namespace = catalog.generators
    for name, factory in MULTIPLIER_FACTORIES.items():
        target = factory.func if isinstance(factory, partial) else factory
        _register(
            namespace,
            name,
            factory,
            summary=_first_doc_line(target),
            source=_SOURCE_GENERATORS,
        )
