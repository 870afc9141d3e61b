"""repro — reproduction of Schuster et al., DATE 2006.

*Architectural and Technology Influence on the Optimal Total Power
Consumption.*

The library answers one question in many ways: **given a circuit that must
run at frequency f, what supply/threshold pair minimises its total
(dynamic + static) power, and how do architecture and technology choices
move that minimum?**

The one public door to that question is :class:`Study` — a fluent
builder that compiles to an exploration scenario, dispatches through the
solver registry (``"auto"`` rides the vectorized Eq. 9–13 kernel with
exact-numerical fallback), and returns a uniform :class:`ResultSet`::

    from repro import ArchitectureParameters, Study

    wallace = ArchitectureParameters(
        name="wallace16", n_cells=729, activity=0.2976,
        logical_depth=17, capacitance=70e-15,
        io_factor=18.0, zeta_factor=0.2,
    )
    answer = (
        Study("quickstart")
        .architectures(wallace)
        .technologies("ULL", "LL", "HS")
        .frequencies(31.25e6)
        .run()
    )
    print(answer.best().describe())
    print(answer.table(top=5))

Swap ``.solver("numerical")`` for the exact scipy reference,
``.solver("bounded", vth_max=0.45)`` for practical voltage caps, or
``.frequency_range(2e6, 64e6, 42)`` + ``.transforms(...)`` +
``.cached()`` for a thousand-candidate cached sweep — same four lines.
The scalar entry points (``numerical_optimum``, ``closed_form_optimum``,
``evaluate_candidates``, …) remain available for paper-fidelity work and
as the numerics underneath the solvers.

Sub-packages
------------
``repro.core``
    The paper's analytical model (Eqs. 1–13), numerical reference
    optimiser, architecture transforms, selection shims and sensitivity
    tools.
``repro.catalog``
    The unified model catalog: five namespaces (technology,
    architecture, solver, transform, generator) behind one registry API
    with provenance metadata and JSON/TOML plugin packs, so user-defined
    entities are addressable by name everywhere objects are.
``repro.solvers``
    The :class:`Solver` protocol and registry unifying the five solve
    paths (closed form, linearized, numerical, vectorized, bounded) plus
    the ``"auto"`` policy behind one signature.
``repro.explore``
    Design-space exploration engine: declarative scenarios, vectorized
    Eq. 13 batch evaluation, parallel exact-numerical fallback, result
    caching and Pareto analysis.
``repro.netlist`` / ``repro.generators``
    Standard-cell library, netlist graphs and structural generators for
    the paper's thirteen 16-bit multipliers.
``repro.sim`` / ``repro.sta``
    Event-driven gate-level timing simulation (activity and glitch
    extraction) and static timing analysis (logical depth).
``repro.characterization``
    Synthetic-SPICE technology characterisation (Io, ζ, α, n fits).
``repro.experiments``
    Regeneration of every table and figure of the paper (all through
    ``Study`` batches).
"""

from importlib import metadata as _metadata

#: Fallback for source checkouts that were never pip-installed (the
#: tier-1 ``PYTHONPATH=src`` workflow); keep in sync with pyproject.toml.
_FALLBACK_VERSION = "1.10.0"

try:  # installed: the single source of truth is the package metadata
    __version__ = _metadata.version("repro")
except _metadata.PackageNotFoundError:  # pragma: no cover - env-dependent
    __version__ = _FALLBACK_VERSION

from .core import *  # noqa: F401,F403,E402 -- the core namespace is the public API
from .core import __all__ as _core_all  # noqa: E402
from .core import _SELECTION_EXPORTS  # noqa: E402

# The model catalog: one registry for technologies, architectures,
# solvers, transforms and generators, plus the plugin-pack loader.
from . import catalog  # noqa: F401,E402

# Telemetry (spans, metrics, exporters) — stdlib-only, no-op until
# enabled via repro.obs.enable() / REPRO_TELEMETRY=1 / --profile.
from . import obs  # noqa: F401,E402
from .catalog import default_catalog, load_pack  # noqa: E402

# NOTE: the name ``explore`` is intentionally *not* from-imported: the
# subpackage module is callable (see repro/explore/__init__.py), so
# ``from repro import explore; explore(scenario)`` works while
# ``repro.explore.Scenario`` keeps normal module semantics.
from . import explore  # noqa: F401,E402
from .explore import (  # noqa: E402
    ExplorationResult,
    FrequencyGrid,
    Scenario,
    TransformStep,
    demo_scenario,
    pareto_frontier,
)
# The cache tiers are light (stdlib + explore.cache) and load eagerly;
# ServiceClient would drag in the whole HTTP server/client stack, so it
# resolves lazily below (PEP 562) — `from repro import ServiceClient`
# still works, but `import repro` alone stays service-free.
from .service import MemoryCache, TieredCache  # noqa: E402
from .solvers import (  # noqa: E402
    Solver,
    SolverError,
    available_solvers,
    get_solver,
    register_solver,
)
from .study import Record, ResultSet, Study  # noqa: E402

# NOTE: the deprecated selection shims (_SELECTION_EXPORTS) resolve via
# __getattr__ but stay out of __all__ on purpose: `from repro import *`
# must not import the deprecated module (or trip its DeprecationWarning).
__all__ = list(_core_all) + [
    "ExplorationResult",
    "FrequencyGrid",
    "MemoryCache",
    "Record",
    "ResultSet",
    "Scenario",
    "ServiceClient",
    "Solver",
    "SolverError",
    "Study",
    "TieredCache",
    "TransformStep",
    "available_solvers",
    "catalog",
    "default_catalog",
    "demo_scenario",
    "explore",
    "get_solver",
    "load_pack",
    "obs",
    "pareto_frontier",
    "register_solver",
    "__version__",
]


def __getattr__(name: str):
    if name == "ServiceClient":
        from .service.client import ServiceClient

        return ServiceClient
    if name in _SELECTION_EXPORTS:
        # Deprecated selection shims: resolved lazily so the module-
        # level DeprecationWarning in repro.core.selection fires only
        # for actual users of the old API.
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
