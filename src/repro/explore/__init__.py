"""Design-space exploration engine (ROADMAP: batching, caching, scale).

The paper's Sections 4–5 methodology — evaluate the Eq. 13 closed-form
optimum for every (architecture, technology, frequency) candidate and
pick the minimum — is a *batch* problem.  This package turns the
one-at-a-time optimizer into a batch service:

``scenario``
    Declarative :class:`Scenario` sweep specification (architectures ×
    transform chains × technologies × frequency grid) with dict/JSON
    round-trip and a stable content hash.
``columnar``
    Structure-of-arrays spine: :class:`ResultTable` (one numpy array
    per result column, lazy per-row ``PointResult`` views) and the
    array-native scenario expansion the batch path runs on.
``vectorized``
    Numpy kernel evaluating the Eq. 9–13 closed-form chain over whole
    candidate grids at once — no per-point scipy calls.
``executor``
    ``multiprocessing``-based parallel runner for the ``numerical``
    reference method (one scipy call per point, on purpose); the auto
    fallback is vectorized and no longer touches it.
``cache``
    Content-hash → binary-column-file result cache; repeated sweeps are
    free.
``engine``
    Orchestration: the one run path every registry solver goes through
    (key, cache read, expand, ``solver.solve(columns)``, tally, cache
    write), and the auto/closed-form/numerical methods behind it.
``analysis``
    Pareto frontier over (power, frequency, area-proxy), ranking and a
    tabular report.
"""

import sys as _sys
from types import ModuleType as _ModuleType

from .analysis import pareto_frontier, rank_points, report
from .cache import ResultCache, content_hash
from .columnar import ExpandedColumns, ResultRows, ResultTable, expand_columns
from .engine import (
    EvaluationStats,
    ExplorationResult,
    PointResult,
    evaluate_table,
    explore,
)
from .executor import run_numerical
from .scenario import (
    DesignPoint,
    FrequencyGrid,
    Scenario,
    TransformStep,
    demo_scenario,
    parallelize_step,
    pipeline_step,
    sequentialize_step,
)
from .vectorized import BatchResult, chi_batch, closed_form_batch

__all__ = [
    "BatchResult",
    "DesignPoint",
    "EvaluationStats",
    "ExpandedColumns",
    "ExplorationResult",
    "FrequencyGrid",
    "PointResult",
    "ResultCache",
    "ResultRows",
    "ResultTable",
    "Scenario",
    "TransformStep",
    "chi_batch",
    "closed_form_batch",
    "content_hash",
    "demo_scenario",
    "evaluate_table",
    "expand_columns",
    "explore",
    "parallelize_step",
    "pareto_frontier",
    "pipeline_step",
    "rank_points",
    "report",
    "run_numerical",
    "sequentialize_step",
]


class _ExploreModule(_ModuleType):
    """Make the subpackage itself callable as :func:`engine.explore`.

    ``repro`` re-exports the engine entry point at the top level, but the
    name ``explore`` is also this subpackage's binding on the parent
    package — a plain function export would shadow the module and break
    ``repro.explore.Scenario`` attribute access.  A callable module keeps
    both contracts: ``from repro import explore; explore(scenario)`` and
    ``import repro; repro.explore.Scenario``.
    """

    def __call__(self, *args, **kwargs):
        return explore(*args, **kwargs)


_sys.modules[__name__].__class__ = _ExploreModule
