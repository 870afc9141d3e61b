"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``optimize``        optimal working point for explicit parameters
``explore``         batch design-space exploration (scenario JSON or demo)
``serve``           HTTP/JSON exploration service (coalescing + tiered cache)
``jobs``            async sharded jobs on a service: submit / status /
                    result / cancel / list
``top``             live ops view of a running service (metrics + traces)
``cache``           inspect / clear / prune the on-disk result cache
``table``           regenerate a paper table (1-4; 1 also in native mode)
``figure``          regenerate a paper figure (1, 2 or 34)
``verify``          functionally verify generated multipliers
``export-verilog``  write structural Verilog for a generated multiplier
``characterize``    run the synthetic-SPICE extraction for a flavour
``list``            list the model catalog (``--json`` for all namespaces)

Commands touching the model catalog (``optimize``, ``explore``, ``list``,
``serve``) accept ``--packs PATH`` to load user plugin packs; packs named
by ``$REPRO_PACKS`` and found in ``./repro.d/`` load automatically.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, obs
from .core.architecture import ArchitectureParameters
from .core.closed_form import ptot_eq13_adaptive
from .core.optimum import approximation_error_percent
from .core.technology import flavour
from .solvers import available_solvers
from .solvers.batch import ENGINE_SOLVERS
from .study import Study


def _resolve_flavour(label: str):
    """Technology flavour lookup with CLI error semantics (None on failure)."""
    try:
        return flavour(label)
    except KeyError as error:
        # flavour()'s message already reads "unknown technology flavour ..."
        print(error.args[0], file=sys.stderr)
        return None


def _install_packs(args) -> bool:
    """Load any ``--packs`` plugin packs; False (after stderr) on failure."""
    from .catalog import PackError, install_packs

    try:
        install_packs(tuple(getattr(args, "packs", None) or ()))
    except PackError as error:
        print(str(error), file=sys.stderr)
        return False
    return True


#: ``repro optimize``'s explicit-architecture flags: (flag, args attribute,
#: default applied when building by hand).  ``--arch`` conflicts with all
#: of them — silently dropping any would yield a confidently wrong optimum.
_OPTIMIZE_ARCH_FLAGS = (
    ("--name", "name", "circuit"),
    ("--n-cells", "n_cells", None),
    ("--activity", "activity", None),
    ("--logical-depth", "logical_depth", None),
    ("--capacitance", "capacitance", 70e-15),
    ("--io-factor", "io_factor", 18.0),
    ("--zeta-factor", "zeta_factor", 0.2),
)


def _resolve_architecture(args):
    """The optimize command's architecture: ``--arch`` name or explicit fields."""
    if args.arch is not None:
        given = [
            flag
            for flag, attribute, _ in _OPTIMIZE_ARCH_FLAGS
            if getattr(args, attribute) is not None
        ]
        if given:
            print(
                f"--arch {args.arch!r} conflicts with {', '.join(given)}; "
                f"give a catalog name or explicit parameters, not both",
                file=sys.stderr,
            )
            return None
        from .catalog import CatalogKeyError, default_catalog

        try:
            return default_catalog().architectures.get(args.arch)
        except CatalogKeyError as error:
            print(str(error), file=sys.stderr)
            return None
    values = {
        attribute: (
            getattr(args, attribute)
            if getattr(args, attribute) is not None
            else default
        )
        for _, attribute, default in _OPTIMIZE_ARCH_FLAGS
    }
    missing = [
        flag
        for flag, attribute, default in _OPTIMIZE_ARCH_FLAGS
        if default is None and values[attribute] is None
    ]
    if missing:
        print(
            f"missing {', '.join(missing)} (or use --arch with a catalog "
            f"architecture name)",
            file=sys.stderr,
        )
        return None
    return ArchitectureParameters(**values)


def _start_profile(args) -> "obs.SpanTracer | None":
    """Arm telemetry for ``--profile``/``--profile-json``; None when off.

    Enables the metrics registry and installs a fresh span tracer as the
    process default, so spans from engine worker threads land in the
    same tree the CLI prints at the end.
    """
    if not (getattr(args, "profile", False) or getattr(args, "profile_json", None)):
        return None
    obs.enable()
    return obs.install_tracer(obs.SpanTracer(), default=True)


def _finish_profile(args, tracer, stats, total_seconds: float) -> None:
    """Print / write the profile collected since :func:`_start_profile`."""
    if tracer is None:
        return
    obs.uninstall_tracer()
    phases = dict(stats.phases) if stats is not None else {}
    if getattr(args, "profile", False):
        print()
        print("profile: span tree")
        print(obs.render_span_tree(tracer))
        print()
        print("profile: phase breakdown")
        print(obs.render_phases(phases, total_seconds=total_seconds))
    path = getattr(args, "profile_json", None)
    if path:
        import json as json_module

        payload = {
            "total_seconds": total_seconds,
            "phases": phases,
            "spans": tracer.to_dict(),
            "metrics": obs.snapshot(),
        }
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json_module.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write profile: {error}", file=sys.stderr)
            return
        print(f"profile written to {path}")


def _cmd_optimize(args) -> int:
    import time

    if not _install_packs(args):
        return 2
    arch = _resolve_architecture(args)
    if arch is None:
        return 2
    tech = _resolve_flavour(args.tech)
    if tech is None:
        return 2
    tracer = _start_profile(args)
    started = time.perf_counter()
    resultset = (
        Study("cli-optimize")
        .architectures(arch)
        .technologies(tech)
        .frequencies(args.frequency)
        .solver(args.solver)
        .run()
    )
    total_seconds = time.perf_counter() - started
    record = resultset[0]
    print(arch.describe())
    print(tech.describe())
    if not record.feasible:
        print(f"infeasible: {record.reason}", file=sys.stderr)
        _finish_profile(args, tracer, resultset.stats, total_seconds)
        return 1
    print(
        f"{args.solver} optimum: Vdd={record.vdd:.3f} V, Vth={record.vth:.3f} V, "
        f"Pdyn={record.pdyn * 1e6:.2f} uW, Pstat={record.pstat * 1e6:.2f} uW, "
        f"Ptot={record.ptot * 1e6:.2f} uW"
    )
    eq13, fit = ptot_eq13_adaptive(arch, tech, args.frequency)
    print(
        f"Eq. 13: {eq13 * 1e6:.2f} uW "
        f"(error {approximation_error_percent(record.ptot, eq13):+.2f} %, "
        f"A/B fit on {fit.vdd_min:.2f}-{fit.vdd_max:.2f} V)"
    )
    _finish_profile(args, tracer, resultset.stats, total_seconds)
    return 0


def _export_table_npz(result, path: str) -> None:
    """Write a result set to ``path`` as a columnar ``.npz`` archive."""
    table = result._table
    if table is None:
        from .explore.columnar import ResultTable

        table = ResultTable.from_records(list(result.records))
    table.save_npz(path)


def _cmd_explore(args) -> int:
    from .explore.scenario import Scenario, demo_scenario

    if not _install_packs(args):
        return 2
    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                scenario = Scenario.from_json(handle.read())
        except OSError as error:
            print(f"cannot read scenario: {error}", file=sys.stderr)
            return 2
        except (KeyError, TypeError, ValueError) as error:
            print(
                f"invalid scenario file {args.scenario}: {error!r}",
                file=sys.stderr,
            )
            return 2
    else:
        scenario = demo_scenario(frequency_points=args.frequency_points)

    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.export and not args.export.endswith((".json", ".csv", ".npz")):
        # Checked before the sweep runs: a bad suffix must not cost a
        # (potentially minutes-long) evaluation.
        print(
            f"--export must end in .json, .csv or .npz, got {args.export!r}",
            file=sys.stderr,
        )
        return 2

    if args.save_scenario:
        try:
            with open(args.save_scenario, "w", encoding="utf-8") as handle:
                handle.write(scenario.to_json() + "\n")
        except OSError as error:
            print(f"cannot write scenario: {error}", file=sys.stderr)
            return 2
        print(f"wrote scenario {scenario.name!r} to {args.save_scenario}")

    if args.dry_run:
        print(scenario.describe())
        print(f"content hash: {scenario.content_hash()}")
        return 0

    import time

    study = (
        Study.from_scenario(scenario)
        .solver(ENGINE_SOLVERS[args.method].name)
        .jobs(args.jobs)
        .cached(args.cache_dir, enabled=not args.no_cache)
    )
    tracer = _start_profile(args)
    started = time.perf_counter()
    result = study.run()
    total_seconds = time.perf_counter() - started
    print(result.describe())
    if not args.no_cache and result.cache_path is not None:
        state = "hit" if result.cache_hit else "stored"
        print(f"  cache {state}: {result.cache_path}")
    if args.export:
        # Serialised straight from the columnar result table — a
        # million-point sweep exports without materialising records.
        try:
            if args.export.endswith(".npz"):
                _export_table_npz(result, args.export)
            elif args.export.endswith(".csv"):
                with open(args.export, "w", encoding="utf-8") as handle:
                    handle.write(result.to_csv())
            else:
                with open(args.export, "w", encoding="utf-8") as handle:
                    handle.write(result.to_json() + "\n")
        except OSError as error:
            print(f"cannot write export: {error}", file=sys.stderr)
            return 2
        print(f"  exported {len(result)} records to {args.export}")
    print()
    print(result.table(top=args.top))
    _finish_profile(args, tracer, result.stats, total_seconds)
    return 0


def _cmd_table(args) -> int:
    if args.number == 1:
        if args.native:
            from .experiments.table1 import run_table1_native

            print(run_table1_native(n_vectors=args.vectors).render())
        else:
            from .experiments.table1 import run_table1_calibrated

            print(run_table1_calibrated().render())
    elif args.number == 2:
        from .experiments.table2 import run_table2

        print(run_table2().render())
    elif args.number == 3:
        from .experiments.wallace_family import run_table3

        print(run_table3().render())
    elif args.number == 4:
        from .experiments.wallace_family import run_table4

        print(run_table4().render())
    else:
        print(f"no table {args.number} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_figure(args) -> int:
    if args.number == "1":
        from .experiments.figure1 import run_figure1

        print(run_figure1().render())
    elif args.number == "2":
        from .experiments.figure2 import run_figure2

        print(run_figure2().render())
    elif args.number in ("3", "4", "34"):
        from .experiments.figures3_4 import run_figures34

        print(run_figures34().render())
    else:
        print(f"no figure {args.number} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args) -> int:
    from .generators.registry import MULTIPLIER_NAMES, build_multiplier
    from .netlist.verify import VerificationError, verify_multiplier

    names = MULTIPLIER_NAMES if args.name == "all" else [args.name]
    failures = 0
    for name in names:
        impl = build_multiplier(name)
        try:
            report = verify_multiplier(impl, n_vectors=args.vectors)
        except VerificationError as error:
            failures += 1
            print(f"FAIL {name}: {error}")
        else:
            print(f"OK   {report.describe()}")
    return 1 if failures else 0


def _cmd_export_verilog(args) -> int:
    from .generators.registry import build_multiplier
    from .netlist.verilog import export_design

    impl = build_multiplier(args.name)
    text = export_design(impl.netlist)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {impl.netlist.n_cells}-cell design to {args.output}")
    return 0


def _cmd_characterize(args) -> int:
    from .characterization import device, fit_delay_coefficient, fit_device

    dev = device(args.flavour)
    fit = fit_device(dev)
    delay = fit_delay_coefficient(dev, fit)
    print(f"flavour {args.flavour.upper()} ({dev.name})")
    print(f"  Io    = {fit.io:.4e} A   (sub-threshold extrapolation at Vth)")
    print(f"  n     = {fit.n:.4f}")
    print(f"  alpha = {fit.alpha:.4f}")
    print(f"  Vth   = {fit.vth:.4f} V")
    print(f"  zeta  = {delay.zeta:.4e} F "
          f"(ring-oscillator fit, rel. RMS {delay.relative_rms_error:.3f})")
    return 0


def _cmd_list(args) -> int:
    import json as json_module

    from .listing import SECTION_NAMESPACES, catalog_payload, render_listing

    if not _install_packs(args):
        return 2
    if args.json:
        payload = catalog_payload()
        if args.what != "all":
            payload = payload[SECTION_NAMESPACES[args.what]]
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_listing(args.what))
    return 0


def _cmd_serve(args) -> int:
    import logging

    from .service.server import ServiceConfig, ExplorationServer

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if not _install_packs(args):
        return 2
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_body=args.max_body,
            cache_dir=args.cache_dir,
            cache_size=args.cache_size,
            use_cache=not args.no_cache,
            telemetry=not args.no_telemetry,
            jobs_dir=args.jobs_dir,
            trace_capacity=args.trace_capacity,
            slow_request_seconds=(
                args.slow_threshold if args.slow_threshold > 0 else None
            ),
            admission_queue=args.admission_queue,
            admission_points=args.admission_points,
            retry_after_seconds=args.retry_after,
            shard_retries=args.shard_retries,
            shard_timeout=(
                args.shard_timeout if args.shard_timeout > 0 else None
            ),
            faults=args.faults,
        )
        server = ExplorationServer(config)
    except (ValueError, OSError) as error:
        print(f"cannot start service: {error}", file=sys.stderr)
        return 2
    # port 0 binds an ephemeral port; print the resolved one.
    print(f"repro service v{__version__} listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def _load_jobs_scenario(args):
    """The ``jobs submit`` scenario: a JSON file or the demo sweep."""
    from .explore.scenario import Scenario, demo_scenario

    if args.scenario:
        try:
            with open(args.scenario, "r", encoding="utf-8") as handle:
                return Scenario.from_json(handle.read())
        except OSError as error:
            print(f"cannot read scenario: {error}", file=sys.stderr)
        except (KeyError, TypeError, ValueError) as error:
            print(
                f"invalid scenario file {args.scenario}: {error!r}",
                file=sys.stderr,
            )
        return None
    return demo_scenario(frequency_points=args.frequency_points)


def _print_job_trace(client, payload) -> bool:
    """``jobs submit --wait --profile``: render the server-side trace.

    The job payload carries the trace id captured at submit time; the
    job's spans flush to the trace store just after the terminal state
    lands, so poll briefly until the trace reports a job tree (or give
    up and render whatever the store has).
    """
    import time as time_module

    from .service.client import ServiceError

    trace_id = str(payload.get("trace_id") or "")
    if not trace_id:
        print(
            "no server-side trace for this job "
            "(the server may run with telemetry disabled)",
            file=sys.stderr,
        )
        return False
    trace = None
    for _ in range(20):
        try:
            trace = client.trace(trace_id)
        except ServiceError as error:
            if error.kind != "trace-not-found":
                print(
                    f"cannot fetch trace {trace_id}: {error}", file=sys.stderr
                )
                return False
        if trace is not None and trace.get("n_jobs", 0) > 0:
            break
        time_module.sleep(0.1)
    if trace is None:
        print(
            f"trace {trace_id} not in the server store (evicted?)",
            file=sys.stderr,
        )
        return False
    print()
    print("profile: server trace")
    print(obs.render_trace(trace))
    return True


def _cmd_jobs(args) -> int:
    import json as json_module

    from .jobs.manager import JobTimeout
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, retries=args.retries)
    try:
        if args.jobs_action == "submit":
            scenario = _load_jobs_scenario(args)
            if scenario is None:
                return 2
            handle = client.submit(
                scenario, solver=args.solver, shards=args.shards
            )
            print(
                f"job {handle.id} submitted "
                f"({scenario.size} candidates, solver {args.solver})"
            )
            if not args.wait:
                print(f"poll with: repro jobs status {handle.id} --url {args.url}")
                return 0
            final = handle.wait(timeout=args.timeout, poll=args.poll)
            state = final.get("state")
            print(f"job {handle.id} {state} — progress {final.get('progress')}")
            if state != "done":
                if final.get("error"):
                    print(final["error"], file=sys.stderr)
                if args.profile:
                    _print_job_trace(client, final)
                return 1
            print(client.job_result(handle.id).describe())
            if args.profile:
                _print_job_trace(client, final)
            return 0
        if args.jobs_action == "status":
            payload = client.job(args.id)
            print(json_module.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.jobs_action == "result":
            result = client.job_result(args.id)
            print(result.describe())
            if args.export:
                if not args.export.endswith((".json", ".csv")):
                    print(
                        f"--export must end in .json or .csv, "
                        f"got {args.export!r}",
                        file=sys.stderr,
                    )
                    return 2
                rendered = (
                    result.to_csv()
                    if args.export.endswith(".csv")
                    else result.to_json() + "\n"
                )
                with open(args.export, "w", encoding="utf-8") as handle:
                    handle.write(rendered)
                print(f"exported {len(result)} records to {args.export}")
            else:
                print()
                print(result.table(top=args.top))
            return 0
        if args.jobs_action == "cancel":
            payload = client.cancel(args.id)
            print(f"job {args.id} {payload.get('state')}")
            return 0
        # list
        jobs = client.jobs()
        if not jobs:
            print("no jobs")
            return 0
        for payload in jobs:
            progress = payload.get("progress", {})
            print(
                f"{payload['id']}  {payload['state']:<9}  "
                f"{payload.get('scenario_name', ''):<24}  "
                f"shards {progress.get('shards_done', 0)}"
                f"/{progress.get('shards_total', 0)}  "
                f"points {progress.get('points_done', 0)}"
                f"/{progress.get('points_total', 0)}"
            )
        return 0
    except JobTimeout as error:
        print(str(error), file=sys.stderr)
        return 1
    except ServiceError as error:
        print(f"service error ({error.kind}): {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"cannot write export: {error}", file=sys.stderr)
        return 2


def _cmd_top(args) -> int:
    from .service.client import ServiceClient, ServiceError
    from .service.top import run_top

    client = ServiceClient(args.url, retries=args.retries)
    try:
        return run_top(
            client,
            interval=args.interval,
            iterations=1 if args.once else None,
            stream=sys.stdout,  # resolved per call, so capture works
            clear=not args.once,
        )
    except KeyboardInterrupt:
        return 0
    except ServiceError as error:
        print(f"service error ({error.kind}): {error}", file=sys.stderr)
        return 1


def _cmd_cache(args) -> int:
    import json as json_module

    from .service.memcache import as_cache

    # The tiered view: disk entry counts/sizes plus the process-global
    # memory tier's hit/miss/eviction counters.
    cache = as_cache(args.cache_dir)
    if args.action == "stats":
        print(json_module.dumps(cache.stats(), indent=2, sort_keys=True))
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
    elif args.action == "prune":
        if args.max_entries is None or args.max_entries < 0:
            print(
                "prune requires --max-entries >= 0", file=sys.stderr
            )
            return 2
        removed = cache.prune(args.max_entries)
        print(
            f"pruned {removed} entries from {cache.directory} "
            f"(keeping the {args.max_entries} newest)"
        )
    return 0


def _add_profile_flags(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--profile", action="store_true",
        help="print a span tree and per-phase breakdown after the run",
    )
    command.add_argument(
        "--profile-json", default=None, metavar="PATH", dest="profile_json",
        help="write the profile (spans, phases, metrics) as JSON to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Schuster et al., DATE 2006",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Shared by every catalog-touching command: load user plugin packs
    # (JSON/TOML) on top of $REPRO_PACKS and ./repro.d/ discovery.
    packs_parent = argparse.ArgumentParser(add_help=False)
    packs_parent.add_argument(
        "--packs", action="append", default=None, metavar="PATH",
        help="plugin pack file or directory to load (repeatable); "
             "$REPRO_PACKS and ./repro.d/ are always scanned",
    )

    optimize = commands.add_parser(
        "optimize",
        parents=[packs_parent],
        help="optimal working point for explicit or catalog parameters",
    )
    # The explicit-architecture flags default to None so --arch can
    # detect (and reject) any of them; _resolve_architecture applies
    # the historical defaults (name=circuit, C=70 fF, io=18, zeta=0.2).
    optimize.add_argument("--name", default=None)
    optimize.add_argument(
        "--arch", default=None,
        help="catalog architecture name (alternative to the explicit "
             "--n-cells/--activity/--logical-depth parameters)",
    )
    optimize.add_argument("--n-cells", type=float, default=None, dest="n_cells")
    optimize.add_argument("--activity", type=float, default=None)
    optimize.add_argument(
        "--logical-depth", type=float, default=None, dest="logical_depth"
    )
    optimize.add_argument(
        "--capacitance", type=float, default=None,
        help="per-cell equivalent capacitance [F] (default 70e-15)",
    )
    optimize.add_argument("--io-factor", type=float, default=None, dest="io_factor")
    optimize.add_argument(
        "--zeta-factor", type=float, default=None, dest="zeta_factor"
    )
    optimize.add_argument(
        "--tech", default="LL",
        help="catalog technology name or alias (LL, HS, ULL, or any "
             "registered/pack-defined technology)",
    )
    optimize.add_argument("--frequency", type=float, default=31.25e6)
    optimize.add_argument(
        "--solver", default="numerical", choices=list(available_solvers()),
        help="solve path from the solver registry (default: numerical)",
    )
    _add_profile_flags(optimize)
    optimize.set_defaults(handler=_cmd_optimize)

    explore = commands.add_parser(
        "explore",
        parents=[packs_parent],
        help="batch design-space exploration over a scenario",
    )
    explore.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON file; omit to run the built-in demo sweep",
    )
    explore.add_argument(
        "--method", default="auto", choices=list(ENGINE_SOLVERS),
        help="auto = vectorized Eq. 13 with exact-numerical fallback",
    )
    explore.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for exact-numerical points (default: CPUs)",
    )
    explore.add_argument(
        "--top", type=int, default=15, help="ranking rows to print"
    )
    explore.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: ~/.cache/repro/explore)",
    )
    explore.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    explore.add_argument(
        "--frequency-points", type=int, default=42, dest="frequency_points",
        help="frequency grid size of the demo scenario",
    )
    explore.add_argument(
        "--save-scenario", default=None,
        help="write the (demo or loaded) scenario JSON to this path",
    )
    explore.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the full result set to PATH (.json, .csv or .npz)",
    )
    explore.add_argument(
        "--dry-run", action="store_true",
        help="print the candidate count and content hash without evaluating",
    )
    _add_profile_flags(explore)
    explore.set_defaults(handler=_cmd_explore)

    table = commands.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=[1, 2, 3, 4])
    table.add_argument("--native", action="store_true",
                       help="table 1 from generated netlists (no paper inputs)")
    table.add_argument("--vectors", type=int, default=120)
    table.set_defaults(handler=_cmd_table)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=["1", "2", "3", "4", "34"])
    figure.set_defaults(handler=_cmd_figure)

    verify = commands.add_parser("verify", help="verify generated multipliers")
    verify.add_argument("name", nargs="?", default="all")
    verify.add_argument("--vectors", type=int, default=30)
    verify.set_defaults(handler=_cmd_verify)

    export = commands.add_parser(
        "export-verilog", help="write structural Verilog for a multiplier"
    )
    export.add_argument("name")
    export.add_argument("-o", "--output", default="-")
    export.set_defaults(handler=_cmd_export_verilog)

    characterize = commands.add_parser(
        "characterize", help="synthetic-SPICE extraction for a flavour"
    )
    characterize.add_argument("flavour", choices=["LL", "HS", "ULL"])
    characterize.set_defaults(handler=_cmd_characterize)

    lister = commands.add_parser(
        "list",
        parents=[packs_parent],
        help="list the model catalog: architectures, solvers, transforms, "
             "technologies and parameter summaries",
    )
    lister.add_argument(
        "what", nargs="?", default="all",
        choices=[
            "all", "architectures", "solvers", "transforms",
            "technologies", "parameters",
        ],
    )
    lister.add_argument(
        "--json", action="store_true",
        help="emit the full catalog (all five namespaces, with "
             "provenance) as JSON",
    )
    lister.set_defaults(handler=_cmd_list)

    serve = commands.add_parser(
        "serve",
        parents=[packs_parent],
        help="HTTP/JSON exploration service over the Study surface",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731,
        help="TCP port (0 binds an OS-assigned ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="max concurrent engine evaluations",
    )
    serve.add_argument(
        "--max-body", type=int, default=1 << 20, dest="max_body",
        help="largest accepted request body [bytes]",
    )
    serve.add_argument(
        "--cache-size", type=int, default=64, dest="cache_size",
        help="in-memory result cache entries (LRU bound)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="disk cache tier directory (default: ~/.cache/repro/explore)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="serve without either cache tier (coalescing still applies)",
    )
    serve.add_argument(
        "--no-telemetry", action="store_true", dest="no_telemetry",
        help="disable the metrics registry (/v1/metrics serves empty)",
    )
    serve.add_argument(
        "--jobs-dir", default=None, dest="jobs_dir",
        help="job store directory (default: <cache-dir>/jobs, or "
             "~/.cache/repro/jobs without a cache dir)",
    )
    serve.add_argument(
        "--trace-capacity", type=int, default=obs.DEFAULT_TRACE_CAPACITY,
        dest="trace_capacity",
        help="in-memory trace store size in whole traces "
             f"(default {obs.DEFAULT_TRACE_CAPACITY})",
    )
    serve.add_argument(
        "--slow-threshold", type=float, default=1.0, dest="slow_threshold",
        help="emit a structured slow_request log line for requests "
             "slower than this many seconds (0 disables; default 1.0)",
    )
    serve.add_argument(
        "--admission-queue", type=int, default=16, dest="admission_queue",
        help="requests allowed to wait for a worker beyond the pool "
             "(excess sheds 429 with Retry-After; default 16)",
    )
    serve.add_argument(
        "--admission-points", type=int, default=None, dest="admission_points",
        help="total sweep points admitted concurrently before cost "
             "shedding (503); default: unlimited",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, dest="retry_after",
        help="Retry-After seconds advertised on shed responses "
             "(default 1.0)",
    )
    serve.add_argument(
        "--shard-retries", type=int, default=1, dest="shard_retries",
        help="per-shard retry budget before a job shard is declared "
             "poisoned (default 1)",
    )
    serve.add_argument(
        "--shard-timeout", type=float, default=0.0, dest="shard_timeout",
        help="watchdog seconds before a silent job shard is re-queued "
             "(0 disables; default 0)",
    )
    serve.add_argument(
        "--faults", default=None,
        help="arm deterministic fault injection, e.g. "
             "'seed=7; cache.read:p=0.5:corrupt; shard.run:n=2' "
             "(also via REPRO_FAULTS; testing only)",
    )
    serve.add_argument(
        "-v", "--verbose", action="store_true", help="debug-level logging"
    )
    serve.set_defaults(handler=_cmd_serve)

    jobs_cmd = commands.add_parser(
        "jobs",
        help="async sharded exploration jobs on a running service",
    )
    jobs_sub = jobs_cmd.add_subparsers(dest="jobs_action", required=True)
    url_parent = argparse.ArgumentParser(add_help=False)
    url_parent.add_argument(
        "--url", default="http://127.0.0.1:8731",
        help="base URL of the repro service (default: the serve default)",
    )
    url_parent.add_argument(
        "--retries", type=int, default=2,
        help="client retries on connection errors / 503s (default 2)",
    )

    jobs_submit = jobs_sub.add_parser(
        "submit", parents=[url_parent],
        help="POST a scenario as an async job (demo sweep when omitted)",
    )
    jobs_submit.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON file; omit to submit the built-in demo sweep",
    )
    jobs_submit.add_argument(
        "--solver", default="auto",
        help="solver registry name forwarded to the job (default auto)",
    )
    jobs_submit.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: up to 8, clamped to the sweep axes)",
    )
    jobs_submit.add_argument(
        "--frequency-points", type=int, default=42, dest="frequency_points",
        help="frequency grid size of the demo scenario",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print the result summary",
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="--wait gives up after this many seconds",
    )
    jobs_submit.add_argument(
        "--poll", type=float, default=0.5,
        help="--wait polling interval [s]",
    )
    jobs_submit.add_argument(
        "--profile", action="store_true",
        help="with --wait: render the server-side distributed trace "
             "(request + job + shard spans) after the job finishes",
    )
    jobs_submit.set_defaults(handler=_cmd_jobs)

    jobs_status = jobs_sub.add_parser(
        "status", parents=[url_parent], help="print one job's status JSON"
    )
    jobs_status.add_argument("id", help="job id")
    jobs_status.set_defaults(handler=_cmd_jobs)

    jobs_result = jobs_sub.add_parser(
        "result", parents=[url_parent],
        help="fetch a finished job's merged result",
    )
    jobs_result.add_argument("id", help="job id")
    jobs_result.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the full result set to PATH (.json or .csv)",
    )
    jobs_result.add_argument(
        "--top", type=int, default=15, help="ranking rows to print"
    )
    jobs_result.set_defaults(handler=_cmd_jobs)

    jobs_cancel = jobs_sub.add_parser(
        "cancel", parents=[url_parent], help="cancel a queued or running job"
    )
    jobs_cancel.add_argument("id", help="job id")
    jobs_cancel.set_defaults(handler=_cmd_jobs)

    jobs_list = jobs_sub.add_parser(
        "list", parents=[url_parent], help="list all jobs, newest first"
    )
    jobs_list.set_defaults(handler=_cmd_jobs)

    top = commands.add_parser(
        "top",
        parents=[url_parent],
        help="live ops view of a running service: RPS, per-route "
             "latency, cache hit rates, queue depth, recent traces",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval [s] (default 2.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (no screen clearing)",
    )
    top.set_defaults(handler=_cmd_top)

    cache = commands.add_parser(
        "cache", help="inspect / clear / prune the on-disk result cache"
    )
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument(
        "--cache-dir", default=None,
        help="cache directory (default: ~/.cache/repro/explore)",
    )
    cache.add_argument(
        "--max-entries", type=int, default=None, dest="max_entries",
        help="prune: how many newest entries to keep",
    )
    cache.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .catalog import PackError

    try:
        # Building the parser reads the solver registry, which may load
        # $REPRO_PACKS / repro.d/ packs — surface a broken pack as a
        # clean exit 2 instead of a traceback.
        parser = build_parser()
    except PackError as error:
        print(str(error), file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
