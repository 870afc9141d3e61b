"""The measured process: set up one workload, run its ops, report.

``run.py`` starts this process; its start is the start of set-up.  It
imports the program (timed as ``import.repro_ms``), builds the workload
from the seed, sets it up (caches filled, one warm-up op) and then runs
ops in a closed loop for the requested time.  It prints one JSON line.

Every op is bracketed by two timings of a fixed reference loop that
runs no program code.  A shared 2-vCPU VM changes speed by up to 2x in
phases of seconds to minutes, and an op's latency follows the host:
each op's latency divided by the reference time around it is a cost
that holds still across runs and still moves with every change to the
program (``op_p50_ref_ratio`` is its median).

With ``--trace 1`` every second op is traced (the others give the
untraced latency the tracing overhead is measured against), and the
per-layer metrics come from the traced ops' spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Host-drift probe: samples of the reference loop taken at each end of
#: the timed loop (inside it, one more after every op).
REF_SAMPLES = 3


def reference_loop_ms() -> float:
    """A fixed pure-Python loop that runs no program code."""
    started = time.perf_counter()
    total = 0
    for value in range(200_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def p90(values: list[float]) -> float:
    """The 90th percentile, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run ops for ``seconds``; with a tracer every second op is traced.

    The reference loop runs right before the first op and right after
    every op; ``op_ref_ms[i]`` is the mean of the two samples around
    op ``i``.  At least one op runs, and with a tracer at least one of
    each kind.
    """
    from workloads import attempt

    ref = [reference_loop_ms() for _ in range(REF_SAMPLES)]
    outcomes, traced, op_ref = [], [], []
    started = time.perf_counter()
    deadline = started + seconds
    index = 0
    minimum = 1 if tracer is None else 2
    while index < minimum or time.perf_counter() < deadline:
        trace_this = tracer is not None and index % 2 == 1
        outcome = attempt(workload, index, tracer if trace_this else None)
        ref.append(reference_loop_ms())
        outcomes.append(outcome)
        traced.append(trace_this)
        op_ref.append((ref[-2] + ref[-1]) / 2.0)
        index += 1
    loop_s = time.perf_counter() - started
    ref.extend(reference_loop_ms() for _ in range(REF_SAMPLES - 1))
    return {
        "outcomes": outcomes,
        "traced": traced,
        "op_ref_ms": op_ref,
        "ref_ms": ref,
        "loop_s": loop_s,
    }


def end_to_end(outcomes, op_ref_ms) -> dict[str, float]:
    latencies = [o.latency * 1e3 for o in outcomes]
    return {
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90(latencies),
        "op_p50_ref_ratio": statistics.median(
            latency / ref for latency, ref in zip(latencies, op_ref_ms)
        ),
    }


def layer_metrics(run: dict, tracer, server_dump: dict | None,
                  trace_ids: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the traced ops (medians over ops)."""
    from tracer import ROOTS, self_times

    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span["op"]].append(span)
    if server_dump is not None:
        # Server spans and counts belong to the op whose trace id they carry.
        for span in server_dump["spans"]:
            if span["op"] in trace_ids:
                spans[trace_ids[span["op"]]].append(span)
        for op, values in server_dump["counts"].items():
            if op in trace_ids:
                tracer.add(trace_ids[op], values)
    counts = tracer.counts

    ops = [i for i, t in enumerate(run["traced"]) if t and run["outcomes"][i].ok]
    per_op = {name: [] for name in [f"{s}_ms" for s in LAYER_SPANS] + list(COUNTS)}
    coverage = []
    for op in ops:
        own = self_times(spans[op])
        layer = defaultdict(float)
        wall = 0.0
        for span in spans[op]:
            if span["name"] in ROOTS:
                wall += span["end"] - span["start"]
            else:
                layer[span["name"]] += own[span["id"]]
        coverage.append(sum(layer.values()) / wall)
        for name in LAYER_SPANS:
            per_op[f"{name}_ms"].append(layer[name] * 1e3)
        for name, (key, scale) in COUNTS.items():
            per_op[name].append(counts[op][key] * scale)

    def pooled(numerator: str, denominator: str) -> float:
        top = sum(counts[op][numerator] for op in ops)
        bottom = sum(counts[op][denominator] for op in ops)
        return top / bottom if bottom else 0.0

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    metrics = {name: median(values) for name, values in per_op.items()}
    metrics["vectorized.trusted_frac"] = pooled("kernel.trusted", "kernel.points")
    metrics["batch_numerical.infeasible_frac"] = pooled(
        "fallback.infeasible", "fallback.points"
    )
    metrics["memcache.hit_frac"] = pooled("memcache.hits", "cache.gets")
    metrics["trace.coverage_frac"] = median(coverage)
    traced, untraced = split(run, True), split(run, False)
    metrics["trace.overhead_frac"] = (
        end_to_end(*traced)["op_p50_ms"] / end_to_end(*untraced)["op_p50_ms"] - 1.0
    )
    return metrics


def split(run: dict, traced: bool) -> tuple[list, list[float]]:
    """The outcomes and reference times of the (un)traced ops of a run."""
    kept = [i for i, t in enumerate(run["traced"]) if t == traced]
    return [run["outcomes"][i] for i in kept], [run["op_ref_ms"][i] for i in kept]


#: Span names timed by the traced run; each gives ``<name>_ms``.
LAYER_SPANS = (
    "columnar.expand",
    "vectorized.kernel",
    "batch_numerical.fallback",
    "engine.analysis",
    "columnar.encode",
    "columnar.decode",
    "cache.read",
    "cache.write",
    "store.persist",
    "store.read",
    "store.save",
    "server.parse",
    "server.handle",
    "server.encode",
    "client.http",
    "client.decode",
)

#: Per-op counts: metric -> (count taken at a layer boundary, scale).
COUNTS = {
    "batch_numerical.points": ("fallback.points", 1.0),
    "cache.write_calls": ("cache.write_calls", 1.0),
    "cache.write_mb": ("cache.write_bytes", 1e-6),
    "store.persist_mb": ("store.persist_bytes", 1e-6),
    "store.record_saves": ("store.record_saves", 1.0),
    "manager.queue_wait_ms": ("manager.queue_wait_ms", 1.0),
    "server.response_kb": ("server.response_bytes", 1e-3),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent when it started us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    started = time.perf_counter()
    import repro  # noqa: F401 — timed: the program's import cost

    import_ms = (time.perf_counter() - started) * 1e3

    import layers
    from tracer import Tracer
    from workloads import TINY, WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    options = dict(TINY[args.workload]) if args.tiny else {}
    if args.trace:
        tracer = Tracer("c")
        layers.install(tracer, client=args.workload == "serve-warm")
        if args.workload == "serve-warm":
            options["spans_path"] = args.workdir / "server-spans.json"
    workload = WORKLOADS[args.workload](args.seed, args.workdir, **options)
    try:
        workload.setup()
        setup_s = time.perf_counter() - args.t0
        report = {"setup_s": setup_s, "import_ms": import_ms,
                  "setup_failures": workload.setup_failures}
        if not args.setup_only:
            run = measure(workload, args.seconds, tracer)
            problems = workload.final_check()
    finally:
        workload.close()
    if args.setup_only:
        print(json.dumps(report))
        return 0

    outcomes = run["outcomes"]
    peak = getattr(workload, "peak_rss_mb", None)
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced, untraced_ref = split(run, False)
    fetches = [o.fetch * 1e3 for o in untraced if o.fetch is not None]
    errors = sorted({o.error for o in outcomes if not o.ok})
    report.update(
        attempted=len(outcomes),
        failed=sum(not o.ok for o in outcomes),
        problems=problems + errors[:5],
        peak_rss_mb=peak,
        loop_s=run["loop_s"],
        ref_start_ms=statistics.median(run["ref_ms"][:REF_SAMPLES]),
        ref_end_ms=statistics.median(run["ref_ms"][-REF_SAMPLES:]),
        ref_ms=statistics.median(run["ref_ms"]),
        fetch_p50_ms=statistics.median(fetches) if fetches else None,
        **end_to_end(untraced, untraced_ref),
    )
    if tracer is not None:
        server_dump = None
        spans_path = options.get("spans_path")
        if spans_path is not None and spans_path.exists():
            server_dump = json.loads(spans_path.read_text())
        trace_ids = getattr(workload, "trace_ids", {})
        layer = layer_metrics(run, tracer, server_dump, trace_ids)
        layer["op.p50_ms"] = report["op_p50_ms"]
        layer["op.p90_ms"] = report["op_p90_ms"]
        layer["import.repro_ms"] = import_ms
        layer["host.ref_ms"] = report["ref_ms"]
        layer["jobs.fetch_ms"] = report["fetch_p50_ms"] or 0.0
        report["layers"] = layer
        report["missing"] = tracer.missing + (
            server_dump["missing"] if server_dump else []
        )
        # The run's spans, one file, written once the run is over.
        merged = tracer.dump()
        if server_dump is not None:
            merged["server"] = server_dump
        merged["trace_ids"] = trace_ids
        (HERE / ".work" / f"{args.workload}-spans.json").write_text(
            json.dumps(merged)
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
