"""Write the per-layer report: one traced run per workload, as markdown.

    python3 perfbench/report.py [--seed N] > perfbench/LAYERS.md

Each layer's value is the median over the traced ops of a run; its
share is of the same run's untraced median op latency ``op.p50_ms``
(job read-back layers: of the read-back median ``jobs.fetch_ms``).
The purpose checks at the end state what each workload is for and
whether the numbers bear it out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Layers of a job's read-back (``AsyncResult.result()``), not its op.
FETCH_LAYERS = ("store.read_ms", "columnar.decode_ms")


def traced_run(workload: str, seed: int) -> tuple[str, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    summary, last = completed.stdout.strip().splitlines()[-2:]
    metrics = {k: v["value"] for k, v in json.loads(last)["metrics"].items()}
    return summary, metrics


#: ``_ms`` metrics that are not layers of the op.
NOT_LAYERS = (
    "op.p50_ms", "op.p90_ms", "jobs.fetch_ms", "import.repro_ms", "host.ref_ms",
)


def share(workload: str, name: str, metrics: dict) -> str:
    if not name.endswith("_ms") or name in NOT_LAYERS:
        return ""
    base = "op.p50_ms"
    if workload == "job-persist" and name in FETCH_LAYERS:
        base = "jobs.fetch_ms"
    return f"{100.0 * metrics[name] / metrics[base]:.1f} %"


def purpose_checks(runs: dict) -> list[tuple[str, bool]]:
    sweep = runs["sweep-mixed"][1]
    job = runs["job-persist"][1]
    serve = runs["serve-warm"][1]
    layers = sorted(
        (value, name) for name, value in serve.items()
        if name.endswith("_ms") and name not in NOT_LAYERS
    )
    top_two = {name for _, name in layers[-2:]}
    return [
        ("sweep-mixed: batch_numerical.fallback_ms is the majority of op time",
         sweep["batch_numerical.fallback_ms"] > 0.5 * sweep["op.p50_ms"]),
        ("job-persist: cache.write_ms + store.persist_ms are the majority",
         job["cache.write_ms"] + job["store.persist_ms"]
         > 0.5 * job["op.p50_ms"]),
        ("job-persist: batch_numerical.fallback_ms is under 5 %",
         job["batch_numerical.fallback_ms"] < 0.05 * job["op.p50_ms"]),
        ("serve-warm: memcache.hit_frac is 1.0", serve["memcache.hit_frac"] == 1.0),
        ("serve-warm: no kernel or fallback call in timed ops",
         serve["vectorized.kernel_ms"] == 0.0
         and serve["batch_numerical.fallback_ms"] == 0.0
         and serve["batch_numerical.points"] == 0.0),
        ("serve-warm: server.encode_ms and client.decode_ms are the two "
         "largest layers",
         top_two == {"server.encode_ms", "client.decode_ms"}),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    runs = {name: traced_run(name, args.seed) for name in names}
    revision = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
        text=True, cwd=HERE.parent,
    ).stdout.strip() or "unknown"

    lines = [
        "# Per-layer report",
        "",
        f"Traced run of every workload at commit `{revision}`, seed "
        f"{args.seed}, {SPEC['run_seconds']} s per run, on "
        f"{os.cpu_count()} CPUs ({platform.machine()}, "
        f"Python {platform.python_version()}).  Written by "
        "`python3 perfbench/report.py`.",
        "",
        "Values are medians over the traced ops (every second op) of the "
        "run.  A `_ms` layer is self time: the layer's span time minus "
        "the time of the spans it contains.  Shares are of the run's "
        "untraced median op latency `op.p50_ms`; on job-persist, "
        "`store.read_ms` and `columnar.decode_ms` are shares of "
        "`jobs.fetch_ms`, the `AsyncResult.result()` read-back.",
        "",
        "| metric | unit | " + " | ".join(f"{n} | share" for n in names) + " |",
        "|---|---|" + "---:|---:|" * len(names),
    ]
    for metric in SPEC["per_layer"]:
        cells = []
        for name in names:
            value = runs[name][1][metric["name"]]
            cells += [f"{value:.4g}", share(name, metric["name"], runs[name][1])]
        lines.append(
            f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |"
        )
    lines += ["", "## Purpose checks", ""]
    for text, ok in purpose_checks(runs):
        lines.append(f"- [{'x' if ok else ' '}] {text}")
    lines += ["", "## Run summaries", ""]
    lines += [f"    {runs[name][0]}" for name in names]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
