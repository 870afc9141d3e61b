"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-mixed --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it reads and writes only there.
Before anything is timed it compiles the program's bytecode and imports
the program once, so set-up time holds the cost users pay on every
start, not the once-per-install compilation.  It then starts the
measured process (``worker.py``) several times: one start also runs
the workload's ops for ``--seconds``, the others before and after it
only set up (``setup_s`` is the median of all of them).

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under
``--trace 1`` (names and units as in ``BENCHMARK.json``).  The line
before it summarises the run for a human, including ``fail_frac`` and
the host-drift probe ``host.ref_ms`` at the start and end of the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-mixed", "job-persist", "serve-warm")

#: Measured-process starts per run; set-up time is their median.
SETUP_REPEATS = 4

#: The start that also runs the ops.  Set-up-only starts come before
#: and after it, so the set-up samples span the run's host phases.
MEASURED_START = 2

#: Every process this run starts must be done by then (seconds).
RUN_BUDGET_S = 170.0


def metric_specs() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def worker_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    # Nothing from the caller's environment may arm faults, load plugin
    # packs or point the program's caches outside the checkout.
    for name in ("REPRO_FAULTS", "REPRO_PACKS", "REPRO_TELEMETRY"):
        env.pop(name, None)
    # A fixed hash seed removes one source of run-to-run variance; one
    # BLAS thread keeps the load at the stated one or two busy threads.
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_EXPLORE_CACHE=str(workdir / "default-cache"),
        REPRO_JOBS_DIR=str(workdir / "default-jobs"),
    )
    return env


def start_worker(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    """Start the measured process and return its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.tiny:
        command.append("--tiny")
    started = time.perf_counter()
    process = subprocess.Popen(
        command + ["--t0", repr(started)],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(workdir),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        # The worker's own children (the server) share its session.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{args.workload} worker exceeded the run budget")
    if process.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the harness self-tests)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    specs = metric_specs()
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # One untimed import, so the timed ones read warm files.
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=worker_env(work), cwd=ROOT, check=True, timeout=120,
        )
        setups = []
        for repeat in range(SETUP_REPEATS):
            measured = repeat == MEASURED_START
            started = start_worker(
                args, work / f"start-{repeat}", not measured, deadline
            )
            setups.append(started["setup_s"])
            if measured:
                report = started
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = report["failed"]
    correct = (
        failed == 0 and not report["problems"] and not report["setup_failures"]
    )
    end_to_end = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
        "op_p50_ref_ratio": report["op_p50_ref_ratio"],
    }
    if args.trace:
        values, specs_used = report["layers"], specs["per_layer"]
    else:
        values, specs_used = end_to_end, specs["end_to_end"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in specs_used.items()
    }
    summary = (
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{report['attempted']} ops in {report['loop_s']:.1f} s, "
        f"fail_frac {failed / report['attempted']:.4g} ratio; "
        f"setup_s {end_to_end['setup_s']:.4f} s "
        f"(median of {len(setups)}); "
        f"op_p50_ms {report['op_p50_ms']:.3f} ms; "
        f"op_p90_ms {report['op_p90_ms']:.3f} ms; "
        f"op_p50_ref_ratio {report['op_p50_ref_ratio']:.4f}; "
        f"import.repro_ms {report['import_ms']:.1f} ms; "
        f"host.ref_ms start {report['ref_start_ms']:.2f} "
        f"end {report['ref_end_ms']:.2f} ms"
    )
    if report["fetch_p50_ms"] is not None:
        summary += f"; fetch_p50_ms {report['fetch_p50_ms']:.3f} ms"
    if report["problems"]:
        summary += f"; problems: {report['problems']}"
    if args.trace and report["missing"]:
        summary += f"; not traced (target missing): {report['missing']}"
    print(summary)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
