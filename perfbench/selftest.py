"""Self-tests of the benchmark harness, at tiny input sizes.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's own test run; they
start real processes (the measured worker, the server) and take about
a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times, wrap  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = HERE / ".work" / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_one_op_prints_every_metric_with_its_unit(name, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert completed.returncode == 0, completed.stderr
    summary, last = completed.stdout.strip().splitlines()[-2:]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert "fail_frac 0 ratio" in summary and "host.ref_ms start" in summary


def nudged(result):
    """``result`` with the ptot of its first feasible row one ULP higher."""
    records = result.records
    if isinstance(records, workloads.ResultRows):
        ptot = records.table.columns["ptot"]
        row = int(np.flatnonzero(records.table.columns["feasible"])[0])
        ptot[row] = np.nextafter(ptot[row], np.inf)
        return result
    row = next(i for i, r in enumerate(records) if r.feasible)
    records = list(records)
    records[row] = dataclasses.replace(
        records[row], ptot=float(np.nextafter(records[row].ptot, np.inf))
    )
    return dataclasses.replace(result, records=records)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_result_counts_as_failed_op(name, workdir, monkeypatch):
    workload = workloads.WORKLOADS[name](1, workdir, **workloads.TINY[name])
    try:
        workload.setup()
        if name == "sweep-mixed":
            run = workload._run
            monkeypatch.setattr(workload, "_run", lambda: nudged(run()))
        elif name == "job-persist":
            from repro.jobs.handle import AsyncResult

            result = AsyncResult.result
            monkeypatch.setattr(
                AsyncResult, "result", lambda self, **kw: nudged(result(self, **kw))
            )
        else:
            explore = workload.client.explore
            monkeypatch.setattr(
                workload.client, "explore", lambda s: nudged(explore(s))
            )
        run = worker.measure(workload, 0)
    finally:
        workload.close()
    assert workload.setup_failures == 0
    outcomes = run["outcomes"]
    assert [o.ok for o in outcomes] == [False] * len(outcomes)
    assert "digest differs" in outcomes[0].error


def test_server_faults_fail_ops_without_crashing(workdir):
    workload = workloads.ServeWarm(
        1, workdir,
        server_args=("--faults", "seed=1; http.response:always"),
        **workloads.TINY["serve-warm"],
    )
    process = None
    try:
        workload.setup()
        process = workload.process
        run = worker.measure(workload, 0.5)
    finally:
        workload.close()
    assert workload.setup_failures > 0
    assert run["outcomes"] and not any(o.ok for o in run["outcomes"])
    assert all("injected fault" in o.error for o in run["outcomes"])
    assert process.returncode == 0


def test_self_time_subtracts_children_and_orphans():
    spans = [
        {"id": "c1", "name": "op", "parent": None, "main": True,
         "start": 0.0, "end": 10.0},
        {"id": "c2", "name": "client.http", "parent": "c1", "main": True,
         "start": 1.0, "end": 4.0},
        # A server span inside client.http (no parent in this process).
        {"id": "s1", "name": "server.handle", "parent": None, "main": False,
         "start": 2.0, "end": 3.5},
        # A pool-thread span after client.http: a child of the op.
        {"id": "c3", "name": "cache.write", "parent": None, "main": False,
         "start": 6.0, "end": 12.0},
    ]
    own = self_times(spans)
    assert own["c2"] == pytest.approx(1.5)
    assert own["s1"] == pytest.approx(1.5)
    assert own["c3"] == pytest.approx(6.0)
    assert own["c1"] == pytest.approx(10.0 - 3.0 - 4.0)


def test_wrapper_records_only_while_an_op_is_traced():
    tracer = Tracer("t")
    namespace = types.SimpleNamespace(
        outer=lambda: namespace.inner() + 1, inner=lambda: 1
    )
    wrap(tracer, namespace, "outer", "columnar.expand",
         lambda args, result: {"calls": result})
    wrap(tracer, namespace, "inner", "vectorized.kernel")
    wrap(tracer, namespace, "gone", "cache.write")
    assert namespace.outer() == 2 and tracer.spans == []
    tracer.current = 7
    assert namespace.outer() == 2
    inner, outer = tracer.spans
    assert (inner["op"], outer["op"]) == (7, 7)
    assert inner["parent"] == outer["id"]
    assert tracer.counts[7]["calls"] == 2
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".gone")
