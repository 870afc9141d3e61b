"""JobManager lifecycle: submit/wait/cancel/recover through real engines."""

import threading

import pytest

from repro.explore.engine import explore
from repro.explore.scenario import demo_scenario
from repro.jobs import (
    AsyncResult,
    JobManager,
    JobNotFound,
    JobStateError,
    JobStore,
    JobTimeout,
)
from repro import obs
from repro.solvers import SolverError
from repro.study import Study

from .test_sharder import assert_tables_identical

WAIT = 30.0


@pytest.fixture()
def manager(tmp_path):
    instance = JobManager(
        store=JobStore(tmp_path / "jobs"),
        cache=tmp_path / "cache",
    )
    yield instance
    instance.close()


def gated_manager(tmp_path, release):
    """A manager whose shard evaluator blocks until ``release`` is set."""
    started = threading.Event()

    def evaluate(scenario, method):
        started.set()
        if not release.wait(timeout=WAIT):  # pragma: no cover — test hang
            raise TimeoutError("gate never released")
        return explore(scenario, method=method, use_cache=False)

    instance = JobManager(
        store=JobStore(tmp_path / "jobs"),
        cache=tmp_path / "cache",
        evaluate_shard=evaluate,
    )
    return instance, started


class TestSubmitAndResult:
    def test_sharded_job_matches_inline_explore_exactly(self, manager):
        scenario = demo_scenario(frequency_points=3)
        record = manager.submit(scenario, solver="auto", shards=4)
        assert record.state == "queued"
        assert record.progress["shards_total"] == 4
        assert record.progress["points_total"] == scenario.size

        status = manager.wait(record.id, timeout=WAIT)
        assert status["state"] == "done"
        assert status["progress"]["shards_done"] == 4
        assert status["progress"]["points_done"] == scenario.size

        result = manager.job_result(record.id)
        reference = explore(scenario, use_cache=False)
        assert_tables_identical(result._table, reference.table)
        assert result.stats.n_candidates == reference.stats.n_candidates
        assert set(result.stats.phases) >= {"expand", "kernel"}

    def test_merged_result_seeds_the_inline_cache(self, manager):
        scenario = demo_scenario(frequency_points=2)
        record = manager.submit(scenario, solver="auto", shards=3)
        manager.wait(record.id, timeout=WAIT)
        # The merged table was written under the inline explore() key.
        inline = explore(scenario, cache=manager.cache, use_cache=True)
        assert inline.cache_hit

    def test_one_shard_job_reuses_the_sweeps_cache_entry(self, manager):
        scenario = demo_scenario(frequency_points=2)
        Study.from_scenario(scenario).cached(manager.cache).run()
        record = manager.submit(scenario, solver="auto", shards=1)
        assert manager.wait(record.id, timeout=WAIT)["state"] == "done"
        shard_events = [
            event
            for event in manager.store.get(record.id).events
            if event["event"] == "shard"
        ]
        assert [event["cache_hit"] for event in shard_events] == [True]
        assert len(manager.cache.entries()) == 1

    def test_registry_solver_runs_as_one_unit(self, manager):
        scenario = demo_scenario(frequency_points=2)
        record = manager.submit(scenario, solver="closed_form", shards=4)
        assert record.progress["shards_total"] == 1  # options/scalar: no split
        status = manager.wait(record.id, timeout=WAIT)
        assert status["state"] == "done"
        result = manager.job_result(record.id)
        assert len(result) == scenario.size
        assert result.solver == "closed_form"

    def test_bad_submissions_leave_no_record(self, manager):
        scenario = demo_scenario(frequency_points=2)
        with pytest.raises(SolverError):
            manager.submit(scenario, solver="quantum")
        with pytest.raises(SolverError, match="parity_check"):
            manager.submit(scenario, options={"parity_check": False})
        with pytest.raises(ValueError):
            manager.submit(scenario, shards=0)
        assert manager.jobs() == []

    def test_result_of_unfinished_job_is_a_state_error(self, tmp_path):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            record = manager.submit(demo_scenario(frequency_points=2))
            assert started.wait(timeout=WAIT)
            with pytest.raises(JobStateError):
                manager.job_result(record.id)
            with pytest.raises(JobNotFound):
                manager.job("missing")
        finally:
            release.set()
            manager.close()

    def test_wait_times_out(self, tmp_path):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            record = manager.submit(demo_scenario(frequency_points=2))
            assert started.wait(timeout=WAIT)
            with pytest.raises(JobTimeout):
                manager.wait(record.id, timeout=0.2, poll=0.05)
        finally:
            release.set()
            manager.close()


class TestCancel:
    def test_cancel_running_job_stops_remaining_shards(self, tmp_path):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            record = manager.submit(
                demo_scenario(frequency_points=2), shards=4
            )
            assert started.wait(timeout=WAIT)
            payload = manager.cancel(record.id)
            assert payload["state"] in ("running", "cancelled")
            release.set()
            status = manager.wait(record.id, timeout=WAIT)
            assert status["state"] == "cancelled"
            assert status["progress"]["shards_done"] < 4
            with pytest.raises(JobStateError):
                manager.job_result(record.id)
        finally:
            release.set()
            manager.close()

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            blocker = manager.submit(demo_scenario(frequency_points=2))
            assert started.wait(timeout=WAIT)
            queued = manager.submit(demo_scenario(frequency_points=3))
            payload = manager.cancel(queued.id)
            assert payload["state"] == "cancelled"
            release.set()
            manager.wait(blocker.id, timeout=WAIT)
            # The dispatcher must skip the cancelled job, not run it.
            assert manager.job(queued.id)["state"] == "cancelled"
        finally:
            release.set()
            manager.close()

    def test_cancel_terminal_job_is_a_state_error(self, manager):
        record = manager.submit(demo_scenario(frequency_points=2))
        manager.wait(record.id, timeout=WAIT)
        with pytest.raises(JobStateError):
            manager.cancel(record.id)


class TestEventsAndRecovery:
    def test_stream_events_is_ordered_and_complete(self, manager):
        record = manager.submit(demo_scenario(frequency_points=2), shards=3)
        events = list(manager.stream_events(record.id, poll=0.05))
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs)
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states[0] == "queued"
        assert states[-1] == "done"
        shard_events = [e for e in events if e["event"] == "shard"]
        assert len(shard_events) == 3
        assert {e["shard"] for e in shard_events} == {1, 2, 3}

    def test_restart_requeues_and_finishes_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        scenario = demo_scenario(frequency_points=2)
        crashed = store.create(scenario.to_dict(), solver="auto", shards=2)
        store.transition(crashed.id, "running")
        finished = store.create(scenario.to_dict(), solver="auto")
        store.transition(finished.id, "running")
        store.transition(finished.id, "done", cache_key="kept")

        manager = JobManager(store=store, cache=tmp_path / "cache")
        try:
            status = manager.wait(crashed.id, timeout=WAIT)
            assert status["state"] == "done"
            events = store.get(crashed.id).events
            assert any(e.get("requeued") for e in events)
            # Terminal state survived recovery untouched.
            assert manager.job(finished.id)["state"] == "done"
            assert manager.job(finished.id)["cache_key"] == "kept"
        finally:
            manager.close()


class TestStudySubmit:
    def test_study_submit_returns_a_live_async_result(self, manager):
        scenario = demo_scenario(frequency_points=2)
        handle = Study.from_scenario(scenario).solver("auto").submit(
            shards=2, manager=manager
        )
        assert isinstance(handle, AsyncResult)
        status = handle.wait(timeout=WAIT)
        assert status["state"] == "done"
        assert handle.done
        result = handle.result()
        reference = explore(scenario, use_cache=False)
        assert_tables_identical(result._table, reference.table)

    def test_async_result_progress_and_cancel(self, tmp_path):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            handle = Study.from_scenario(
                demo_scenario(frequency_points=2)
            ).submit(shards=2, manager=manager)
            assert started.wait(timeout=WAIT)
            assert handle.state in ("queued", "running")
            assert handle.progress["shards_total"] == 2
            handle.cancel()
            release.set()
            handle.wait(timeout=WAIT)
            assert handle.state == "cancelled"
            with pytest.raises(JobStateError):
                handle.result()
        finally:
            release.set()
            manager.close()

    def test_study_submit_rejects_foreign_managers(self, manager):
        study = Study.from_scenario(demo_scenario(frequency_points=2))
        with pytest.raises(TypeError):
            study.submit(manager=object())


@pytest.fixture()
def fresh_registry():
    """A private metrics registry, restoring the global one afterwards."""
    was_enabled = obs.is_enabled()
    previous = obs.get_registry()
    registry = obs.enable(obs.MetricsRegistry())
    yield registry
    if was_enabled and previous is not None:
        obs.enable(previous)
    else:
        obs.disable()


class TestQueueDepthGauge:
    """``jobs.queue_depth`` must return to 0 on every exit path."""

    def _depth(self, registry):
        return registry.gauge("jobs.queue_depth").value

    def test_cancelling_a_queued_job_releases_the_gauge(
        self, tmp_path, fresh_registry
    ):
        release = threading.Event()
        manager, started = gated_manager(tmp_path, release)
        try:
            blocker = manager.submit(demo_scenario(frequency_points=2))
            assert started.wait(timeout=WAIT)
            queued = manager.submit(demo_scenario(frequency_points=2))
            assert self._depth(fresh_registry) == 1
            manager.cancel(queued.id)
            # The cancel itself must release the slot — not a later
            # dispatcher pass over a job it will skip anyway.
            assert self._depth(fresh_registry) == 0
            release.set()
            manager.wait(blocker.id, timeout=WAIT)
            assert self._depth(fresh_registry) == 0
        finally:
            release.set()
            manager.close()

    def test_failed_job_releases_the_gauge(self, tmp_path, fresh_registry):
        def explode(scenario, method):
            raise RuntimeError("shard exploded")

        manager = JobManager(
            store=JobStore(tmp_path / "jobs"),
            cache=tmp_path / "cache",
            evaluate_shard=explode,
        )
        try:
            record = manager.submit(demo_scenario(frequency_points=2))
            status = manager.wait(record.id, timeout=WAIT)
            assert status["state"] == "failed"
            assert self._depth(fresh_registry) == 0
        finally:
            manager.close()

    def test_completed_job_releases_the_gauge(self, tmp_path, fresh_registry):
        manager = JobManager(
            store=JobStore(tmp_path / "jobs"), cache=tmp_path / "cache"
        )
        try:
            record = manager.submit(
                demo_scenario(frequency_points=2), shards=2
            )
            status = manager.wait(record.id, timeout=WAIT)
            assert status["state"] == "done"
            assert self._depth(fresh_registry) == 0
        finally:
            manager.close()
