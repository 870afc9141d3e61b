"""Chaos suite: every fault site, correct or degraded — never wrong, never hung.

Each test arms the deterministic fault harness at one site and asserts
the system's contract under that failure class:

* results that do come back are byte-for-byte what a fault-free run
  produces (or an honest subset, tagged ``partial``);
* failures surface as structured errors, never silent corruption;
* every path terminates within the suite timeout — no hangs.

The seed comes from ``REPRO_CHAOS_SEED`` (CI runs two fixed seeds), so
a failure seen at one seed reproduces identically until fixed.
"""

import json
import os

import pytest

from repro import obs
from repro.explore.cache import ResultCache
from repro.explore.engine import explore
from repro.explore.scenario import demo_scenario
from repro.jobs import JobManager, JobStore
from repro.jobs.store import STATES
from repro.resilience import FaultPlan, injected_faults
from repro.resilience.faults import FaultError
from repro.service.client import ServiceClient, ServiceError
from repro.service.memcache import MemoryCache, TieredCache
from repro.service.server import ExplorationServer, ServiceConfig

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))
WAIT = 30.0


@pytest.fixture
def registry():
    previous = obs.get_registry()
    registry = obs.enable(obs.MetricsRegistry())
    yield registry
    if previous is not None:
        obs.enable(previous)
    else:
        obs.disable()


def _fresh_tier(tmp_path):
    """A tiered cache with a private memory tier (no process-global LRU)."""
    return TieredCache(ResultCache(tmp_path / "cache"), MemoryCache(32))


def _rows_by_point(result_set):
    return {
        (r.architecture, r.technology, r.frequency): (r.ptot, r.vdd)
        for r in result_set
    }


class TestCacheReadChaos:
    def test_corrupt_hits_quarantine_and_recompute(self, tmp_path, registry):
        scenario = demo_scenario(frequency_points=4)
        baseline = explore(
            scenario, cache=_fresh_tier(tmp_path), use_cache=True
        )
        # Fresh memory tier: the next read must go to (faulty) disk.
        tier = _fresh_tier(tmp_path)
        with injected_faults(f"seed={SEED}; cache.read:always:corrupt"):
            survived = explore(scenario, cache=tier, use_cache=True)
        # Correct, not degraded: the torn entry was quarantined and the
        # sweep recomputed from scratch.
        assert not survived.cache_hit
        assert [r.ptot for r in survived.table.rows()] == [
            r.ptot for r in baseline.table.rows()
        ]
        assert obs.counter_total("cache.disk.quarantined") >= 1
        quarantined = list((tmp_path / "cache").glob("*.quarantined"))
        assert len(quarantined) == 1

    def test_faults_off_rerun_is_a_clean_hit_again(self, tmp_path):
        scenario = demo_scenario(frequency_points=4)
        explore(scenario, cache=_fresh_tier(tmp_path), use_cache=True)
        tier = _fresh_tier(tmp_path)
        with injected_faults(f"seed={SEED}; cache.read:always:corrupt"):
            explore(scenario, cache=tier, use_cache=True)
        # The recompute re-populated the cache; a clean run hits it.
        again = explore(scenario, cache=_fresh_tier(tmp_path), use_cache=True)
        assert again.cache_hit


class TestCacheWriteChaos:
    def test_write_faults_never_lose_the_result(self, tmp_path, registry):
        scenario = demo_scenario(frequency_points=4)
        inline = explore(scenario, use_cache=False)
        with injected_faults(f"seed={SEED}; cache.write:always"):
            survived = explore(
                scenario, cache=_fresh_tier(tmp_path), use_cache=True
            )
        assert [r.ptot for r in survived.table.rows()] == [
            r.ptot for r in inline.table.rows()
        ]
        assert survived.cache_path is None
        assert ResultCache(tmp_path / "cache").entries() == []
        assert obs.counter_total("cache.disk.write_errors") >= 1


class TestShardChaos:
    def make_manager(self, tmp_path, **kwargs):
        return JobManager(
            store=JobStore(tmp_path / "jobs"),
            cache=tmp_path / "cache",
            use_cache=False,
            **kwargs,
        )

    def test_retry_budget_self_heals_one_bad_shard(self, tmp_path, registry):
        scenario = demo_scenario(frequency_points=8)
        truth = {
            (r.architecture, r.technology, r.frequency): (r.ptot, r.vdd)
            for r in explore(scenario, use_cache=False).table.rows()
        }
        manager = self.make_manager(tmp_path, max_shard_retries=1)
        try:
            with injected_faults(f"seed={SEED}; shard.run:n=1"):
                record = manager.submit(scenario, shards=4)
                final = manager.wait(record.id, timeout=WAIT)
            result = manager.job_result(record.id)
            events = manager.store.get(record.id).events
        finally:
            manager.close()
        assert final["state"] == "done"
        assert not final["partial"]
        assert _rows_by_point(result) == truth
        assert obs.counter_total("jobs.shard_retries") == 1
        assert any(event["event"] == "shard_retry" for event in events)

    def test_poisoned_shard_degrades_to_partial_never_wrong(
        self, tmp_path, registry
    ):
        scenario = demo_scenario(frequency_points=8)
        inline = explore(scenario, use_cache=False)
        truth = {
            (r.architecture, r.technology, r.frequency): (r.ptot, r.vdd)
            for r in inline.table.rows()
        }
        manager = self.make_manager(tmp_path, max_shard_retries=0)
        try:
            with injected_faults(f"seed={SEED}; shard.run:n=1"):
                record = manager.submit(scenario, shards=4)
                final = manager.wait(record.id, timeout=WAIT)
            assert final["state"] == "done"
            assert final["partial"]
            result = manager.job_result(record.id)
        finally:
            manager.close()
        assert result.partial
        # Degraded: fewer points than the full sweep ...
        assert 0 < len(result) < scenario.size
        # ... but never wrong: every surviving point matches the
        # fault-free run exactly.
        for key, value in _rows_by_point(result).items():
            assert truth[key] == value
        assert obs.counter_total("jobs.shard_poisoned") == 1
        assert obs.counter_total("jobs.partial_results") == 1

    def test_all_shards_failing_is_a_structured_failure(
        self, tmp_path, registry
    ):
        manager = self.make_manager(tmp_path, max_shard_retries=0)
        try:
            with injected_faults(f"seed={SEED}; shard.run:always"):
                record = manager.submit(
                    demo_scenario(frequency_points=8), shards=4
                )
                final = manager.wait(record.id, timeout=WAIT)
        finally:
            manager.close()
        assert final["state"] == "failed"
        assert "4 shards failed" in final["error"]
        assert obs.counter_total("jobs.shard_poisoned") == 4

    def test_watchdog_requeues_a_hung_shard(self, tmp_path, registry):
        scenario = demo_scenario(frequency_points=8)
        inline = explore(scenario, use_cache=False)
        manager = self.make_manager(
            tmp_path, max_shard_retries=1, shard_timeout=0.25
        )
        try:
            with injected_faults(f"seed={SEED}; shard.run:n=1:hang=1.0"):
                record = manager.submit(scenario, shards=4)
                final = manager.wait(record.id, timeout=WAIT)
            assert final["state"] == "done"
            assert not final["partial"]
            result = manager.job_result(record.id)
            events = manager.store.get(record.id).events
        finally:
            manager.close()
        assert len(result) == scenario.size
        assert _rows_by_point(result) == {
            (r.architecture, r.technology, r.frequency): (r.ptot, r.vdd)
            for r in inline.table.rows()
        }
        assert obs.counter_total("jobs.shard_watchdog_timeouts") >= 1
        assert any(event["event"] == "shard_requeued" for event in events)

    def test_job_deadline_abandons_work_with_a_breach(
        self, tmp_path, registry
    ):
        import time as time_module

        from repro.explore.engine import explore as real_explore

        def slow_shard(scenario, method):
            time_module.sleep(0.4)
            return real_explore(scenario, method=method, use_cache=False)

        manager = JobManager(
            store=JobStore(tmp_path / "jobs"),
            cache=tmp_path / "cache",
            use_cache=False,
            evaluate_shard=slow_shard,
            max_shard_retries=0,
        )
        try:
            record = manager.submit(
                demo_scenario(frequency_points=8), shards=4, deadline_ms=100
            )
            final = manager.wait(record.id, timeout=WAIT)
            events = manager.store.get(record.id).events
        finally:
            manager.close()
        assert final["state"] == "failed"
        assert "deadline" in final["error"]
        assert obs.counter_total("jobs.deadline_breaches") >= 1
        assert any(event["event"] == "deadline" for event in events)


class TestStoreWriteChaos:
    def test_torn_saves_never_corrupt_disk_state(self, tmp_path, registry):
        """Probabilistic write faults: disk state stays parseable JSON.

        Every record file that exists after the storm must parse and
        hold a legal state, and terminal states that *did* reach disk
        must survive a reload — the atomic-write + backup discipline
        under test.
        """
        store = JobStore(tmp_path)
        terminal_on_disk = set()
        with injected_faults(f"seed={SEED}; store.write:p=0.4"):
            for _ in range(12):
                try:
                    record = store.create({"name": "storm"})
                except FaultError:
                    continue
                try:
                    store.transition(record.id, "running")
                    store.update_progress(record.id, points_done=1)
                    store.transition(record.id, "done")
                    terminal_on_disk.add(record.id)
                except FaultError:
                    pass
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["state"] in STATES
        reloaded = JobStore(tmp_path)
        for job_id in terminal_on_disk:
            assert reloaded.get(job_id).state == "done"


class TestHttpResponseChaos:
    def test_first_response_fault_is_structured_then_recovers(self, tmp_path):
        server = ExplorationServer(
            ServiceConfig(
                port=0,
                cache_dir=str(tmp_path / "cache"),
                faults=f"seed={SEED}; http.response:n=1",
            )
        )
        server.start_background()
        try:
            client = ServiceClient(server.url, timeout=WAIT)
            assert server.state.healthz_payload()["faults_armed"] is True
            scenario = demo_scenario(frequency_points=3)
            with pytest.raises(ServiceError) as excinfo:
                client.explore(scenario)
            # The injected fault surfaces as a structured 500, not a
            # torn body or a hang.
            assert excinfo.value.status == 500
            # The n=1 trigger is spent: the service serves cleanly now.
            survived = client.explore(scenario)
            inline = explore(scenario, use_cache=False)
            assert [r.ptot for r in survived] == [
                r.ptot for r in inline.table.rows()
            ]
        finally:
            server.shutdown()
            server.server_close()
        # server_close() disarmed the plan for the whole process.
        from repro.resilience.faults import active

        assert not active()


class TestDeterminism:
    def test_plan_decisions_repeat_across_instances(self):
        spec = f"seed={SEED}; shard.run:p=0.5; cache.read:p=0.3"
        first = FaultPlan.parse(spec)
        second = FaultPlan.parse(spec)
        for site in ("shard.run", "cache.read"):
            assert [
                first.should_fire(site) is not None for _ in range(128)
            ] == [second.should_fire(site) is not None for _ in range(128)]
