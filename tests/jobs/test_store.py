"""JobStore: atomic persistence, sticky terminal states, change signal."""

import json
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.scenario import demo_scenario
from repro.jobs import JobNotFound, JobStore
from repro.jobs.store import (
    MAX_EVENTS,
    STATES,
    TERMINAL_STATES,
    JobRecord,
    _record_bytes,
)


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def make_job(store, **kwargs):
    scenario = demo_scenario(frequency_points=2).to_dict()
    return store.create(scenario, **kwargs)


def record_json(record):
    """A record file as one ``json.dumps`` of the whole record writes it:
    the oracle for ``_record_bytes``, which encodes the scenario apart."""
    return json.dumps(record.to_dict()).encode("utf-8")


def count_record_writes(monkeypatch):
    """The file name of every ``<id>.json`` write through ``JobStore._write``."""
    names = []
    write = JobStore._write

    def spy(self, path, data, backup=False):
        if path.suffix == ".json":
            names.append(path.name)
        return write(self, path, data, backup=backup)

    monkeypatch.setattr(JobStore, "_write", spy)
    return names


#: Text that JSON must escape: quotes, backslashes, NUL and other control
#: characters, and non-ASCII, mixed with plain letters.
TEXT = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "é", "€", "😀", "a", " "]),
    max_size=8,
) | st.text(max_size=8)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def records(draw):
    """Live and terminal records, their event windows trimmed or not."""
    trimmed = draw(st.integers(0, 2 * MAX_EVENTS))
    events = [
        {"ts": draw(st.floats(0, 2e9)), "seq": trimmed + index, "event": draw(TEXT),
         **draw(st.dictionaries(TEXT, JSON_VALUES, max_size=2))}
        for index in range(1, draw(st.integers(0, 5)) + 1)
    ]
    return JobRecord(
        id=draw(TEXT),
        scenario=draw(
            st.just(demo_scenario(frequency_points=3).to_dict())
            | st.dictionaries(TEXT, JSON_VALUES, max_size=4)
        ),
        solver=draw(TEXT),
        options=draw(st.dictionaries(TEXT, JSON_VALUES, max_size=3)),
        shards=draw(st.none() | st.integers(1, 64)),
        state=draw(st.sampled_from(STATES)),
        created_at=draw(st.floats(0, 2e9)),
        updated_at=draw(st.floats(0, 2e9)),
        progress=draw(st.dictionaries(TEXT, st.integers(0, 10**6), max_size=4)),
        events=events,
        error=draw(TEXT),
        cache_key=draw(TEXT),
        stats=draw(st.none() | st.dictionaries(TEXT, JSON_VALUES, max_size=3)),
        event_seq=trimmed + len(events),
        trace=draw(st.none() | st.dictionaries(TEXT, TEXT, max_size=2)),
        idempotency_key=draw(TEXT),
        deadline_ms=draw(st.none() | st.integers(1, 10**7)),
        partial=draw(st.booleans()),
    )


class TestLifecycle:
    def test_create_persists_a_queued_record(self, store):
        record = make_job(store, solver="auto", shards=4)
        assert record.state == "queued"
        assert record.shards == 4
        assert store.get(record.id) is record
        on_disk = json.loads(store.path_for(record.id).read_text())
        assert on_disk["id"] == record.id
        assert on_disk["state"] == "queued"
        assert on_disk["events"][0]["state"] == "queued"

    def test_transition_walks_the_lifecycle(self, store):
        record = make_job(store)
        store.transition(record.id, "running")
        assert store.get(record.id).state == "running"
        store.transition(record.id, "done", stats={"n_candidates": 3})
        final = store.get(record.id)
        assert final.state == "done"
        assert final.terminal
        assert final.stats == {"n_candidates": 3}
        states = [e["state"] for e in final.events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]

    def test_terminal_states_are_sticky(self, store):
        record = make_job(store)
        store.transition(record.id, "running")
        store.transition(record.id, "cancelled")
        # A racing finisher cannot resurrect or overwrite the outcome.
        after = store.transition(record.id, "done")
        assert after.state == "cancelled"
        assert store.get(record.id).state == "cancelled"

    def test_unknown_state_and_job_are_rejected(self, store):
        record = make_job(store)
        with pytest.raises(ValueError):
            store.transition(record.id, "paused")
        with pytest.raises(JobNotFound):
            store.get("no-such-job")
        with pytest.raises(JobNotFound):
            store.transition("no-such-job", "running")

    def test_list_is_newest_first(self, store):
        ids = [make_job(store).id for _ in range(3)]
        listed = [record.id for record in store.list()]
        assert set(listed) == set(ids)
        created = {r.id: r.created_at for r in store.list()}
        assert listed == sorted(
            listed, key=lambda i: (created[i], i), reverse=True
        )

    def test_state_tables_cover_each_other(self):
        assert set(TERMINAL_STATES) < set(STATES)
        assert "queued" in STATES and "running" in STATES


class TestEvents:
    def test_events_carry_monotonic_seq(self, store):
        record = make_job(store)
        for shard in range(3):
            store.add_event(record.id, "shard", shard=shard + 1, of=3)
        seqs = [e["seq"] for e in store.get(record.id).events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_event_window_trims_but_seq_keeps_counting(self, store):
        record = make_job(store)
        for i in range(MAX_EVENTS + 20):
            store.add_event(record.id, "tick", i=i)
        refreshed = store.get(record.id)
        assert len(refreshed.events) == MAX_EVENTS
        # +1 for the initial queued event.
        assert refreshed.events[-1]["seq"] == MAX_EVENTS + 21
        assert refreshed.event_seq == MAX_EVENTS + 21

    def test_update_progress_merges_counters(self, store):
        record = make_job(store, progress={"shards_total": 4, "shards_done": 0})
        store.update_progress(record.id, shards_done=2, points_done=100)
        progress = store.get(record.id).progress
        assert progress == {
            "shards_total": 4,
            "shards_done": 2,
            "points_done": 100,
        }


class TestRecordBytes:
    @settings(max_examples=200, deadline=None)
    @given(records())
    def test_record_bytes_are_one_dumps_of_the_record(self, record):
        expected = record_json(record)
        assert _record_bytes(record) == expected
        assert _record_bytes(record, json.dumps(record.scenario)) == expected
        assert list(json.loads(expected))[:2] == ["id", "scenario"]

    @settings(max_examples=25, deadline=None)
    @given(
        scenario=st.dictionaries(TEXT, JSON_VALUES, max_size=4),
        options=st.dictionaries(TEXT, JSON_VALUES, max_size=3),
        trace=st.none() | st.dictionaries(TEXT, TEXT, min_size=1, max_size=2),
        key=TEXT,
        note=TEXT,
        shards=st.integers(0, 3),
        final=st.sampled_from(TERMINAL_STATES),
    )
    def test_every_save_writes_one_dumps_of_the_record(
        self, scenario, options, trace, key, note, shards, final
    ):
        with tempfile.TemporaryDirectory() as directory:
            store = JobStore(directory)
            record = store.create(
                scenario, options=options, trace=trace, idempotency_key=key
            )
            path = store.path_for(record.id)
            assert path.read_bytes() == record_json(record)
            assert record.id in store._scenarios
            store.transition(record.id, "running")
            for shard in range(shards):
                store.add_event(
                    record.id, "shard", progress={"shards_done": shard + 1},
                    note=note,
                )
                assert path.read_bytes() == record_json(record)
            store.transition(record.id, final, error=note)
            assert path.read_bytes() == record_json(record)
            # The terminal save drops the encoded scenario, and a later
            # save of the finished job does not bring it back.
            assert record.id not in store._scenarios
            store.add_event(record.id, "late", note=note)
            assert path.read_bytes() == record_json(record)
            assert store._scenarios == {}

    def test_a_trimmed_event_window_saves_exactly(self, store):
        record = make_job(store)
        for i in range(MAX_EVENTS + 3):
            store.add_event(record.id, "tick", i=i)
        assert record.events[0]["seq"] == 5
        assert store.path_for(record.id).read_bytes() == record_json(record)


class TestRecordWrites:
    def test_unchanged_progress_writes_nothing(self, store, monkeypatch):
        record = make_job(store, progress={"shards_done": 0, "points_done": 0})
        writes = count_record_writes(monkeypatch)
        version = store.version
        store.update_progress(record.id, shards_done=0, points_done=0)
        store.update_progress(record.id, points_done=0)
        assert writes == []
        assert store.version == version
        store.update_progress(record.id, shards_done=0, points_done=5)
        assert writes == [f"{record.id}.json"]
        assert store.version == version + 1

    def test_an_event_carries_its_progress_in_one_save(self, store, monkeypatch):
        record = make_job(store, progress={"shards_total": 2, "shards_done": 0})
        writes = count_record_writes(monkeypatch)
        store.add_event(record.id, "shard", progress={"shards_done": 1}, shard=1)
        assert writes == [f"{record.id}.json"]
        on_disk = json.loads(store.path_for(record.id).read_text())
        assert on_disk["progress"] == {"shards_total": 2, "shards_done": 1}
        assert on_disk["events"][-1]["event"] == "shard"
        assert "progress" not in on_disk["events"][-1]


class TestPersistence:
    def test_restart_reloads_terminal_states_exactly(self, store, tmp_path):
        done = make_job(store)
        store.transition(done.id, "running")
        store.transition(done.id, "done", cache_key="abc123")
        failed = make_job(store)
        store.transition(failed.id, "failed", error="ValueError: boom")
        queued = make_job(store)

        reborn = JobStore(tmp_path / "jobs")
        assert reborn.get(done.id).state == "done"
        assert reborn.get(done.id).cache_key == "abc123"
        assert reborn.get(failed.id).state == "failed"
        assert reborn.get(failed.id).error == "ValueError: boom"
        assert reborn.get(queued.id).state == "queued"
        assert reborn.get(done.id).event_seq == store.get(done.id).event_seq

    def test_corrupt_files_are_skipped_not_fatal(self, store, tmp_path):
        good = make_job(store)
        (tmp_path / "jobs" / "garbage.json").write_text("{not json")
        (tmp_path / "jobs" / "short.json").write_text("[]")
        reborn = JobStore(tmp_path / "jobs")
        assert reborn.get(good.id).id == good.id
        assert len(reborn.list()) == 1

    def test_result_round_trip_and_absence(self, store):
        record = make_job(store)
        assert store.read_result(record.id) is None
        store.write_result(record.id, {"n_records": 7, "columns": {}})
        assert store.read_result(record.id)["n_records"] == 7
        # Result files must not be mistaken for job records on reload.
        reborn = JobStore(store.directory)
        assert len(reborn.list()) == 1


class TestChangeNotification:
    def test_every_save_bumps_the_version(self, store):
        before = store.version
        record = make_job(store)
        assert store.version > before
        mid = store.version
        store.transition(record.id, "running")
        assert store.version > mid

    def test_wait_for_change_wakes_on_mutation(self, store):
        record = make_job(store)
        version = store.version
        results = []

        def waiter():
            results.append(store.wait_for_change(version, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        store.transition(record.id, "running")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results and results[0] > version

    def test_wait_for_change_times_out_quietly(self, store):
        version = store.version
        assert store.wait_for_change(version, timeout=0.05) == version

    def test_stats_tallies_by_state(self, store):
        a = make_job(store)
        make_job(store)
        store.transition(a.id, "running")
        stats = store.stats()
        assert stats["jobs"] == 2
        assert stats["by_state"] == {"queued": 1, "running": 1}
        assert stats["directory"].endswith("jobs")
