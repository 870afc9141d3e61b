"""Content hashing and the on-disk result cache."""

import os

import pytest

from repro.explore.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    canonical_json,
    content_hash,
    default_cache_dir,
)


class TestContentHash:
    def test_key_order_does_not_matter(self):
        assert content_hash({"a": 1, "b": [1, 2]}) == content_hash(
            {"b": [1, 2], "a": 1}
        )

    def test_value_changes_do(self):
        assert content_hash({"a": 1}) != content_hash({"a": 2})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestResultCache:
    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("absent") is None

    def test_put_then_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"points": [1, 2, 3], "stats": {"n": 3}}
        path = cache.put("key", payload)
        assert path == cache.path_for("key")
        assert cache.get("key") == payload

    def test_corrupt_entry_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("key", {"ok": True})
        cache.path_for("key").write_text("{broken", encoding="utf-8")
        assert cache.get("key") is None

    def test_put_is_atomic_no_temp_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("key", {"ok": True})
        assert [p.suffix for p in tmp_path.iterdir()] == [".col"]

    def test_entries_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("one", {})
        cache.put("two", {})
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_pre_v3_json_entries_are_listed_but_never_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("new", {"v": 1})
        old = tmp_path / "old.json"
        old.write_text('{"columns": {}}', encoding="utf-8")
        os.utime(old, (1.0, 1.0))
        assert cache.get("old") is None and old.exists()
        assert cache.entries() == sorted([cache.path_for("new"), old])
        assert cache.stats()["total_bytes"] == sum(
            path.stat().st_size for path in cache.entries()
        )
        assert cache.prune(1) == 1
        assert cache.entries() == [cache.path_for("new")]
        old.write_text("{}", encoding="utf-8")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []

    def test_entries_on_missing_dir(self, tmp_path):
        assert ResultCache(tmp_path / "nope").entries() == []

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats() == {
            "directory": str(tmp_path), "entries": 0, "total_bytes": 0,
            "quarantined": 0,
        }
        cache.put("one", {"v": 1})
        cache.put("two", {"v": 2})
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["total_bytes"] == sum(
            path.stat().st_size for path in cache.entries()
        )

    def test_prune_keeps_newest(self, tmp_path):
        import time

        cache = ResultCache(tmp_path)
        for index in range(4):
            cache.put(f"k{index}", {"v": index})
            mtime = time.time() + index  # force distinct, ordered mtimes
            os.utime(cache.path_for(f"k{index}"), (mtime, mtime))
        assert cache.prune(2) == 2
        assert cache.get("k3") == {"v": 3}
        assert cache.get("k2") == {"v": 2}
        assert cache.get("k0") is None and cache.get("k1") is None

    def test_prune_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {})
        assert cache.prune(0) == 1
        assert cache.entries() == []

    def test_prune_beyond_size_is_a_noop(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {})
        assert cache.prune(10) == 0
        assert len(cache.entries()) == 1

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path).prune(-1)

    def test_unwritable_put_raises_oserror(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root bypasses permission bits")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o500)
        with pytest.raises(OSError):
            ResultCache(blocked).put("key", {})
