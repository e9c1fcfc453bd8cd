"""Unit tests for the serving layer's generation-keyed LRU result cache."""

import pytest

from repro.core.result_cache import (
    DEFAULT_MAXSIZE,
    ResultCache,
    resolve_result_cache,
)


class TestLru:
    def test_get_miss_then_hit(self):
        cache = ResultCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_eviction_is_least_recently_used(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.cache_info().evictions == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.cache_info().evictions == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        info = cache.cache_info()
        assert info.currsize == 0
        assert info.hits == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestGenerationSync:
    def test_generation_change_drops_entries(self):
        cache = ResultCache(maxsize=8)
        cache.sync_generation(1)
        cache.put(("g1", "q"), "answer")
        cache.sync_generation(1)  # no change: entry survives
        assert len(cache) == 1
        cache.sync_generation(2)  # store invalidated: entries dropped
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = ResultCache(maxsize=2)
        assert cache.cache_info().hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.cache_info().hit_rate == pytest.approx(0.5)


class TestResolve:
    def test_off_specs(self):
        assert resolve_result_cache(None) is None
        assert resolve_result_cache(False) is None

    def test_true_uses_default_capacity(self):
        cache = resolve_result_cache(True)
        assert cache.maxsize == DEFAULT_MAXSIZE

    def test_int_is_capacity(self):
        assert resolve_result_cache(17).maxsize == 17

    def test_instance_passthrough(self):
        cache = ResultCache(maxsize=3)
        assert resolve_result_cache(cache) is cache


class TestLayoutFingerprintKeys:
    """The sharded serving path keys entries on the *layout* — shard
    plan fingerprint plus per-shard generations — so a mutation that
    re-shards the collection must drop every cached answer by itself.
    """

    def test_tuple_layout_keys_sync(self):
        cache = ResultCache(maxsize=8)
        layout_v1 = (("starts", (1, 10)), (3, 3))
        cache.sync_generation(layout_v1)
        cache.put((layout_v1, "q"), "answer")
        cache.sync_generation(layout_v1)  # identical layout: survives
        assert len(cache) == 1
        # Same plan, bumped shard generations — a mutation re-shard.
        layout_v2 = (("starts", (1, 10)), (4, 4))
        cache.sync_generation(layout_v2)
        assert len(cache) == 0

    def test_mutation_and_reshard_cycle_never_serves_stale(self, tmp_path):
        """End-to-end: cached sharded answers die with each mutation."""
        from repro.api import Database, DatabaseOptions, NearestRequest
        from repro.datamodel.serializer import serialize
        from repro.datasets import figure1_document

        source = tmp_path / "figure1.xml"
        source.write_text(serialize(figure1_document()), encoding="utf-8")
        db = Database.open(
            str(source),
            options=DatabaseOptions(shards=2, cache=32, backend="vector"),
        )
        try:
            request = NearestRequest(terms=("Bit", "1999"), limit=10)
            before = db.nearest(request).answers
            repeat = db.nearest(request).answers
            assert repeat == before
            assert db.cache_info().hits >= 1  # second ask was served cached

            fragment = "<book><title>Bit</title><year>1999</year></book>"
            db.put("memo", fragment)
            after = db.nearest(request).answers
            assert after != before, "mutation must invalidate cached answers"
            assert any(a["tag"] == "book" for a in after)

            # The cycle again through compaction (fresh layout key).
            db.compact()
            assert db.nearest(request).answers == after
            db.delete("memo")
            assert db.nearest(request).answers == before
        finally:
            db.close()

    def test_monolithic_generation_bump_invalidates(self, tmp_path):
        """The unsharded path keys on store generation: same contract."""
        from repro.api import Database, DatabaseOptions, NearestRequest
        from repro.datamodel.serializer import serialize
        from repro.datasets import figure1_document

        source = tmp_path / "figure1.xml"
        source.write_text(serialize(figure1_document()), encoding="utf-8")
        db = Database.open(
            str(source), options=DatabaseOptions(cache=32, backend="vector")
        )
        try:
            request = NearestRequest(terms=("Bit", "1999"), limit=10)
            before = db.nearest(request).answers
            db.nearest(request)
            assert db.cache_info().hits >= 1
            db.put(
                "memo", "<book><title>Bit</title><year>1999</year></book>"
            )
            after = db.nearest(request).answers
            assert after != before
        finally:
            db.close()


class TestThreadSafety:
    def test_eight_thread_hammer(self):
        """One cache, 8 threads, mixed get/put/sync: counters stay exact.

        The cache backs the multi-threaded HTTP server, so concurrent
        access must neither corrupt the LRU order (KeyError /
        RuntimeError from a racing OrderedDict) nor lose counter
        updates: with the lock, hits + misses equals the total number
        of get() calls exactly.
        """
        import threading

        cache = ResultCache(maxsize=32)
        cache.sync_generation(1)
        gets_per_thread = 2_000
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(gets_per_thread):
                    key = (seed * i) % 48  # some keys shared, some evicted
                    if cache.get(key) is None:
                        cache.put(key, (key, seed))
                    if i % 500 == 0:
                        cache.sync_generation(1)  # no-op sync under load
                    len(cache)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        info = cache.cache_info()
        assert info.hits + info.misses == 8 * gets_per_thread
        assert info.currsize <= 32
