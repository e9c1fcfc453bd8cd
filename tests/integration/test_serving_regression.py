"""Serving-path regression tests: repeated queries must reuse every
derived structure.

The contract this file pins down: answering a query stream against one
loaded store builds the full-text index once, builds the Euler-RMQ LCA
index once (vector backend), and — with the result cache enabled —
computes each distinct (normalized) query once.  Invalidating the
store drops all of it, including the result cache.
"""

import pytest

from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import (
    clear_lca_index_cache,
    lca_index_cache_info,
)
from repro.core.result_cache import ResultCache
from repro.datasets import figure1_document
from repro.fulltext.index import (
    clear_fulltext_index_cache,
    fulltext_index_cache_info,
)
from repro.monet.transform import monet_transform
from repro.query.executor import QueryProcessor


@pytest.fixture()
def store():
    # A private store: the cache counters below must not be polluted
    # by the session-scoped fixture stores.
    return monet_transform(figure1_document())


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_fulltext_index_cache()
    clear_lca_index_cache()
    yield
    clear_fulltext_index_cache()
    clear_lca_index_cache()


class TestNoRebuilds:
    def test_consecutive_queries_share_both_indexes(self, store):
        engine = NearestConceptEngine(store, backend="vector")
        first = engine.nearest_concepts("Bit", "1999")
        fulltext_after_first = fulltext_index_cache_info()
        lca_after_first = lca_index_cache_info()
        assert fulltext_after_first.builds == 1
        assert lca_after_first.builds == 1

        second = engine.nearest_concepts("Bit", "1999")
        fulltext_after_second = fulltext_index_cache_info()
        lca_after_second = lca_index_cache_info()
        assert second == first
        # No rebuilds: only the hit counters moved.
        assert fulltext_after_second.builds == 1
        assert lca_after_second.builds == 1
        assert fulltext_after_second.hits > fulltext_after_first.hits
        assert lca_after_second.hits > lca_after_first.hits

    def test_two_engines_share_one_fulltext_build(self, store):
        NearestConceptEngine(store).nearest_concepts("Bit", "1999")
        NearestConceptEngine(store).nearest_concepts("Bit", "1999")
        assert fulltext_index_cache_info().builds == 1

    def test_invalidate_rebuilds_lazily_once(self, store):
        engine = NearestConceptEngine(store, backend="vector")
        engine.nearest_concepts("Bit", "1999")
        store.invalidate_caches()
        engine.nearest_concepts("Bit", "1999")
        engine.nearest_concepts("Bit", "1999")
        assert fulltext_index_cache_info().builds == 2
        assert lca_index_cache_info().builds == 2


class TestEngineResultCache:
    def test_second_call_is_a_cache_hit(self, store):
        engine = NearestConceptEngine(store, backend="vector", cache=64)
        first = engine.nearest_concepts("Bit", "1999")
        second = engine.nearest_concepts("Bit", "1999")
        assert second == first
        info = engine.cache_info()
        assert info.hits == 1
        assert info.misses == 1

    def test_term_order_and_duplicates_normalize(self, store):
        engine = NearestConceptEngine(store, cache=64)
        first = engine.nearest_concepts("Bit", "1999")
        assert engine.nearest_concepts("1999", "Bit") == first
        assert engine.nearest_concepts("Bit", "1999", "Bit") == first
        assert engine.cache_info().hits == 2

    def test_distinct_options_are_distinct_entries(self, store):
        engine = NearestConceptEngine(store, cache=64)
        engine.nearest_concepts("Bit", "1999")
        engine.nearest_concepts("Bit", "1999", limit=1)
        engine.nearest_concepts("Bit", "1999", exclude_root=True)
        assert engine.cache_info().misses == 3

    def test_cached_list_is_a_private_copy(self, store):
        engine = NearestConceptEngine(store, cache=64)
        first = engine.nearest_concepts("Bit", "1999")
        first.clear()
        assert engine.nearest_concepts("Bit", "1999") != []

    def test_invalidate_caches_drops_result_cache(self, store):
        engine = NearestConceptEngine(store, backend="vector", cache=64)
        engine.nearest_concepts("Bit", "1999")
        assert len(engine.result_cache) == 1
        store.invalidate_caches()
        # The next query syncs to the new generation: the stale entry
        # is gone and the query recomputes (a miss, then one entry).
        engine.nearest_concepts("Bit", "1999")
        info = engine.cache_info()
        assert info.hits == 0
        assert info.misses == 2
        assert info.currsize == 1

    def test_results_identical_with_and_without_cache(self, store):
        plain = NearestConceptEngine(store, backend="vector")
        caching = NearestConceptEngine(store, backend="vector", cache=64)
        for _ in range(2):
            for terms in [("Bit", "1999"), ("Bob", "Byte"), ("Hack", "1999")]:
                assert caching.nearest_concepts(*terms) == plain.nearest_concepts(
                    *terms
                )

    def test_shared_cache_across_engines(self, store):
        shared = ResultCache(maxsize=32)
        NearestConceptEngine(store, cache=shared).nearest_concepts("Bit", "1999")
        NearestConceptEngine(store, cache=shared).nearest_concepts("Bit", "1999")
        assert shared.cache_info().hits == 1

    def test_shared_cache_never_crosses_case_modes(self, store):
        """Differently configured engines sharing one cache must not
        serve each other's answers (the key embeds the case mode)."""
        shared = ResultCache(maxsize=32)
        sensitive = NearestConceptEngine(
            store, case_sensitive=True, cache=shared
        )
        folded = NearestConceptEngine(store, cache=shared)
        # Case-sensitive: "bit" misses, only the two "1999" hits meet;
        # case-folded: "bit" matches "Bit", adding cross-term concepts.
        from_sensitive = sensitive.nearest_concepts("bit", "1999")
        from_folded = folded.nearest_concepts("bit", "1999")
        assert from_sensitive != from_folded
        assert shared.cache_info().hits == 0
        assert shared.cache_info().misses == 2


class TestTopKFastPath:
    def test_limit_equals_sort_then_truncate(self):
        """The heap-selected top-k (cheap keys, winners-only annotation)
        must equal the full sort-then-truncate pipeline exactly — the
        OID tiebreak makes sort_key a strict total order."""
        import random as random_module

        from repro.datasets.randomtree import random_document
        from repro.datasets.textpool import TECH_NOUNS

        store = monet_transform(random_document(11, nodes=600))
        engine = NearestConceptEngine(store, backend="vector")
        words = list(TECH_NOUNS)[:8]
        rng = random_module.Random(5)
        for _ in range(15):
            terms = rng.sample(words, 2)
            within = rng.choice([None, 3, 8])
            full = engine.nearest_concepts(*terms, within=within)
            for k in (1, 3, 7):
                fast = engine.nearest_concepts(*terms, within=within, limit=k)
                assert fast == full[:k]


class TestProcessorResultCache:
    QUERY = (
        "select meet($a, $b) from # $a, # $b "
        "where $a contains 'Bit' and $b contains '1999'"
    )

    def test_repeat_query_hits(self, store):
        processor = QueryProcessor(store, cache=16)
        first = processor.execute(self.QUERY)
        second = processor.execute("  " + self.QUERY.replace("  ", " ") + " ")
        assert second.rows == first.rows
        assert processor.cache_info().hits == 1

    def test_cached_result_is_a_private_copy(self, store):
        processor = QueryProcessor(store, cache=16)
        first = processor.execute(self.QUERY)
        first.rows.clear()
        assert processor.execute(self.QUERY).rows

    def test_invalidate_drops_processor_cache(self, store):
        processor = QueryProcessor(store, cache=16)
        processor.execute(self.QUERY)
        store.invalidate_caches()
        processor.execute(self.QUERY)
        info = processor.cache_info()
        assert info.hits == 0
        assert info.misses == 2
