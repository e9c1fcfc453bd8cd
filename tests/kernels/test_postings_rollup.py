"""Unit coverage for the postings algebra and roll-up kernels.

The full-text kernels are exercised against the pure-python paths
(forced via the ``REPRO_KERNELS`` kill-switch) on identical inputs;
the roll-up kernels are pinned to the python Fig. 4/5 DP via the
backend-level differential in ``test_vector_differential``, so here
they only need shape/ordering contracts on handcrafted columns.
"""

import random
from array import array

import pytest

from repro.datasets import multimedia_document, MultimediaConfig
from repro.datasets.textpool import TECH_NOUNS
from repro.fulltext.index import clear_fulltext_index_cache
from repro.fulltext.search import SearchEngine
from repro.monet.transform import monet_transform

np = pytest.importorskip("numpy")

from repro.kernels.postings import (  # noqa: E402
    group_boundaries,
    intersect_columns,
    union_columns,
)


def _cols(pairs):
    pids = np.asarray([pid for pid, _ in pairs], dtype=np.int64)
    oids = np.asarray([oid for _, oid in pairs], dtype=np.int64)
    return pids, oids


class TestPostingsAlgebra:
    def test_intersection_sorted_by_pid_then_oid(self):
        a = _cols([(2, 10), (1, 11), (2, 12), (3, 13)])
        b = _cols([(2, 12), (3, 13), (2, 10), (9, 99)])
        pids, oids = intersect_columns([a, b])
        assert list(zip(pids.tolist(), oids.tolist())) == [
            (2, 10),
            (2, 12),
            (3, 13),
        ]

    def test_intersection_empty(self):
        a = _cols([(1, 10)])
        b = _cols([(2, 20)])
        pids, oids = intersect_columns([a, b])
        assert len(pids) == 0 and len(oids) == 0

    def test_union_keeps_first_seen_order(self):
        a = _cols([(5, 50), (1, 10)])
        b = _cols([(1, 10), (7, 70)])
        pids, oids = union_columns([a, b])
        assert list(zip(pids.tolist(), oids.tolist())) == [
            (5, 50),
            (1, 10),
            (7, 70),
        ]

    def test_int32_columns_bind_at_their_width(self):
        # Snapshot sections are int32 views; keys must still be int64
        # (pid * stride overflows int32 for OIDs past 2**31 / pids).
        big = 2**30
        pairs_a = [(3, big + 1), (1, 7), (3, big)]
        pairs_b = [(3, big), (2, 9), (1, 7)]

        def int32(pairs):
            return tuple(
                memoryview(array("i", column))
                for column in ([p for p, _ in pairs], [o for _, o in pairs])
            )

        for kernel in (intersect_columns, union_columns):
            wide = kernel([_cols(pairs_a), _cols(pairs_b)])
            narrow = kernel([int32(pairs_a), int32(pairs_b)])
            assert [column.tolist() for column in narrow] == [
                column.tolist() for column in wide
            ]
        uniques, starts = group_boundaries(memoryview(array("i", [1, 1, 4])))
        assert (uniques.tolist(), starts.tolist()) == ([1, 4], [0, 2])

    def test_group_boundaries(self):
        sorted_pids = np.asarray([1, 1, 4, 4, 4, 9], dtype=np.int64)
        uniques, starts = group_boundaries(sorted_pids)
        assert uniques.tolist() == [1, 4, 9]
        assert starts.tolist() == [0, 2, 5]

    def test_randomized_against_python_sets(self):
        rng = random.Random(3)
        for _ in range(50):
            columns = []
            pools = []
            for _ in range(rng.randint(2, 4)):
                pairs = sorted(
                    {
                        (rng.randint(0, 6), rng.randint(0, 40))
                        for _ in range(rng.randint(0, 25))
                    },
                    key=lambda pair: rng.random(),
                )
                pools.append(set(pairs))
                columns.append(_cols(pairs))
            pids, oids = intersect_columns(columns)
            expected = set.intersection(*pools) if pools else set()
            assert set(zip(pids.tolist(), oids.tolist())) == expected
            pids, oids = union_columns(columns)
            assert set(zip(pids.tolist(), oids.tolist())) == set.union(
                *pools
            )


class TestFulltextParity:
    """Vector and python tiers answer identically on a real index."""

    @pytest.fixture(scope="class")
    def store(self):
        return monet_transform(
            multimedia_document(MultimediaConfig(items=40))
        )

    def _snapshot(self, store):
        engine = SearchEngine(store)
        index = engine.index
        words = list(TECH_NOUNS)[:10]
        probes = {}
        for word in words:
            hits = index.search(word)
            probes[("token", word)] = (
                list(hits.oids()),
                [(p.pid, p.oid) for p in hits.postings],
                sorted((pid, list(g)) for pid, g in hits.by_pid().items()),
                list(hits.oid_column()),
            )
        for word in words[:5]:
            hits = index.search_prefix(word[:3])
            probes[("prefix", word[:3])] = [
                (p.pid, p.oid) for p in hits.postings
            ]
        for pair in [tuple(words[:2]), tuple(words[2:4]), tuple(words[:3])]:
            probes[("any", pair)] = [
                (p.pid, p.oid) for p in index.search_any(pair).postings
            ]
            probes[("conj", pair)] = [
                (p.pid, p.oid)
                for p in index.search_conjunctive(pair).postings
            ]
        return probes

    def test_tiers_agree(self, store, monkeypatch):
        clear_fulltext_index_cache()
        vector = self._snapshot(store)
        monkeypatch.setenv("REPRO_KERNELS", "python")
        clear_fulltext_index_cache()
        python = self._snapshot(store)
        assert vector.keys() == python.keys()
        for probe in vector:
            assert vector[probe] == python[probe], probe

    def test_oid_column_is_plain_array(self, store):
        """Kernel outputs must not leak np.int64 into OID validation."""
        clear_fulltext_index_cache()
        index = SearchEngine(store).index
        word = list(TECH_NOUNS)[0]
        column = index.search(word).oid_column()
        assert isinstance(column, array)
        merged = index.search_any(list(TECH_NOUNS)[:2]).oid_column()
        for oid in list(merged)[:5]:
            assert type(oid) is int
        conj = index.search_conjunctive(list(TECH_NOUNS)[:2])
        for posting in conj.postings[:5]:
            assert type(posting.oid) is int
