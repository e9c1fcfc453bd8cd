"""Unit coverage for the postings algebra kernels.

The full-text searches built on them are exercised against python set
algebra over the same term postings; the roll-up kernels are pinned to
the steered Fig. 4/5 walks by the backend-level differential in
``test_vector_differential``.
"""

import random
from array import array

import numpy as np
import pytest

from repro.datasets import multimedia_document, MultimediaConfig
from repro.datasets.textpool import TECH_NOUNS
from repro.fulltext.index import clear_fulltext_index_cache
from repro.fulltext.search import SearchEngine
from repro.kernels.postings import (
    intersect_columns,
    union_columns,
)
from repro.monet.transform import monet_transform


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


def _postings(hits):
    return [(p.pid, p.oid) for p in hits.postings]


def _first_seen_union(postings_lists):
    """The deduplicating merge loop: each posting where it first shows."""
    return list(dict.fromkeys(
        posting for postings in postings_lists for posting in postings
    ))


class TestFulltextParity:
    """The kernel-backed searches answer like python set algebra over
    the same per-term postings, on a real index."""

    @pytest.fixture(scope="class")
    def store(self):
        return monet_transform(
            multimedia_document(MultimediaConfig(items=40))
        )

    def test_tiers_agree(self, store):
        clear_fulltext_index_cache()
        index = SearchEngine(store).index
        words = list(TECH_NOUNS)[:10]
        for word in words:
            hits = index.search(word)
            assert list(hits.oid_column()) == sorted(set(hits.oids())), word
        for word in words[:5]:
            prefix = word[:3]
            matching = [
                _postings(index.search(token))
                for token in index.vocabulary()
                if token.startswith(prefix)
            ]
            assert _postings(index.search_prefix(prefix)) == (
                _first_seen_union(matching)
            ), prefix

    def test_oid_column_is_plain_array(self, store):
        """Kernel outputs must not leak np.int64 into OID validation."""
        clear_fulltext_index_cache()
        index = SearchEngine(store).index
        word = list(TECH_NOUNS)[0]
        column = index.search(word).oid_column()
        assert isinstance(column, array)
        merged = index.search_prefix(word[:2]).oid_column()
        assert len(merged) >= len(column) > 0
        for oid in list(merged)[:5]:
            assert type(oid) is int
