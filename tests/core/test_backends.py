"""Differential tests: the ``vector`` backend must agree with the
paper-faithful ``steered`` backend on every operator and every bundled
dataset — identical meet OIDs, identical origin coverage, identical
distances.  Only emission order (and the availability of walk traces)
may differ.
"""

from collections import Counter
from typing import Dict, Set, Tuple

import numpy as np
import pytest

from repro.api import DatabaseOptions
from repro.core.backends import (
    BACKEND_NAMES,
    MeetBackend,
    SteeredBackend,
    VectorBackend,
    resolve_backend,
)
from repro.core.engine import NearestConceptEngine
from repro.core.graph_meet import graph_distance, graph_meet, graph_shortest_path
from repro.core.lca_index import clear_lca_index_cache, get_lca_index
from repro.core.meet_general import TaggedMeet, group_by_pid
from repro.core.restrictions import bounded_meet2
from repro.datamodel.errors import ModelError
from repro.datasets import plays_document, random_document
from repro.datasets.randomtree import random_oid_pairs
from repro.monet.transform import monet_transform


@pytest.fixture(scope="module")
def plays_store():
    store = monet_transform(plays_document())
    store.validate()
    return store


@pytest.fixture(scope="module")
def random_stores():
    return [
        monet_transform(random_document(seed, nodes=300)) for seed in (3, 11)
    ]


def _all_stores(request):
    return [
        request.getfixturevalue("figure1_store"),
        request.getfixturevalue("dblp_store"),
        request.getfixturevalue("plays_store"),
        request.getfixturevalue("multimedia_planted")[0],
        *request.getfixturevalue("random_stores"),
    ]


def _backends(store):
    return SteeredBackend(store), VectorBackend(store)


def _meet_tagged_sets(vector, tagged):
    """The per-OID-set roll-up over the auxiliary tree — the reference
    the level-wise array propagation is held to (same auxiliary tree,
    one python ``set`` per node, walked in reverse pre-order)."""
    by_oid: Dict[int, Set[Tuple[object, int]]] = {}
    for token, oid in tagged:
        by_oid.setdefault(oid, set()).add((token, oid))
    if not by_oid:
        return []
    order, _, parent_index = vector.kernels.auxiliary_tree(
        np.fromiter(by_oid, dtype=np.int64)
    )
    order, parent_index = order.tolist(), parent_index.tolist()
    accumulated = {oid: set(tokens) for oid, tokens in by_oid.items()}
    meets = []
    for position in range(len(order) - 1, -1, -1):
        oid = order[position]
        tokens = accumulated.get(oid)
        if not tokens:
            continue
        if len(tokens) >= 2:
            meets.append(TaggedMeet(oid=oid, tokens=frozenset(tokens)))
            continue
        above = parent_index[position]
        if above >= 0:
            accumulated.setdefault(order[above], set()).update(tokens)
    return meets


class TestPairwise:
    def test_meet_identical_on_all_datasets(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            for oid1, oid2 in random_oid_pairs(store, 250, seed=5):
                expected = steered.meet(oid1, oid2)
                actual = vector.meet(oid1, oid2)
                assert actual.oid == expected.oid
                assert actual.joins == expected.joins

    def test_meet_many_matches_loop(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            pairs = random_oid_pairs(store, 100, seed=9)
            assert vector.meet_many(pairs) == steered.meet_many(pairs)

    def test_meet_within_identical(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            for oid1, oid2 in random_oid_pairs(store, 60, seed=2):
                for k in (-1, 0, 1, 2, 5, 50):
                    assert vector.meet_within(oid1, oid2, k) == steered.meet_within(
                        oid1, oid2, k
                    )

    def test_equal_oids_short_circuit(self, figure1_store):
        steered, vector = _backends(figure1_store)
        oid = figure1_store.root_oid
        assert vector.meet(oid, oid) == steered.meet(oid, oid)
        assert vector.meet_within(oid, oid, 0) == steered.meet_within(oid, oid, 0)
        assert vector.meet_many([(oid, oid)]) == steered.meet_many([(oid, oid)])

    def test_bounded_meet2_threads_backend(self, figure1_store):
        steered, vector = _backends(figure1_store)
        for oid1, oid2 in random_oid_pairs(figure1_store, 40, seed=1):
            for k in (0, 3, 10):
                assert bounded_meet2(
                    figure1_store, oid1, oid2, k, backend=vector
                ) == bounded_meet2(figure1_store, oid1, oid2, k, backend=steered)


class TestRollUps:
    def _sample_oids(self, store, count, seed):
        return sorted({a for a, _ in random_oid_pairs(store, count, seed=seed)})

    def test_meet_general_identical(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            relations = group_by_pid(store, self._sample_oids(store, 40, seed=13))
            expected = {(m.oid, m.origins) for m in steered.meet_general(relations)}
            actual = {(m.oid, m.origins) for m in vector.meet_general(relations)}
            assert actual == expected

    def test_meet_tagged_identical(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            oids = self._sample_oids(store, 40, seed=17)
            tagged = [
                (("alpha", "beta", "gamma")[i % 3], oid)
                for i, oid in enumerate(oids)
            ]
            assert set(vector.meet_tagged(tagged)) == set(
                steered.meet_tagged(tagged)
            )

    def test_meet_sets_identical(self, request):
        for store in _all_stores(request):
            steered, vector = _backends(store)
            counts = Counter(store.pid_of(oid) for oid in store.iter_oids())
            rich_pids = [pid for pid, n in counts.items() if n >= 3][:4]
            for left_pid in rich_pids:
                for right_pid in rich_pids:
                    left = store.oids_on_pid(left_pid)[:8]
                    right = store.oids_on_pid(right_pid)[:8]
                    assert set(vector.meet_sets(left, right)) == set(
                        steered.meet_sets(left, right)
                    )

    def test_bitmask_rollup_matches_set_rollup(self, request):
        """The level-wise array propagation equals the per-OID-set
        reference roll-up (and hence the steered walks) on every bundled
        dataset, including heavy multi-term workloads with shared OIDs."""
        for store in _all_stores(request):
            steered, vector = _backends(store)
            oids = self._sample_oids(store, 120, seed=29)
            tagged = [("t%d" % (i % 5), oid) for i, oid in enumerate(oids)]
            # Same OID under several tokens exercises the "Bob Byte" case.
            tagged += [("t0", oid) for oid in oids[:10]]
            via_arrays = vector.meet_tagged(tagged)
            via_sets = _meet_tagged_sets(vector, tagged)
            via_steered = steered.meet_tagged(tagged)
            assert set(via_arrays) == set(via_sets) == set(via_steered)
            # Both auxiliary-tree roll-ups share the emission order too.
            assert via_arrays == via_sets

    def test_meet_sets_rejects_mixed_input(self, figure1_store):
        _, vector = _backends(figure1_store)
        counts = Counter(
            figure1_store.pid_of(oid) for oid in figure1_store.iter_oids()
        )
        (pid1, _), (pid2, _) = counts.most_common(2)
        mixed = figure1_store.oids_on_pid(pid1)[:1] + figure1_store.oids_on_pid(pid2)[:1]
        with pytest.raises(ModelError):
            vector.meet_sets(mixed, figure1_store.oids_on_pid(pid1)[:1])


class TestGraphShortcut:
    def test_tree_only_graph_meet_matches_bfs(self, request):
        for store in _all_stores(request):
            _, vector = _backends(store)
            for oid1, oid2 in random_oid_pairs(store, 40, seed=23):
                via_bfs = graph_meet(store, oid1, oid2)
                via_index = graph_meet(store, oid1, oid2, backend=vector)
                assert via_index == via_bfs
                assert graph_distance(
                    store, oid1, oid2, backend=vector
                ) == graph_distance(store, oid1, oid2)
                assert graph_shortest_path(
                    store, oid1, oid2, backend=vector
                ) == graph_shortest_path(store, oid1, oid2)

    def test_max_distance_respected(self, figure1_store):
        _, vector = _backends(figure1_store)
        for oid1, oid2 in random_oid_pairs(figure1_store, 30, seed=3):
            for bound in (0, 1, 4):
                assert graph_distance(
                    figure1_store, oid1, oid2, max_distance=bound, backend=vector
                ) == graph_distance(figure1_store, oid1, oid2, max_distance=bound)


class TestEnginePipeline:
    QUERIES = [("Bit", "1999"), ("Hack", "1999"), ("Bob", "Byte")]

    def test_nearest_concepts_identical(self, figure1_store):
        steered_engine = NearestConceptEngine(figure1_store, backend="steered")
        vector_engine = NearestConceptEngine(figure1_store, backend="vector")
        for terms in self.QUERIES:
            assert vector_engine.nearest_concepts(
                *terms
            ) == steered_engine.nearest_concepts(*terms)

    def test_nearest_concepts_identical_on_dblp(self, dblp_store):
        steered_engine = NearestConceptEngine(
            dblp_store, case_sensitive=True, backend="steered"
        )
        vector_engine = NearestConceptEngine(
            dblp_store, case_sensitive=True, backend="vector"
        )
        for terms in [("ICDE", "1999"), ("VLDB", "1995")]:
            assert vector_engine.nearest_concepts(
                *terms, exclude_root=True
            ) == steered_engine.nearest_concepts(*terms, exclude_root=True)

    def test_ranking_order_identical_on_random_store(self, random_stores):
        """Answer sets *and* ranking order agree between backends on the
        deep random dataset — the serving bench's differential claim."""
        from repro.datasets.textpool import TECH_NOUNS

        store = random_stores[0]
        steered_engine = NearestConceptEngine(store, backend="steered")
        vector_engine = NearestConceptEngine(store, backend="vector")
        words = list(TECH_NOUNS)[:6]
        for terma in words[:3]:
            for termb in words[3:]:
                assert vector_engine.nearest_concepts(
                    terma, termb
                ) == steered_engine.nearest_concepts(terma, termb)

    def test_batch_matches_single(self, figure1_store):
        engine = NearestConceptEngine(figure1_store, backend="vector")
        batched = engine.nearest_concepts_batch(self.QUERIES, limit=5)
        assert batched == [
            engine.nearest_concepts(*terms, limit=5) for terms in self.QUERIES
        ]

    def test_engine_meet_many(self, figure1_store):
        steered_engine = NearestConceptEngine(figure1_store, backend="steered")
        vector_engine = NearestConceptEngine(figure1_store, backend="vector")
        pairs = random_oid_pairs(figure1_store, 50, seed=7)
        assert vector_engine.meet_many(pairs) == steered_engine.meet_many(pairs)


class TestResolution:
    def test_names(self, figure1_store):
        assert BACKEND_NAMES == ("steered", "vector")
        assert resolve_backend(figure1_store, None).name == "steered"
        assert resolve_backend(figure1_store, "steered").name == "steered"
        assert resolve_backend(figure1_store, "vector").name == "vector"
        with pytest.raises(ValueError, match="unknown backend 'indexed'"):
            DatabaseOptions(backend="indexed")

    def test_instance_passthrough(self, figure1_store):
        backend = VectorBackend(figure1_store)
        assert resolve_backend(figure1_store, backend) is backend
        assert isinstance(backend, MeetBackend)

    def test_unknown_name(self, figure1_store):
        with pytest.raises(ValueError, match="unknown meet backend"):
            resolve_backend(figure1_store, "quantum")

    def test_foreign_store_rejected(self, figure1_store, dblp_store):
        backend = VectorBackend(dblp_store)
        with pytest.raises(ValueError, match="different store"):
            resolve_backend(figure1_store, backend)


class TestIndexCache:
    def test_shared_and_invalidated(self, random_stores):
        store = random_stores[0]
        clear_lca_index_cache()
        try:
            first = get_lca_index(store)
            assert get_lca_index(store) is first
            store.invalidate_caches()
            rebuilt = get_lca_index(store)
            assert rebuilt is not first
            assert rebuilt.generation == store.generation
        finally:
            clear_lca_index_cache()
