"""Differential acceptance: sharded serving answers byte-identically.

For every bundled dataset, the sharded coordinator must reproduce the
monolithic engine/processor answers — answer sets *and ranking order* —
on both backends and at 1, 2 and 4 shards, across all three query
surfaces (nearest, full-text search, query language).  This is the
tentpole's correctness contract: sharding is an execution detail, never
a semantics change.
"""

import pytest

from repro.core.engine import NearestConceptEngine
from repro.datamodel.errors import QueryPlanError
from repro.datasets import (
    DblpConfig,
    MultimediaConfig,
    PlaysConfig,
    dblp_document,
    figure1_document,
    multimedia_document,
    plays_document,
)
from repro.datasets.randomtree import random_document
from repro.exec import (
    SerialExecutor,
    ShardService,
    ShardedCollection,
    compute_shard_plan,
    slice_store,
)
from repro.monet.transform import monet_transform
from repro.query.executor import QueryProcessor

DATASETS = {
    "figure1": (
        lambda: figure1_document(),
        [("Bit", "1999"), ("Bob", "Byte"), ("Hack", "1999")],
        [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'Bit' and $b contains '1999'",
            "select $a, tag($a) from # $a where $a contains 'Bit'",
            "select distinct tag($a) from # $a where $a contains 'Bit'",
        ],
    ),
    "plays": (
        lambda: plays_document(
            PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2)
        ),
        [("crown", "ghost"), ("love", "storm"), ("king", "night")],
        [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'crown' and $b contains 'ghost'",
            "select tag($a), path($a) from # $a where $a contains 'storm'",
        ],
    ),
    "dblp": (
        lambda: dblp_document(
            DblpConfig(papers_per_proceedings=4, articles_per_year=2)
        ),
        [("ICDE", "1999"), ("VLDB", "1994"), ("SIGMOD", "1988")],
        [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'ICDE' and $b contains '1999'",
            "select meet($a,$b) exclude root from # $a, # $b "
            "where $a contains 'VLDB' and $b contains '1994'",
            "select distinct tag($a) from # $a where $a contains 'SIGMOD'",
        ],
    ),
    "multimedia": (
        lambda: multimedia_document(MultimediaConfig(items=8)),
        [("wavelet", "texture"), ("motion", "region")],
        [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'wavelet' and $b contains 'texture'",
        ],
    ),
    "random": (
        lambda: random_document(7, nodes=800, max_children=4),
        [("wavelet", "texture"), ("histogram", "contour")],
        [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'wavelet' and $b contains 'texture'",
        ],
    ),
}

SHARD_COUNTS = (1, 2, 4)

NEAREST_OPTIONS = (
    {},
    {"limit": 5},
    {"exclude_root": True, "require_all_terms": True},
    {"within": 8},
    {"limit": 3, "within": 10},
)


@pytest.fixture(scope="module")
def stores():
    return {
        name: monet_transform(build())
        for name, (build, _terms, _queries) in DATASETS.items()
    }


def _sharded(store, backend, shards):
    plan = compute_shard_plan(store, shards)
    slices = slice_store(store, plan)
    services = [
        ShardService(shard, shard_id=index, backend=backend)
        for index, shard in enumerate(slices)
    ]
    return ShardedCollection(
        plan,
        store.summary,
        SerialExecutor(services),
        backend_name=backend,
        generations=[shard.generation for shard in slices],
    )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", ["steered", "vector"])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_nearest_answers_and_ranking_identical(
    stores, dataset, backend, shards
):
    store = stores[dataset]
    _build, queries, _texts = DATASETS[dataset]
    engine = NearestConceptEngine(store, backend=backend)
    sharded = _sharded(store, backend, shards)
    for terms in queries:
        for options in NEAREST_OPTIONS:
            expected = engine.nearest_concepts(*terms, **options)
            actual = sharded.nearest_concepts(*terms, **options)
            # Dataclass equality covers oid, path, origins, terms,
            # joins, spread and depth; list equality covers ranking
            # order.  Byte-identical or bust.
            assert actual == expected, (
                f"{dataset}/{backend}/shards={shards}/{terms}/{options}: "
                "sharded answers diverged from the monolithic engine"
            )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", ["steered", "vector"])
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_query_language_identical(stores, dataset, backend, shards):
    store = stores[dataset]
    _build, _terms, texts = DATASETS[dataset]
    processor = QueryProcessor(store, backend=backend)
    sharded = _sharded(store, backend, shards)
    for text in texts:
        expected = processor.execute(text)
        actual = sharded.execute(text)
        assert actual.columns == expected.columns, (dataset, backend, text)
        assert actual.rows == expected.rows, (dataset, backend, shards, text)
        assert sharded.explain(text) == processor.explain(text)


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_term_hits_identical(stores, dataset, shards):
    store = stores[dataset]
    _build, queries, _texts = DATASETS[dataset]
    engine = NearestConceptEngine(store, backend="vector")
    sharded = _sharded(store, "vector", shards)
    for terms in queries:
        for term in terms:
            expected = sorted(engine.term_hits(term).oids())
            rows = sharded.term_hit_rows(term)
            assert [oid for oid, _pid in rows] == expected
            for oid, pid in rows:
                assert pid == store.pid_of(oid)


@pytest.mark.parametrize("backend", ["steered", "vector"])
def test_distance_and_enumeration_queries(stores, backend):
    """distance(...) crossing shards and text()/path-var cells."""
    store = stores["dblp"]
    processor = QueryProcessor(store, backend=backend)
    sharded = _sharded(store, backend, 4)
    queries = [
        # Witnesses in (typically) different top-level subtrees.
        "select distance($a,$b) from #/booktitle $a, #/publisher $b "
        "where $a contains 'ICDE 1989' and $b contains 'Morgan'",
        "select text($a) from #/title $a where $a contains 'Bridging'",
    ]
    for text in queries:
        try:
            expected = (
                processor.execute(text).columns,
                processor.execute(text).rows,
            )
        except QueryPlanError as exc:
            expected = ("error", str(exc))
        try:
            actual = (sharded.execute(text).columns, sharded.execute(text).rows)
        except QueryPlanError as exc:
            actual = ("error", str(exc))
        assert actual == expected, (backend, text)


def test_scan_fallback_matches_monolithic(stores):
    """A token-shaped term absent from the global index must scan."""
    store = stores["figure1"]
    engine = NearestConceptEngine(store)
    sharded = _sharded(store, "steered", 2)
    # "Hac" is token-shaped but not a whole token anywhere: the
    # monolithic find() falls back to a substring scan; the sharded
    # path must make that decision globally, not per shard.
    expected = engine.nearest_concepts("Hac", "1999")
    actual = sharded.nearest_concepts("Hac", "1999")
    assert actual == expected
    assert [oid for oid, _ in sharded.term_hit_rows("Hac")] == sorted(
        engine.term_hits("Hac").oids()
    )
