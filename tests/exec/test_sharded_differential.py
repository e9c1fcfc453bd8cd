"""Differential acceptance: sharded serving answers byte-identically.

For every bundled dataset, the sharded coordinator must reproduce the
monolithic engine/processor answers — answer sets *and ranking order* —
at 1, 2 and 4 shards, across all three query surfaces (nearest,
full-text search, query language).  Shards serve on the kernels; the
``reference`` parameter names the monolithic backend they are compared
with: ``steered`` (the paper's walks) or ``vector`` (the served
monolithic path).  This is the
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
    ShardedCollection,
    compute_shard_plan,
    shard_services,
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


REFERENCES = ["steered", "vector"]


def _sharded(store, shards):
    plan = compute_shard_plan(store, shards)
    services = shard_services(store, plan)
    return ShardedCollection(
        plan,
        store,
        SerialExecutor(list(services.values())),
        generations=[store.generation] * plan.shard_count,
    )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_nearest_answers_and_ranking_identical(
    stores, dataset, reference, shards
):
    store = stores[dataset]
    _build, queries, _texts = DATASETS[dataset]
    engine = NearestConceptEngine(store, backend=reference)
    sharded = _sharded(store, shards)
    for terms in queries:
        for options in NEAREST_OPTIONS:
            expected = engine.nearest_concepts(*terms, **options)
            actual = sharded.nearest_concepts(*terms, **options)
            # Dataclass equality covers oid, path, origins, terms,
            # joins, spread and depth; list equality covers ranking
            # order.  Byte-identical or bust.
            assert actual == expected, (
                f"{dataset}/{reference}/shards={shards}/{terms}/{options}: "
                "sharded answers diverged from the monolithic engine"
            )


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_query_language_identical(stores, dataset, reference, shards):
    store = stores[dataset]
    _build, _terms, texts = DATASETS[dataset]
    processor = QueryProcessor(store, backend=reference)
    sharded = _sharded(store, shards)
    for text in texts:
        expected = processor.execute(text)
        actual = sharded.execute(text)
        assert actual.columns == expected.columns, (dataset, reference, text)
        assert actual.rows == expected.rows, (dataset, reference, shards, text)
        assert sharded.explain(text) == processor.explain(text)


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_term_hits_identical(stores, dataset, shards):
    store = stores[dataset]
    _build, queries, _texts = DATASETS[dataset]
    engine = NearestConceptEngine(store, backend="vector")
    sharded = _sharded(store, shards)
    for terms in queries:
        for term in terms:
            expected = sorted(engine.term_hits(term).oids())
            rows = sharded.term_hit_rows(term)
            assert [oid for oid, _pid in rows] == expected
            for oid, pid in rows:
                assert pid == store.pid_of(oid)


@pytest.mark.parametrize("reference", REFERENCES)
def test_distance_and_enumeration_queries(stores, reference):
    """distance(...) crossing shards and text()/path-var cells."""
    store = stores["dblp"]
    processor = QueryProcessor(store, backend=reference)
    sharded = _sharded(store, 4)
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
        assert actual == expected, (reference, text)


def test_scan_fallback_matches_monolithic(stores):
    """A token-shaped term absent from the global index must scan."""
    store = stores["figure1"]
    engine = NearestConceptEngine(store)
    sharded = _sharded(store, 2)
    # "Hac" is token-shaped but not a whole token anywhere: the
    # monolithic find() falls back to a substring scan; the sharded
    # path must make that decision globally, not per shard.
    expected = engine.nearest_concepts("Hac", "1999")
    actual = sharded.nearest_concepts("Hac", "1999")
    assert actual == expected
    assert [oid for oid, _ in sharded.term_hit_rows("Hac")] == sorted(
        engine.term_hits("Hac").oids()
    )


# ---------------------------------------------------------------------------
# Stores holding tombstones: a deleted document stays inside its range
# ---------------------------------------------------------------------------

FRAGMENT = (
    "<inproceedings key='{key}'><author>Ann Byte</author>"
    "<title>ICDE sharding {key}</title><year>1999</year></inproceedings>"
)


@pytest.mark.parametrize("reference", REFERENCES)
def test_store_with_a_deleted_put_shards_like_monolithic(reference):
    from repro.monet.mutate import delete_document, put_document

    build, queries, texts = DATASETS["dblp"]
    store = monet_transform(build())
    put_document(store, "a", FRAGMENT.format(key="a"))
    put_document(store, "b", FRAGMENT.format(key="b"))
    delete_document(store, "a")
    plan = compute_shard_plan(store, 2)
    assert plan.shard_count == 2
    assert plan.ends[-1] == store.last_oid + 1
    engine = NearestConceptEngine(store, backend=reference)
    processor = QueryProcessor(store, backend=reference)
    sharded = _sharded(store, 2)
    for terms in [*queries, ("Byte", "sharding")]:
        for options in NEAREST_OPTIONS:
            assert sharded.nearest_concepts(*terms, **options) == (
                engine.nearest_concepts(*terms, **options)
            ), (terms, options)
    for text in texts:
        assert sharded.execute(text).rows == processor.execute(text).rows


def test_collection_with_a_pending_first_delete_opens_sharded(tmp_path):
    import json

    import repro
    from repro.datamodel.serializer import serialize
    from repro.snapshot import Catalog

    build, queries, texts = DATASETS["dblp"]
    source = tmp_path / "dblp.xml"
    source.write_text(serialize(build()), encoding="utf-8")
    catalog = tmp_path / "catalog"
    Catalog(catalog).ingest("dblp", source)
    with repro.open(snapshot="dblp", catalog=catalog) as writer:
        writer.delete(sorted(writer.documents())[0])
    with repro.open(snapshot="dblp", catalog=catalog) as monolithic, repro.open(
        snapshot="dblp", catalog=catalog, shards=2
    ) as sharded:
        assert sharded.store.dead_count > 0
        assert sharded.sharded.plan.shard_count == 2
        for terms in queries:
            expected = monolithic.nearest(*terms, limit=5).to_dict()["answers"]
            got = sharded.nearest(*terms, limit=5).to_dict()["answers"]
            assert json.dumps(got) == json.dumps(expected)
        for text in texts:
            assert json.dumps(sharded.query(text).to_dict()["rows"]) == (
                json.dumps(monolithic.query(text).to_dict()["rows"])
            )
