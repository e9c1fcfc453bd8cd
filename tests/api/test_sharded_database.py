"""The facade over the execution layer: every sharded open branch."""

import pytest

import repro
from repro.api import Database, DatabaseOptions, NearestRequest
from repro.datamodel.errors import ReproError
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document
from repro.monet.transform import monet_transform
from repro.snapshot import Catalog

QUERY = (
    "select meet($a,$b) from # $a, # $b "
    "where $a contains 'ICDE' and $b contains '1999'"
)


@pytest.fixture(scope="module")
def document():
    return dblp_document(
        DblpConfig(papers_per_proceedings=3, articles_per_year=2)
    )


@pytest.fixture(scope="module")
def xml_path(document, tmp_path_factory):
    path = tmp_path_factory.mktemp("src") / "dblp.xml"
    path.write_text(serialize(document), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def catalog_dir(xml_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    Catalog(root).ingest("dblp", xml_path, shards=3)
    return root


@pytest.fixture(scope="module")
def reference(document):
    return Database(monet_transform(document))


def _assert_same_answers(reference, database):
    for request in (
        NearestRequest(terms=("ICDE", "1999"), limit=5),
        NearestRequest(terms=("VLDB", "1994"), exclude_root=True),
        NearestRequest(terms=("ICDE", "1999"), limit=3, snippets=True),
    ):
        assert list(database.nearest(request).answers) == list(
            reference.nearest(request).answers
        )
    assert database.query(QUERY).rows == reference.query(QUERY).rows
    assert list(database.search("SIGMOD").answers) == list(
        reference.search("SIGMOD").answers
    )


def test_open_sharded_collection_serial(catalog_dir, reference):
    database = repro.open(snapshot="dblp", catalog=catalog_dir)
    assert database.is_sharded
    assert database.sharded.executor.name == "serial"
    assert database.backend_name == "vector"
    assert "3 shards" in database.origin
    _assert_same_answers(reference, database)
    stats = database.stats()
    assert stats["executor"]["mode"] == "serial"
    envelope = database.nearest(NearestRequest(terms=("ICDE", "1999")))
    assert envelope.stats["shards"]["count"] == 3


def test_open_sharded_collection_parallel(catalog_dir, reference):
    with repro.open(
        snapshot="dblp", catalog=catalog_dir, workers=2
    ) as database:
        assert database.sharded.executor.name == "parallel"
        _assert_same_answers(reference, database)
        stats = database.stats()["executor"]
        assert stats["workers"] == 2
        assert stats["index_builds"] == {"lca": 0, "fulltext": 0}
    # close() is idempotent.
    database.close()


def test_open_xml_with_shards(xml_path, reference):
    database = repro.open(
        xml_path, catalog=xml_path.parent / "none", shards=4
    )
    assert database.is_sharded
    assert database.sharded.shard_count == 4
    assert database.backend_name == "steered"  # parse default
    _assert_same_answers(reference, database)


def test_workers_imply_shards(xml_path, reference):
    with repro.open(
        xml_path, catalog=xml_path.parent / "none", workers=2
    ) as database:
        assert database.sharded.shard_count == 2
        assert database.sharded.executor.name == "parallel"
        _assert_same_answers(reference, database)


def test_explicit_shards_conflict_with_layout(catalog_dir):
    with pytest.raises(ReproError, match="persisted as 3 shard"):
        repro.open(snapshot="dblp", catalog=catalog_dir, shards=2)


def test_sharded_database_has_no_engine(catalog_dir):
    database = repro.open(snapshot="dblp", catalog=catalog_dir)
    with pytest.raises(ReproError, match="no single engine"):
        _ = database.engine
    with pytest.raises(ReproError, match="no single query processor"):
        _ = database.processor


def test_describe_and_render(catalog_dir, reference):
    database = repro.open(snapshot="dblp", catalog=catalog_dir)
    meta = database.describe()
    assert meta["shards"]["count"] == 3
    assert meta["node_count"] == reference.node_count
    assert meta["path_count"] == len(reference.store.summary) - 1
    from repro.api.envelopes import QueryRequest

    rendered = database.query(QueryRequest(text=QUERY, render=True)).rendered
    expected = reference.query(QueryRequest(text=QUERY, render=True)).rendered
    assert rendered == expected
    assert database.explain(QUERY) == reference.explain(QUERY)


def test_to_xml_routes_to_owning_shard(catalog_dir, reference):
    database = repro.open(snapshot="dblp", catalog=catalog_dir)
    answer = database.nearest(NearestRequest(terms=("ICDE", "1999"), limit=1))
    oid = answer.answers[0]["oid"]
    assert database.to_xml(oid) == reference.engine.to_xml(oid)


def test_constructor_requires_a_store():
    with pytest.raises(ReproError):
        Database()


def test_shards_option_validation():
    with pytest.raises(ValueError):
        DatabaseOptions(shards=0)
    with pytest.raises(ValueError):
        DatabaseOptions(workers=-1)
    assert DatabaseOptions(workers=3).effective_shards == 3
    assert DatabaseOptions(shards=2, workers=5).effective_shards == 2
    assert DatabaseOptions().effective_shards is None
