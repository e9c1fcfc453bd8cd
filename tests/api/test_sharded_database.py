"""The facade over the execution layer: every sharded open branch."""

from pathlib import Path as FsPath

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
        snapshot="dblp", catalog=catalog_dir, replicas=1
    ) as database:
        assert database.sharded.executor.name == "cluster"
        _assert_same_answers(reference, database)
        stats = database.stats()["executor"]
        assert stats["workers"] == 3  # one worker process per shard
        assert stats["index_builds"] == {
            "lca": 0, "fulltext": 0, "valueindex": 0
        }
    # close() is idempotent.
    database.close()


def _worker_bundle(database):
    """The bundle every spawned shard worker of ``database`` maps."""
    [bundle] = {
        replica.spec.spawn.args[0]
        for group in database.sharded.executor.replicas
        for replica in group
    }
    return FsPath(bundle)


def _assert_matches_serial(serial, database):
    """nearest, query and explain byte-identical to the serial executor."""
    assert serial.sharded.executor.name == "serial"
    for request in (
        NearestRequest(terms=("ICDE", "1999"), limit=5, snippets=True),
        NearestRequest(terms=("VLDB", "1994"), exclude_root=True),
    ):
        assert (
            database.nearest(request).to_dict()["answers"]
            == serial.nearest(request).to_dict()["answers"]
        )
    assert database.query(QUERY).rows == serial.query(QUERY).rows
    assert database.explain(QUERY) == serial.explain(QUERY)


def test_open_xml_with_shards(xml_path, reference):
    database = repro.open(
        xml_path, catalog=xml_path.parent / "none", shards=4
    )
    assert database.is_sharded
    assert database.sharded.shard_count == 4
    assert database.backend_name == "vector"
    _assert_same_answers(reference, database)


def test_workers_imply_shards(xml_path):
    """Worker processes over a parsed XML store: one temporary bundle
    records the plan, and answers match the serial executor."""
    none = xml_path.parent / "none"
    with repro.open(xml_path, catalog=none, shards=2) as serial:
        with repro.open(
            xml_path, catalog=none, shards=2, replicas=1
        ) as database:
            assert database.sharded.shard_count == 2
            assert database.sharded.executor.name == "cluster"
            _assert_matches_serial(serial, database)


def test_explicit_shards_conflict_with_layout(catalog_dir):
    with pytest.raises(ReproError, match="persisted as 3 shard"):
        repro.open(snapshot="dblp", catalog=catalog_dir, shards=2)


def test_steered_reference_refuses_a_recorded_layout(catalog_dir):
    """The paper's walks answer monolithically, so a collection built
    sharded cannot be opened on them."""
    with pytest.raises(ValueError, match="answers monolithically"):
        repro.open(snapshot="dblp", catalog=catalog_dir, backend="steered")


def test_sharded_database_engine_reads_the_one_store(catalog_dir, reference):
    database = repro.open(snapshot="dblp", catalog=catalog_dir)
    assert database.engine.store is database.store
    assert database.processor.store is database.store
    root = database.store.root_oid
    assert database.engine.snippet(root) == reference.engine.snippet(root)


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
        DatabaseOptions(replicas=-1)
    with pytest.raises(ValueError, match="mutually exclusive"):
        DatabaseOptions(replicas=1, cluster=((("127.0.0.1", 9001),),))
    with pytest.raises(TypeError):
        DatabaseOptions(workers=2)  # the process pool is gone
    assert DatabaseOptions(replicas=3).effective_shards == 1
    assert DatabaseOptions(shards=2, replicas=5).effective_shards == 2
    assert DatabaseOptions().effective_shards is None


def test_one_bundle_serves_pool_and_replicas(xml_path, tmp_path):
    """A 2-shard collection is one ``.snap``; worker processes over it
    answer byte-identically to the serial executor, and no process
    builds an index."""
    root = tmp_path / "catalog"
    Catalog(root).ingest("dblp", xml_path, shards=2)
    assert [path.name for path in root.glob("*.snap")] == ["dblp.snap"]
    with repro.open(snapshot="dblp", catalog=root) as serial:
        with repro.open(
            snapshot="dblp", catalog=root, shards=2, replicas=1
        ) as database:
            assert database.sharded.shard_count == 2
            # The recorded layout is served from the bundle itself.
            assert _worker_bundle(database) == root / "dblp.snap"
            _assert_matches_serial(serial, database)
            builds = database.stats()["executor"]["index_builds"]
            assert builds == {"lca": 0, "fulltext": 0, "valueindex": 0}


def test_replicas_need_the_layout_their_bundle_records(document, tmp_path):
    """Socket workers serve the layout their bundle records: replicas
    over a monolithic bundle get one temporary bundle that records the
    plan, answer like the serial executor, and remove it on close."""
    from repro.snapshot import write_snapshot

    path = tmp_path / "dblp.snap"
    write_snapshot(monet_transform(document), path)
    with repro.open(path, shards=2) as serial:
        database = repro.open(path, shards=2, replicas=1)
        try:
            bundle = _worker_bundle(database)
            assert bundle != path and bundle.name == "collection.snap"
            assert bundle.exists()
            _assert_matches_serial(serial, database)
        finally:
            database.close()
    assert not bundle.parent.exists()


def test_warm_up_refuses_a_worker_serving_another_layout_or_case(
    xml_path, tmp_path
):
    """``cluster=`` workers whose bundle has another layout, or which
    run in another case mode, are refused loudly at warm-up; workers
    matching the collection pass."""
    from repro.exec import ShardMismatchError
    from repro.exec.remote import ShardWorkerServer, services_from_bundle

    root = tmp_path / "catalog"
    Catalog(root).ingest("dblp", xml_path, shards=2)
    Catalog(tmp_path / "other").ingest("dblp", xml_path, shards=3)
    bundle = root / "dblp.snap"

    def attach(services):
        servers = [
            ShardWorkerServer({k: services[k]}).start() for k in (0, 1)
        ]
        cluster = tuple((server.address,) for server in servers)
        return servers, repro.open(
            snapshot="dblp", catalog=root, cluster=cluster
        )

    cases = [
        (services_from_bundle(bundle), None),
        (
            services_from_bundle(tmp_path / "other" / "dblp.snap"),
            "shard 0 serves nodes=",
        ),
        (
            services_from_bundle(bundle, case_sensitive=True),
            "shard 0 serves case_sensitive=True but the collection "
            "expects case_sensitive=False",
        ),
    ]
    for services, refusal in cases:
        servers, database = attach(services)
        try:
            if refusal is None:
                database.warm_up()
                assert database.nearest("ICDE", "1999").answers
            else:
                with pytest.raises(ShardMismatchError, match=refusal):
                    database.warm_up()
        finally:
            database.close()
            for server in servers:
                server.shutdown()
