"""Sharded persistence: one bundle, a recorded layout, warm starts."""

import json

import pytest

from repro.api import Database
from repro.cli import main
from repro.core.lca_index import clear_lca_index_cache, lca_index_cache_info
from repro.datamodel.errors import StorageError
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document
from repro.exec import shard_services
from repro.exec.sharding import ShardPlan, compute_shard_plan
from repro.fulltext.index import (
    clear_fulltext_index_cache,
    fulltext_index_cache_info,
)
from repro.monet.transform import monet_transform
from repro.snapshot import Catalog, read_snapshot, recorded_plan


@pytest.fixture(scope="module")
def document():
    return dblp_document(
        DblpConfig(papers_per_proceedings=3, articles_per_year=2)
    )


@pytest.fixture(scope="module")
def store(document):
    return monet_transform(document)


@pytest.fixture()
def xml(document, tmp_path):
    path = tmp_path / "dblp.xml"
    path.write_text(serialize(document), encoding="utf-8")
    return path


def test_sharded_build_writes_one_bundle(store, tmp_path):
    catalog = Catalog(tmp_path / "catalog")
    meta = catalog.build("dblp", store, shards=3)
    plan = compute_shard_plan(store, 3)
    assert sorted(path.name for path in catalog.root.glob("*.snap")) == [
        "dblp.snap"
    ]
    assert meta["file"] == "dblp.snap"
    assert meta["bytes"] == catalog.bundle_path("dblp").stat().st_size
    assert ShardPlan.from_dict(meta["shards"]) == plan
    snapshot = read_snapshot(catalog.bundle_path("dblp"))
    assert recorded_plan(snapshot.meta) == plan
    # The bundle holds the whole store, and one summary.
    assert snapshot.store.node_count == store.node_count
    assert len(snapshot.store.summary) == len(store.summary)


def test_shard_bundles_load_seeded(store, tmp_path):
    """Every shard of a loaded sharded bundle answers with zero builds."""
    catalog = Catalog(tmp_path / "catalog")
    catalog.build("dblp", store, shards=2)
    clear_lca_index_cache()
    clear_fulltext_index_cache()
    snapshot = read_snapshot(catalog.bundle_path("dblp"))
    services = shard_services(
        snapshot.store, recorded_plan(snapshot.meta)
    )
    for service in services.values():
        service.handle("nearest", {"terms": ["ICDE", "1999"]})
    assert lca_index_cache_info().builds == 0
    assert fulltext_index_cache_info().builds == 0


def test_catalog_sharded_build_and_drop(xml, tmp_path):
    catalog = Catalog(tmp_path / "catalog")
    meta = catalog.ingest("dblp", xml, shards=2)
    assert meta["shards"]["count"] == 2
    assert catalog.is_sharded("dblp")
    bundle = catalog.bundle_path("dblp")
    # A sharded collection is an ordinary bundle to the catalog.
    assert catalog.open("dblp").store.node_count == meta["node_count"]
    # The fresh-hit probe recognizes it too.
    assert catalog.find_source(xml) == "dblp"
    catalog.drop("dblp")
    assert not bundle.exists()
    assert "dblp" not in catalog


def _one_bundle_per_shard(catalog, name, count):
    """Rewrite ``name``'s manifest entry as a layout of one bundle per
    shard listing ``count`` files, and write those files."""
    manifest = json.loads(catalog.manifest_path.read_text())
    entry = manifest["collections"][name]
    catalog.bundle_path(name).unlink()
    files = [f"{name}.shard{index}.snap" for index in range(count)]
    for file in files:
        (catalog.root / file).write_bytes(b"")
    entry["file"] = None
    entry["shards"]["files"] = files
    catalog.manifest_path.write_text(json.dumps(manifest))
    return [catalog.root / file for file in files]


def test_old_layout_fails_loudly(xml, tmp_path, capsys):
    catalog = Catalog(tmp_path / "catalog")
    catalog.ingest("dblp", xml, shards=2)
    _one_bundle_per_shard(catalog, "dblp", 2)
    rebuild = "repro snapshot build <xml> dblp --shards 2"
    with pytest.raises(StorageError, match=rebuild):
        Database.open("dblp", catalog=catalog.root)
    with pytest.raises(StorageError, match=rebuild):
        catalog.open("dblp")
    args = ["--snapshot", "dblp", "ICDE", "1999", "--catalog", str(catalog.root)]
    assert main(["search", *args]) == 2
    assert rebuild in capsys.readouterr().err
    # The fresh-hit probe does not take it: the source parses instead.
    assert catalog.find_source(xml) is None


def test_rebuild_cleans_stale_shard_files(xml, tmp_path):
    catalog = Catalog(tmp_path / "catalog")
    catalog.ingest("dblp", xml, shards=4)
    stale = _one_bundle_per_shard(catalog, "dblp", 4)
    meta = catalog.ingest("dblp", xml, shards=2)
    assert meta["generation"] == 2
    assert "files" not in meta["shards"]
    assert catalog.bundle_path("dblp").exists()
    assert not any(path.exists() for path in stale)
    # Back to monolithic: the same one bundle, no layout.
    meta = catalog.ingest("dblp", xml)
    assert "shards" not in meta
    assert recorded_plan(catalog.open("dblp").meta) is None


def test_single_shard_build_persists_layout(tmp_path, store):
    """shards=1 is a *sharded* build: the layout is recorded, so later
    opens serve the recorded shard."""
    catalog = Catalog(tmp_path / "catalog")
    meta = catalog.build("one", store, shards=1)
    assert meta["shards"]["count"] == 1
    assert catalog.is_sharded("one")
    plan = recorded_plan(catalog.open("one").meta)
    assert plan == compute_shard_plan(store, 1)


def test_invalid_shard_count_rejected(tmp_path, store):
    catalog = Catalog(tmp_path / "catalog")
    with pytest.raises(StorageError, match="shard count"):
        catalog.build("bad", store, shards=0)
    with pytest.raises(StorageError, match="shard count"):
        catalog.build("bad", store, shards=-3)
