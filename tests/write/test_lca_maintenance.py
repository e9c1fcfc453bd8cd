"""A write maintains the LCA index; it never rebuilds it.

Plain regressions around :func:`repro.core.lca_index.get_lca_index`'s
roll-forward (the rolled-forward ≡ fresh-build property itself lives in
``tests/property/test_prop_lca_index.py``): the build counter stays put
across write → read cycles, the maintained index serializes byte for
byte like a rebuilt one, and the patch counters reach ``/v1/stats`` and
``/v1/metrics``.
"""

import json
import urllib.request

from repro.api import Database, DatabaseOptions, ReproServer
from repro.core.lca_index import get_lca_index, lca_index_cache_info
from repro.monet.mutate import compact_store, delete_document, put_document
from repro.snapshot import Catalog, write_snapshot
from repro.snapshot.format import SnapshotReader

from ..obs.prom_parser import parse_prometheus_text
from .harness import DATASETS, open_live, write_source

TERMS = DATASETS["dblp"]["terms"][0]
FRAGMENTS = DATASETS["dblp"]["fragments"]


def test_write_read_cycles_never_rebuild(tmp_path):
    source, _model = write_source(tmp_path, "dblp")
    db = open_live(source, backend="vector")
    try:
        db.nearest(*TERMS)
        before = lca_index_cache_info()
        for cycle in range(4):
            name = f"doc-{cycle}"
            for write in (
                lambda: db.put(name, FRAGMENTS[0]),
                lambda: db.replace(name, FRAGMENTS[1]),
                lambda: db.delete(name),
            ):
                write()
                assert db.nearest(*TERMS).answers
        after = lca_index_cache_info()
        assert after.builds == before.builds
        assert after.patches == before.patches + 12
    finally:
        db.close()


def test_maintained_index_serializes_like_a_rebuilt_one(tmp_path):
    """Puts only: no tombstones, so compaction keeps the store — and its
    rolled-forward index — and the bundle's ``lca/*`` sections must equal
    those of a store transformed from the same documents."""
    source, model = write_source(tmp_path, "figure1")
    db = open_live(source, backend="vector")
    store = db.store
    index = get_lca_index(store)
    builds = lca_index_cache_info().builds
    for step, xml in enumerate(DATASETS["figure1"]["fragments"]):
        put_document(store, f"doc-{step}", xml)
        model.put(f"doc-{step}", xml)
        if step % 2:
            get_lca_index(store)  # one- and two-record chains
    compacted, mapping = compact_store(store)
    assert compacted is store and mapping is None
    write_snapshot(store, tmp_path / "maintained.snap")
    assert get_lca_index(store) is index
    assert lca_index_cache_info().builds == builds
    write_snapshot(model.oracle_store(), tmp_path / "rebuilt.snap")

    maintained = SnapshotReader.open(tmp_path / "maintained.snap")
    rebuilt = SnapshotReader.open(tmp_path / "rebuilt.snap")
    sections = [name for name in rebuilt.section_names() if name.startswith("lca/")]
    assert sections == ["lca/tour", "lca/depth", "lca/first", "lca/last"]
    for name in sections:
        assert bytes(maintained.raw(name)) == bytes(rebuilt.raw(name)), name


def test_put_ranks_come_from_the_registry_not_the_adjacency(tmp_path):
    """A put must not rebuild the O(n) children index the previous write
    cleared — with the LCA rebuild gone nothing else would warm it."""
    source, _model = write_source(tmp_path, "dblp")
    store = open_live(source, backend="steered").store
    fragment = FRAGMENTS[0]
    put_document(store, "doc-a", fragment)
    for name in ("doc-b", "doc-c"):
        put_document(store, name, fragment)
        assert store._children_index is None
    delete_document(store, "doc-c")
    put_document(store, "doc-d", fragment)
    assert store._children_index is None
    tops = store.children_of(store.root_oid)  # rank order
    assert tops == sorted(tops), "document order must stay OID order"
    assert tops[-3:] == [store.documents[n][0] for n in ("doc-a", "doc-b", "doc-d")]


def test_patch_counters_on_stats_and_metrics(tmp_path):
    source, _model = write_source(tmp_path, "figure1")
    catalog = Catalog(tmp_path / "catalog", create=True)
    catalog.ingest("docs", source)
    db = Database.open(
        snapshot="docs",
        options=DatabaseOptions(catalog=catalog.root, backend="vector"),
    )

    def call(url, method="GET", payload=None):
        request = urllib.request.Request(
            url,
            data=None if payload is None else json.dumps(payload).encode(),
            method=method,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return response.read().decode("utf-8")

    with ReproServer({"docs": db}, port=0, close_databases=True) as server:
        nearest = {"terms": ["Bit", "1999"]}
        call(server.url("/v1/nearest"), "POST", nearest)
        before = json.loads(call(server.url("/v1/stats")))
        assert set(before["index_patches"]) == {"lca", "fulltext", "valueindex"}
        xml = DATASETS["figure1"]["fragments"][0]
        call(server.url("/v1/documents"), "PUT", {"name": "memo", "xml": xml})
        call(server.url("/v1/nearest"), "POST", nearest)
        call(server.url("/v1/documents"), "DELETE", {"name": "memo"})
        call(server.url("/v1/nearest"), "POST", nearest)
        after = json.loads(call(server.url("/v1/stats")))
        assert after["index_builds"]["lca"] == before["index_builds"]["lca"]
        for index in ("lca", "fulltext"):
            assert (
                after["index_patches"][index]
                == before["index_patches"][index] + 2
            )
        family = parse_prometheus_text(call(server.url("/v1/metrics")))[
            "repro_index_patches"
        ]
        assert family["kind"] == "gauge"
        assert {
            labels["index"]: int(value) for _, labels, value in family["samples"]
        } == after["index_patches"]
