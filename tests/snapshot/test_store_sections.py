"""The store sections: three int32 dense columns, ``edges``/``ranks`` derived.

* layout — no ``edges/*`` or ``ranks/*`` section, every integer section
  ``int32`` (``meta["item_width"]``);
* a loaded store's relation families equal a fresh parse's for every
  pid of every bundled dataset, monolithic and sliced into 1, 2 and 4
  shards, and the nearest-concept path never derives ``edges``/``ranks``;
* a bundle in the previous layout (int64 columns, stored ``edges/*``
  and ``ranks/*``) opens through the same read path, answers byte for
  byte like a fresh build with zero index builds, and takes writes;
* CRC-valid dense columns that would send a gather astray raise
  :class:`StorageError` naming the section.
"""

import json

import pytest

import repro
from repro.core.lca_index import lca_index_cache_info
from repro.datamodel.errors import StorageError
from repro.datamodel.serializer import serialize
from repro.datasets import (
    dblp_document,
    figure1_document,
    multimedia_document,
    plays_document,
    random_document,
)
from repro.datasets.textpool import TECH_NOUNS
from repro.exec.sharding import compute_shard_plan, slice_store
from repro.fulltext.index import fulltext_index_cache_info
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot
from repro.snapshot.codec import item_widths
from repro.snapshot.format import SnapshotReader
from repro.valueindex import value_index_cache_info

from .test_lca_sections import rewritten

DATASETS = {
    "figure1": figure1_document,
    "dblp": dblp_document,
    "plays": plays_document,
    "multimedia": multimedia_document,
    "random": lambda: random_document(5, nodes=1500),
}

STORE_SECTIONS = ["store/oid_pid", "store/oid_parent", "store/oid_rank"]


@pytest.fixture(params=["vector", "python"])
def tier(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setenv("REPRO_KERNELS", "python")
    return request.param


def assert_same_families(loaded, fresh):
    """Every pid's relations (and the key sets) agree, row for row."""
    for family in ("edges", "strings", "ranks"):
        assert list(getattr(loaded, family)) == list(getattr(fresh, family)), family
        assert len(getattr(loaded, family)) == len(getattr(fresh, family)), family
    for pid in range(len(fresh.summary)):
        assert loaded.edge_relation(pid).to_list() == (
            fresh.edge_relation(pid).to_list()
        )
        assert loaded.string_relation(pid).to_list() == (
            fresh.string_relation(pid).to_list()
        )
        assert (pid in loaded.ranks) == (pid in fresh.ranks)
        if pid in fresh.ranks:
            assert loaded.ranks[pid].to_list() == fresh.ranks[pid].to_list()


def test_layout_is_int32_without_edges_or_ranks(tmp_path):
    store = monet_transform(random_document(42, nodes=3000))
    path = tmp_path / "layout.snap"
    write_snapshot(store, path, value_indexes=["#"])
    reader = SnapshotReader.open(path)
    names = reader.section_names()
    assert not [name for name in names if name.startswith(("edges/", "ranks/"))]
    widths = item_widths(reader)
    assert set(widths.values()) == {4}
    assert {"summary/parents", "summary/kinds", "strings/pids", "ft/oids",
            "vx/oids", *STORE_SECTIONS} <= set(widths)
    assert reader.json("meta")["item_width"] == 4
    sizes = reader.section_sizes()
    for section in STORE_SECTIONS:
        assert sizes[section] == 4 * store.node_count


@pytest.mark.parametrize("dataset", DATASETS)
def test_loaded_families_equal_a_fresh_parse(tmp_path, tier, dataset):
    fresh = monet_transform(DATASETS[dataset]())
    path = tmp_path / f"{dataset}.snap"
    write_snapshot(fresh, path)
    assert_same_families(read_snapshot(path).store, fresh)


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("dataset", DATASETS)
def test_derived_families_equal_sliced_families(tmp_path, dataset, shards):
    store = monet_transform(DATASETS[dataset]())
    slices = slice_store(store, compute_shard_plan(store, shards))
    for index, sliced in enumerate(slices):
        path = tmp_path / f"{dataset}.{index}.snap"
        write_snapshot(sliced, path)
        assert_same_families(read_snapshot(path).store, sliced)


def test_nearest_path_never_derives_edges_or_ranks(tmp_path, tier):
    path = tmp_path / "dblp.snap"
    write_snapshot(monet_transform(dblp_document()), path)
    db = repro.Database.open(path, cache=None)
    assert db.nearest("Database", "1999", limit=5).answers
    store = db.store
    assert store.edges._runs is None and store.ranks._runs is None
    assert len(store.edges)  # first access derives them
    assert store.edges._runs is not None and store.ranks._runs is None


# ---------------------------------------------------------------------------
# The previous layout keeps opening
# ---------------------------------------------------------------------------

def family_columns(name, relations):
    """What the previous writer emitted for an int×int family."""
    columns = {f"{name}/{part}": [] for part in ("pids", "lens", "heads", "tails")}
    for pid in sorted(relations):
        relation = relations[pid]
        columns[f"{name}/pids"].append(pid)
        columns[f"{name}/lens"].append(len(relation))
        columns[f"{name}/heads"].extend(relation.heads)
        columns[f"{name}/tails"].extend(relation.tails)
    return columns


def previous_layout(path, store):
    """Turn the bundle at ``path`` into what the previous writer wrote:
    int64 integer sections outside ``lca/*``, stored ``edges/*`` and
    ``ranks/*`` families, and no ``item_width`` in meta."""
    reader = SnapshotReader.open(path)
    widths = item_widths(reader)
    columns = {
        name: reader.array(name, 4).tolist()
        for name in reader.section_names()
        if widths.get(name) == 4 and not name.startswith("lca/")
    }
    return rewritten(
        path,
        columns=columns,
        width=8,
        meta={"item_width": None},
        extra={
            **family_columns("edges", store.edges),
            **family_columns("ranks", store.ranks),
        },
    )


QUERY = "select $a from # $a where $a = 'Bit'"
MEMO = "<memo><title>Bit Shift</title><year>1999</year></memo>"


@pytest.mark.parametrize("backend", ["indexed", "vector"])
def test_previous_layout_answers_like_a_fresh_build(tmp_path, backend):
    source = tmp_path / "doc.xml"
    source.write_text(serialize(random_document(7, nodes=600)), encoding="utf-8")
    fresh = repro.Database.open(source, backend=backend, cache=None)
    bundle = tmp_path / "doc.snap"
    write_snapshot(fresh.store, bundle, value_indexes=["#"])
    previous_layout(bundle, fresh.store)
    reader = SnapshotReader.open(bundle)
    assert {"edges/heads", "ranks/tails", "vx/oids"} <= set(reader.section_names())
    assert len(reader.raw("store/oid_pid")) == 8 * fresh.store.node_count
    assert "item_width" not in reader.json("meta")

    before = (
        lca_index_cache_info().builds,
        fulltext_index_cache_info().builds,
        value_index_cache_info().builds,
    )
    loaded = repro.Database.open(bundle, backend=backend, cache=None)
    nouns = sorted(TECH_NOUNS)
    answered = 0
    for step in range(30):
        terms = [nouns[(3 * step + i) % len(nouns)] for i in range(2 + step % 3)]
        expected = fresh.nearest(*terms, limit=5).to_dict()["answers"]
        got = loaded.nearest(*terms, limit=5).to_dict()["answers"]
        assert json.dumps(got) == json.dumps(expected)
        answered += bool(expected)
    assert answered > 20
    assert json.dumps(loaded.query(QUERY).to_dict()["rows"]) == json.dumps(
        fresh.query(QUERY).to_dict()["rows"]
    )
    assert (
        lca_index_cache_info().builds,
        fulltext_index_cache_info().builds,
        value_index_cache_info().builds,
    ) == before
    assert_same_families(loaded.store, fresh.store)

    # put → read → compact, in step with the fresh build.
    for db in (fresh, loaded):
        db.put("memo", MEMO)
    assert json.dumps(loaded.nearest("Bit", "1999").to_dict()["answers"]) == (
        json.dumps(fresh.nearest("Bit", "1999").to_dict()["answers"])
    )
    for db in (fresh, loaded):
        db.delete("memo")
        db.compact()
    assert json.dumps(loaded.nearest("Bit", "1999").to_dict()["answers"]) == (
        json.dumps(fresh.nearest("Bit", "1999").to_dict()["answers"])
    )
    # The compaction rewrote the bundle in the current layout.
    assert "edges/heads" not in SnapshotReader.open(bundle)
    reopened = repro.Database.open(bundle, backend=backend, cache=None)
    assert_same_families(reopened.store, fresh.store)


# ---------------------------------------------------------------------------
# Malformed dense columns
# ---------------------------------------------------------------------------

@pytest.fixture()
def bundle(tmp_path, figure1_store):
    path = tmp_path / "figure1.snap"
    write_snapshot(figure1_store, path)
    return path


def _set(section, slot, value):
    def tamper(path, store):
        column = SnapshotReader.open(path).array(section, 4).tolist()
        column[slot] = value(store)
        return {"columns": {section: column}}

    return section, tamper


def _pop(section):
    def tamper(path, store):
        column = SnapshotReader.open(path).array(section, 4).tolist()
        column.pop()
        return {"columns": {section: column}}

    return section, tamper


MALFORMED = {
    "pid zero": _set("store/oid_pid", 3, lambda store: 0),
    "pid past the summary": _set(
        "store/oid_pid", 3, lambda store: len(store.summary)
    ),
    "parent past the span": _set(
        "store/oid_parent", 3, lambda store: store.first_oid + store.node_count
    ),
    "parent below the span": _set(
        "store/oid_parent", 3, lambda store: store.first_oid - 2
    ),
    "parent not below its child": _set(
        "store/oid_parent", 3, lambda store: store.first_oid + 5
    ),
    "own parent": _set("store/oid_parent", 3, lambda store: store.first_oid + 3),
    "root with a parent": _set(
        "store/oid_parent", 0, lambda store: store.first_oid
    ),
    "pid column one short": _pop("store/oid_pid"),
    "parent column one short": _pop("store/oid_parent"),
    "rank column one short": _pop("store/oid_rank"),
    "string pids out of order": (
        "strings/pids",
        lambda path, store: {
            "columns": {
                "strings/pids": list(reversed(
                    SnapshotReader.open(path).array("strings/pids", 4).tolist()
                ))
            }
        },
    ),
    "string run lengths off by one": _set(
        "strings/lens", 0, lambda store: len(store.strings[min(store.strings)]) + 1
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_store_section_is_a_storage_error(
    bundle, figure1_store, tier, case
):
    named, tamper = MALFORMED[case]
    rewritten(bundle, **tamper(bundle, figure1_store))
    SnapshotReader.open(bundle)  # framing and checksums are sound
    with pytest.raises(StorageError, match=named):
        read_snapshot(bundle)


def test_writer_refuses_what_the_reader_would(tmp_path):
    store = monet_transform(figure1_document())
    store._oid_parent[3] = store.first_oid + 5
    with pytest.raises(StorageError, match="store/oid_parent"):
        write_snapshot(store, tmp_path / "never-written.snap")
