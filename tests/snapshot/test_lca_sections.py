"""The ``lca/*`` sections: four O(n) ``int32`` columns, nothing derived.

* size budget — the sections stay within 24 bytes per node and the
  stored range-minimum table (``lca/table``, ``lca/log``) is gone;
* a bundle in the previous layout (int64 columns, the stored table and
  its meta field, no ``lca_item_width``) opens through the same read
  path and answers byte for byte like a fresh build;
* CRC-valid sections carrying values that would send a gather outside
  its column raise :class:`StorageError` naming the section.
"""

import json

import pytest

import repro
from repro.core.lca_index import get_lca_index, lca_index_cache_info
from repro.datamodel.errors import StorageError
from repro.datamodel.serializer import serialize
from repro.datasets.dblp import dblp_document
from repro.datasets.randomtree import random_document
from repro.datasets.textpool import TECH_NOUNS
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot
from repro.snapshot.format import SnapshotReader, SnapshotWriter

LCA_SECTIONS = ["lca/tour", "lca/depth", "lca/first", "lca/last"]


def rewritten(path, *, columns=(), raw=(), meta=(), width=4, extra=()):
    """Re-emit the bundle at ``path`` with some sections replaced.

    ``columns`` maps a section to the integers it should hold (written
    ``width`` bytes wide), ``raw`` to literal bytes, ``meta`` patches
    the meta object (``None`` drops a key), ``extra`` adds int64
    sections.  Everything else is copied; every checksum is valid.
    """
    reader = SnapshotReader.open(path)
    columns, raw = dict(columns), dict(raw)
    fields = reader.json("meta")
    for key, value in dict(meta).items():
        if value is None:
            fields.pop(key)
        else:
            fields[key] = value
    writer = SnapshotWriter()
    for name in reader.section_names():
        if name == "meta":
            writer.add_json(name, fields)
        elif name in columns:
            writer.add_array(name, columns[name], width)
        else:
            writer.add_bytes(name, raw.get(name, bytes(reader.raw(name))))
    for name, values in dict(extra).items():
        writer.add_array(name, values)
    writer.write(path)
    return path


def lca_columns(path):
    reader = SnapshotReader.open(path)
    return {name: reader.array(name, 4).tolist() for name in LCA_SECTIONS}


@pytest.mark.parametrize(
    "document",
    [
        pytest.param(lambda: random_document(42, nodes=3000), id="random-3000"),
        pytest.param(dblp_document, id="dblp"),
    ],
)
def test_lca_sections_fit_the_size_budget(tmp_path, document):
    store = monet_transform(document())
    path = tmp_path / "budget.snap"
    write_snapshot(store, path)
    reader = SnapshotReader.open(path)
    sizes = {
        name: size
        for name, size in reader.section_sizes().items()
        if name.startswith("lca/")
    }
    assert list(sizes) == LCA_SECTIONS
    assert sum(sizes.values()) <= 24 * store.node_count
    assert reader.json("meta")["lca_item_width"] == 4


# ---------------------------------------------------------------------------
# The previous layout keeps opening
# ---------------------------------------------------------------------------

def previous_layout(path):
    """Turn the bundle at ``path`` into what the previous writer wrote:
    int64 ``lca/*`` columns plus ``lca/log``, ``lca/table_lens`` and the
    full sparse table in ``lca/table``, ``table_row_count`` in meta and
    no ``lca_item_width``."""
    columns = lca_columns(path)
    depth = columns["lca/depth"]
    log = [0, 0]
    for length in range(2, len(depth) + 1):
        log.append(log[length // 2] + 1)
    rows, row, span = [], list(range(len(depth))), 1
    while 2 * span <= len(depth):
        row = [
            left if depth[left] <= depth[right] else right
            for left, right in zip(row, row[span:])
        ]
        rows.append(row)
        span *= 2
    return rewritten(
        path,
        columns=columns,
        width=8,
        meta={"lca_item_width": None, "table_row_count": len(rows)},
        extra={
            "lca/log": log,
            "lca/table_lens": [len(row) for row in rows],
            "lca/table": [cell for row in rows for cell in row],
        },
    )


def test_previous_layout_answers_like_a_fresh_build(tmp_path):
    source = tmp_path / "doc.xml"
    source.write_text(
        serialize(random_document(7, nodes=600)), encoding="utf-8"
    )
    fresh = repro.Database.open(source, backend="vector", cache=None)
    bundle = tmp_path / "doc.snap"
    write_snapshot(fresh.store, bundle)
    previous_layout(bundle)
    reader = SnapshotReader.open(bundle)
    assert {"lca/table", "lca/log", "lca/table_lens"} <= set(reader.section_names())
    assert len(reader.raw("lca/tour")) == 8 * (2 * fresh.store.node_count - 1)

    builds = lca_index_cache_info().builds  # the fresh store's, above
    loaded = repro.Database.open(bundle, backend="vector", cache=None)
    nouns = sorted(TECH_NOUNS)
    answered = 0
    for step in range(30):
        terms = [nouns[(3 * step + i) % len(nouns)] for i in range(2 + step % 3)]
        expected = fresh.nearest(*terms, limit=5).to_dict()["answers"]
        got = loaded.nearest(*terms, limit=5).to_dict()["answers"]
        assert json.dumps(got) == json.dumps(expected)
        answered += bool(expected)
    assert answered > 20
    # The scalar path too (the kernels' table, derived on first use).
    oids = list(loaded.store.iter_oids())
    for oid1, oid2 in zip(oids[::7], reversed(oids[::5])):
        assert get_lca_index(loaded.store).lca_with_distance(
            oid1, oid2
        ) == get_lca_index(fresh.store).lca_with_distance(oid1, oid2)
    assert lca_index_cache_info().builds == builds


# ---------------------------------------------------------------------------
# Malformed sections
# ---------------------------------------------------------------------------

@pytest.fixture()
def bundle(tmp_path, figure1_store):
    path = tmp_path / "figure1.snap"
    write_snapshot(figure1_store, path)
    return path


def _edit(section, mutate):
    def tamper(path, store):
        columns = lca_columns(path)
        mutate(columns, store)
        return {"columns": {section: columns[section]}}

    return section, tamper


def _set(section, slot, value):
    def mutate(columns, store):
        columns[section][slot] = value(columns, store)

    return _edit(section, mutate)


MALFORMED = {
    "depth one item short": _edit(
        "lca/depth", lambda columns, store: columns["lca/depth"].pop()
    ),
    "flat depth step": _set(
        "lca/depth", 3, lambda columns, store: columns["lca/depth"][2]
    ),
    "depth step of two": _set(
        "lca/depth", -1, lambda columns, store: columns["lca/depth"][-2] + 2
    ),
    "negative first": _set("lca/first", 2, lambda columns, store: -1),
    "first after last": _set(
        "lca/first", 2, lambda columns, store: columns["lca/last"][2] + 1
    ),
    "last past the tour": _set(
        "lca/last", 0, lambda columns, store: len(columns["lca/tour"])
    ),
    "tour OID above the span": _set(
        "lca/tour", 1, lambda columns, store: store.first_oid + store.node_count
    ),
    "tour OID below the span": _set(
        "lca/tour", 1, lambda columns, store: store.first_oid - 1
    ),
    "first one item long": _edit(
        "lca/first", lambda columns, store: columns["lca/first"].append(0)
    ),
    "ragged byte length": (
        "lca/last",
        lambda path, store: {"raw": {"lca/last": b"\0" * 6}},
    ),
    "int32 columns declared int64": (
        "int64 column",
        lambda path, store: {"meta": {"lca_item_width": 8}},
    ),
    "unknown item width": (
        "lca_item_width",
        lambda path, store: {"meta": {"lca_item_width": 2}},
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_lca_section_is_a_storage_error(
    bundle, figure1_store, case
):
    named, tamper = MALFORMED[case]
    rewritten(bundle, **tamper(bundle, figure1_store))
    SnapshotReader.open(bundle)  # framing and checksums are sound
    with pytest.raises(StorageError, match=named):
        read_snapshot(bundle)
