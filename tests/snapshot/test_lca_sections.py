"""The ``lca/*`` sections are gone: the LCA index is derived on load.

* layout — a bundle holds no ``lca/*`` section and no ``tour_length``
  or ``lca_item_width`` meta field;
* a bundle in the layout before the depth column (``int32`` ``lca/*``
  plus both meta fields) and one in the layout before that (``int64``
  columns, the stored range-minimum table and its meta field, no
  ``lca_item_width``) open through the same read path and answer byte
  for byte like a fresh build, with zero index builds;
* those sections are never read, so CRC-valid ones carrying values
  that would have sent a gather outside its column change nothing.
"""

import json

import pytest

import repro
from repro.core.lca_index import get_lca_index, lca_index_cache_info
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

    ``columns`` maps a section to the integers it should hold and
    ``extra`` adds sections (both written ``width`` bytes wide), ``raw``
    maps a section to literal bytes, ``meta`` patches the meta object
    (``None`` drops a key).  Everything else is copied; every checksum
    is valid.
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
        writer.add_array(name, values, width)
    writer.write(path)
    return path


def tour_columns(store):
    """The Euler tour of ``store`` as the removed writer stored it:
    the tour, its depths and the first/last tour position per OID."""
    base = store.first_oid
    _, parents, ranks = store.dense_columns()
    children = {}
    for oid, parent in enumerate(parents, base):
        if parent >= 0:
            children.setdefault(parent, []).append(oid)
    tour, depth = [], []
    first, last = [-1] * store.node_count, [-1] * store.node_count
    stack = [(store.root_oid, 1, 0)]
    while stack:
        oid, level, cursor = stack.pop()
        if cursor == 0:
            first[oid - base] = len(tour)
        last[oid - base] = len(tour)
        tour.append(oid)
        depth.append(level)
        below = sorted(children.get(oid, ()), key=lambda o: ranks[o - base])
        if cursor < len(below):
            stack.append((oid, level, cursor + 1))
            stack.append((below[cursor], level + 1, 0))
    return dict(zip(LCA_SECTIONS, (tour, depth, first, last)))


def parent_layout(path, store):
    """Turn the bundle at ``path`` into what the writer before the depth
    column wrote: ``int32`` ``lca/*`` sections, ``tour_length`` and
    ``lca_item_width`` in meta."""
    columns = tour_columns(store)
    return rewritten(
        path,
        meta={"tour_length": len(columns["lca/tour"]), "lca_item_width": 4},
        extra=columns,
    )


def previous_layout(path, store):
    """Turn the bundle at ``path`` into what the writer before that
    wrote: int64 ``lca/*`` columns plus ``lca/log``, ``lca/table_lens``
    and the full sparse table in ``lca/table``, ``table_row_count`` in
    meta and no ``lca_item_width``."""
    columns = tour_columns(store)
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
        width=8,
        meta={"tour_length": len(depth), "table_row_count": len(rows)},
        extra={
            **columns,
            "lca/log": log,
            "lca/table_lens": [len(row) for row in rows],
            "lca/table": [cell for row in rows for cell in row],
        },
    )


@pytest.mark.parametrize(
    "document",
    [
        pytest.param(lambda: random_document(42, nodes=3000), id="random-3000"),
        pytest.param(dblp_document, id="dblp"),
    ],
)
def test_lca_sections_fit_the_size_budget(tmp_path, document):
    """The budget is zero bytes: the index is derived on load."""
    store = monet_transform(document())
    path = tmp_path / "budget.snap"
    write_snapshot(store, path)
    reader = SnapshotReader.open(path)
    assert not [name for name in reader.section_names() if name.startswith("lca/")]
    assert not {"tour_length", "lca_item_width"} & set(reader.json("meta"))
    loaded = read_snapshot(path)
    assert loaded.lca_index.depths.tolist() == [
        store.depth_of(oid) for oid in store.iter_oids()
    ]


# ---------------------------------------------------------------------------
# Earlier layouts keep opening
# ---------------------------------------------------------------------------

def assert_answers_like_a_fresh_build(fresh, bundle):
    builds = lca_index_cache_info().builds  # the fresh store's, if any
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


@pytest.fixture()
def fresh_bundle(tmp_path):
    source = tmp_path / "doc.xml"
    source.write_text(
        serialize(random_document(7, nodes=600)), encoding="utf-8"
    )
    fresh = repro.Database.open(source, backend="vector", cache=None)
    get_lca_index(fresh.store)  # the fresh store's one index build
    bundle = tmp_path / "doc.snap"
    write_snapshot(fresh.store, bundle)
    return fresh, bundle


def test_parent_layout_answers_like_a_fresh_build(fresh_bundle):
    fresh, bundle = fresh_bundle
    parent_layout(bundle, fresh.store)
    reader = SnapshotReader.open(bundle)
    assert set(LCA_SECTIONS) <= set(reader.section_names())
    assert len(reader.raw("lca/tour")) == 4 * (2 * fresh.store.node_count - 1)
    assert reader.json("meta")["lca_item_width"] == 4
    assert_answers_like_a_fresh_build(fresh, bundle)


def test_previous_layout_answers_like_a_fresh_build(fresh_bundle):
    fresh, bundle = fresh_bundle
    previous_layout(bundle, fresh.store)
    reader = SnapshotReader.open(bundle)
    assert {"lca/table", "lca/log", "lca/table_lens"} <= set(reader.section_names())
    assert len(reader.raw("lca/tour")) == 8 * (2 * fresh.store.node_count - 1)
    assert "lca_item_width" not in reader.json("meta")
    assert_answers_like_a_fresh_build(fresh, bundle)


# ---------------------------------------------------------------------------
# Malformed sections of the parent layout are never read
# ---------------------------------------------------------------------------

@pytest.fixture()
def bundle(tmp_path, figure1_store):
    path = tmp_path / "figure1.snap"
    write_snapshot(figure1_store, path)
    return parent_layout(path, figure1_store)


def _edit(section, mutate):
    def tamper(path, store):
        columns = tour_columns(store)
        mutate(columns, store)
        return {"columns": {section: columns[section]}}

    return tamper


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
    "ragged byte length": lambda path, store: {"raw": {"lca/last": b"\0" * 6}},
    "int32 columns declared int64": (
        lambda path, store: {"meta": {"lca_item_width": 8}}
    ),
    "unknown item width": lambda path, store: {"meta": {"lca_item_width": 2}},
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_lca_section_is_ignored(bundle, figure1_store, case):
    expected = read_snapshot(bundle)
    rewritten(bundle, **MALFORMED[case](bundle, figure1_store))
    SnapshotReader.open(bundle)  # framing and checksums are sound
    loaded = read_snapshot(bundle)
    assert loaded.lca_index.depths.tolist() == expected.lca_index.depths.tolist()
    oids = list(figure1_store.iter_oids())
    for oid1 in oids:
        for oid2 in oids[::3]:
            assert loaded.lca_index.lca_with_distance(
                oid1, oid2
            ) == expected.lca_index.lca_with_distance(oid1, oid2)
