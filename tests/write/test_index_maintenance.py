"""Maintained indexes equal fresh builds after every write and compaction.

A write rolls the full-text, value and LCA indexes forward through the
mutation journal, and a compaction carries them over to the compacted
store through its OID map; neither ever builds one.  Random
put/replace/delete/compact sequences over two datasets check, after
every step, that each maintained index answers exactly like one built
from scratch over the same store — and that the build counters never
move once the first read has built the indexes.

The second test checks the bundle a compaction rewrites: it must hold
the same sections, of the same size, as the bundle of a fresh parse of
the surviving documents.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.core.lca_index import LcaIndex, get_lca_index, lca_index_cache_info
from repro.datamodel.serializer import serialize
from repro.datasets import DblpConfig, dblp_document
from repro.fulltext.index import (
    FullTextIndex,
    fulltext_index_cache_info,
    get_fulltext_index,
)
from repro.snapshot import Catalog, read_snapshot, write_snapshot
from repro.snapshot.format import SnapshotReader
from repro.valueindex import (
    ValueIndex,
    get_value_index,
    value_index_cache_info,
)

from .harness import DATASETS, LogicalModel, open_live

#: Plays from the write harness, and the quick DBLP of the benchmark.
BUILDERS = {
    "plays": DATASETS["plays"]["build"],
    "dblp": lambda: dblp_document(DblpConfig(last_year=1986)),
}

#: Values mixing numbers, NaN/inf readings and strings: the put
#: fragments carry them and the value probes compare against them.
VALUES = (
    "1985", "1986", "4", "0", "-3.5", "nan", "NaN", "inf", "-inf",
    "abc", "crown", "ghost storm", "VLDB", "1e3",
)
LITERALS = VALUES + ("zzz", "", "5", "1984.5")

fragments = st.builds(
    lambda tag, pairs: "<{0}>{1}</{0}>".format(
        tag, "".join(f"<{k}>{v}</{k}>" for k, v in pairs)
    ),
    st.sampled_from(("article", "play", "interlude", "inproceedings")),
    st.lists(
        st.tuples(
            st.sampled_from(("title", "year", "line", "booktitle")),
            st.sampled_from(VALUES),
        ),
        min_size=1,
        max_size=4,
    ),
)

_sources = {}


def _source(dataset):
    """The dataset's XML, serialized once per session."""
    if dataset not in _sources:
        _sources[dataset] = serialize(BUILDERS[dataset]())
    return _sources[dataset]


def _builds():
    return (
        lca_index_cache_info().builds,
        fulltext_index_cache_info().builds,
        value_index_cache_info().builds,
    )


def _postings(index):
    return {
        term: Counter(
            zip(np.asarray(pids).tolist(), np.asarray(oids).tolist())
        )
        for term, pids, oids in index.iter_term_columns()
    }


def _read(db):
    """Reads that use all three indexes and the value probes' columns."""
    db.nearest("crown", "1985")
    db.query("select $a from # $a where $a = '1985'")
    db.query("select $a from # $a where $a >= '4'")
    db.query("select $a from # $a where $a contains 'ghost'")


def _check_value_index(maintained, fresh):
    for literal in LITERALS:
        expected = fresh.lookup_eq(literal)
        assert maintained.lookup_eq(literal) == expected, literal
        assert maintained.estimate_eq(literal) == len(expected), literal
        for op in ("<", "<=", ">", ">="):
            expected = fresh.lookup_cmp(op, literal)
            actual = maintained.lookup_cmp(op, literal)
            assert actual == expected, (op, literal)
            assert maintained.estimate_cmp(op, literal) >= len(expected)
    for pid, _oids, _values in list(fresh.iter_path_columns())[:3]:
        for probe in ("lookup_eq", "lookup_cmp"):
            args = ("1985",) if probe == "lookup_eq" else ("<", "abc")
            assert getattr(maintained, probe)(*args, pids=[pid]) == (
                getattr(fresh, probe)(*args, pids=[pid])
            )
    assert maintained.lookup_range("0", "1986", numeric=True) == (
        fresh.lookup_range("0", "1986", numeric=True)
    )
    assert maintained.lookup_range("a", "n") == fresh.lookup_range("a", "n")
    assert maintained.entry_count == fresh.entry_count


def _check_against_fresh(db, compacted):
    """The maintained indexes of ``db.store`` against fresh builds; the
    build counters must not move while the maintained ones are fetched.
    """
    store = db.store
    before = _builds()
    lca = get_lca_index(store)
    fulltext = get_fulltext_index(store, db.case_sensitive)
    values = get_value_index(store)
    assert _builds() == before, "a maintained index was rebuilt"

    fresh_fulltext = FullTextIndex(store, case_sensitive=db.case_sensitive)
    assert _postings(fulltext) == _postings(fresh_fulltext)
    assert (
        fulltext.indexed_associations == fresh_fulltext.indexed_associations
    )
    _check_value_index(values, ValueIndex(store))
    if compacted:
        assert np.array_equal(lca.depths, LcaIndex(store).depths)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(dataset=st.sampled_from(sorted(BUILDERS)), data=st.data())
def test_maintained_indexes_equal_fresh_builds(
    tmp_path_factory, dataset, data
):
    source = tmp_path_factory.mktemp("maintained") / f"{dataset}.xml"
    source.write_text(_source(dataset), encoding="utf-8")
    db = open_live(source, backend="vector")
    try:
        _read(db)  # the first (and only) build of every index
        for step in range(data.draw(st.integers(3, 7), label="steps")):
            names = sorted(db.documents())
            kind = data.draw(
                st.sampled_from(("put", "replace", "delete", "compact")),
                label=f"step {step}",
            )
            if kind != "compact" and not names:
                kind = "put"
            if kind == "put":
                db.put(f"new-{step}", data.draw(fragments))
            elif kind == "replace":
                name = data.draw(st.sampled_from(names))
                db.replace(name, data.draw(fragments))
            elif kind == "delete":
                db.delete(data.draw(st.sampled_from(names)))
            else:
                db.compact()
            before = _builds()
            _read(db)
            assert _builds() == before, f"a read after {kind} built an index"
            _check_against_fresh(db, compacted=kind == "compact")
    finally:
        db.close()


WRITES = (
    ("put", "memo", "<article><title>nan</title><year>1985</year></article>"),
    ("replace", "memo", "<article><title>VLDB</title><year>inf</year></article>"),
    ("delete", "seed-0001", None),
    ("put", "note", "<inproceedings><year>1986</year></inproceedings>"),
    ("delete", "memo", None),
)


def _sections(path):
    reader = SnapshotReader.open(path)
    return reader, {
        name: bytes(reader.raw(name)) for name in reader.section_names()
    }


def _rows(path, prefix):
    """A bundle's ``ft/*`` or ``vx/*`` sections as a multiset of (term
    or path, path, OID, value) rows.  Pids are named by their paths: a
    written store interns paths in write order, a fresh parse in
    document order."""
    reader = SnapshotReader.open(path)
    summary = read_snapshot(path).store.summary
    lengths = reader.array(f"{prefix}/lens", 4)
    oids = reader.array(f"{prefix}/oids", 4)
    if prefix == "ft":
        keys = reader.strings("ft/terms")
        pids = reader.array("ft/pids", 4)
        values = [None] * len(oids)
    else:
        keys = reader.array("vx/pids", 4)
        pids = np.repeat(keys, lengths).tolist()
        values = reader.strings("vx/values")
    rows = Counter()
    ends = np.cumsum(lengths).tolist()
    for key, start, stop in zip(keys, [0] + ends, ends):
        for row in range(start, stop):
            path = str(summary.path(pids[row]))
            term = key if prefix == "ft" else path
            rows[(term, path, oids[row], values[row])] += 1
    return rows


def test_compacted_bundle_matches_a_fresh_parse(tmp_path):
    """After writes and ``compact()`` the rewritten ``.snap`` holds the
    ``lca/*`` sections of a fresh parse byte for byte, its ``ft/*`` and
    ``vx/*`` sections as equal multisets, and has the same size."""
    source = tmp_path / "dblp.xml"
    source.write_text(_source("dblp"), encoding="utf-8")
    catalog = Catalog(tmp_path / "catalog")
    declared = ["dblp/inproceedings/year"]
    catalog.ingest("dblp", source, value_indexes=declared)
    db = Database.open("dblp", catalog=catalog.root, backend="vector")
    model = LogicalModel(BUILDERS["dblp"]())
    try:
        _read(db)
        for op, name, xml in WRITES:
            arguments = (name,) if xml is None else (name, xml)
            getattr(db, op)(*arguments)
            getattr(model, op)(*arguments)
            _read(db)
        before = _builds()
        db.compact()
        assert _builds() == before
    finally:
        db.close()

    bundle = catalog.bundle_path("dblp")
    reader, sections = _sections(bundle)
    meta = reader.json("meta")
    # The fresh parse under the registry and catalog fields the
    # collection records: its meta must then be the same JSON.
    oracle = model.oracle_store()
    oracle.documents = {
        name: tuple(span) for name, span in meta["documents"].items()
    }
    fresh = tmp_path / "fresh.snap"
    write_snapshot(
        oracle,
        fresh,
        value_indexes=declared,
        extra_meta={
            key: meta[key] for key in ("collection", "collection_generation")
        },
    )
    fresh_reader, fresh_sections = _sections(fresh)
    assert meta == fresh_reader.json("meta")
    assert bundle.stat().st_size == fresh.stat().st_size
    assert sorted(sections) == sorted(fresh_sections)
    for name in sections:
        if name.startswith("lca/"):
            assert sections[name] == fresh_sections[name], name
    for prefix in ("ft", "vx"):
        assert _rows(bundle, prefix) == _rows(fresh, prefix), prefix
