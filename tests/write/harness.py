"""Mutate-vs-rebuild differential harness for the live write path.

The correctness contract of live writes is *equivalence with a rebuild
from scratch*: after any sequence of put/delete/replace, every query
surface must answer exactly as a fresh store built from the surviving
documents would.  The harness keeps that oracle as a logical model — an
ordered ``name → fragment XML`` map mirroring the mutation semantics
(puts append, replaces move the document to the tail, deletes remove) —
and materializes it on demand by serializing the fragments under the
original root tag, re-parsing and Monet-transforming.

OID bridge.  A mutated monolithic store serves raw (gappy) OIDs; the
rebuild assigns dense ones.  ``first_oid + store.live_position(oid)``
is the canonical bijection between the two (identity on a dense store),
so answers are compared after mapping every OID-valued cell through it.
Sharded serving re-compacts on each mutation and a ``compact()`` call
re-densifies a monolithic store, making the bijection the identity —
truly byte-identical answers.
"""

import random
from collections import OrderedDict

from repro.api import Database, DatabaseOptions, NearestRequest, QueryRequest
from repro.core.engine import NearestConceptEngine
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import escape_attribute, serialize, serialize_node
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
from repro.query.executor import QueryProcessor

BACKENDS = ("steered", "vector")

#: ``None`` is a monolithic open; integers are in-process shard counts.
SHARD_MODES = (None, 1, 2, 4)


def _fragment(tag, pairs):
    """A small two-level fragment: ``<tag><k>v</k>...</tag>``."""
    body = "".join(f"<{k}>{v}</{k}>" for k, v in pairs)
    return f"<{tag}>{body}</{tag}>"


# Per dataset: builder, nearest term tuples, query texts, and a pool of
# put/replace fragments that *overlap* the query vocabulary, so
# mutations actually move answers.
DATASETS = {
    "figure1": {
        "build": figure1_document,
        "terms": [("Bit", "1999"), ("Bob", "Byte")],
        "queries": [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'Bit' and $b contains '1999'",
            "select $a, tag($a) from # $a where $a contains 'Bit'",
        ],
        "fragments": [
            _fragment("institute", [("name", "Bit Lab"), ("year", "1999")]),
            _fragment("book", [("author", "Bob"), ("title", "Byte Bit")]),
            _fragment("article", [("title", "Bit Hacks"), ("year", "1999")]),
            _fragment("book", [("author", "Alice"), ("year", "2001")]),
        ],
    },
    "plays": {
        "build": lambda: plays_document(
            PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2)
        ),
        "terms": [("crown", "ghost"), ("love", "storm")],
        "queries": [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'crown' and $b contains 'ghost'",
            "select tag($a), path($a) from # $a where $a contains 'storm'",
        ],
        "fragments": [
            _fragment("play", [("title", "The crown"), ("line", "ghost storm")]),
            _fragment("play", [("title", "love"), ("line", "crown at night")]),
            _fragment("interlude", [("line", "storm and ghost")]),
        ],
    },
    "dblp": {
        "build": lambda: dblp_document(
            DblpConfig(papers_per_proceedings=4, articles_per_year=2)
        ),
        "terms": [("ICDE", "1999"), ("VLDB", "1994")],
        "queries": [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'ICDE' and $b contains '1999'",
            "select distinct tag($a) from # $a where $a contains 'VLDB'",
        ],
        "fragments": [
            _fragment(
                "article", [("title", "ICDE retrospective"), ("year", "1999")]
            ),
            _fragment(
                "inproceedings", [("booktitle", "VLDB"), ("year", "1994")]
            ),
            _fragment("proceedings", [("booktitle", "ICDE 1999")]),
        ],
    },
    "multimedia": {
        "build": lambda: multimedia_document(MultimediaConfig(items=8)),
        "terms": [("wavelet", "texture"), ("motion", "region")],
        "queries": [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'wavelet' and $b contains 'texture'",
        ],
        "fragments": [
            _fragment(
                "item", [("feature", "wavelet"), ("segment", "texture")]
            ),
            _fragment("item", [("feature", "motion region wavelet")]),
        ],
    },
    "random": {
        "build": lambda: random_document(7, nodes=800, max_children=4),
        "terms": [("wavelet", "texture"), ("histogram", "contour")],
        "queries": [
            "select meet($a,$b) from # $a, # $b "
            "where $a contains 'wavelet' and $b contains 'texture'",
        ],
        "fragments": [
            _fragment("record", [("field", "wavelet texture")]),
            _fragment("group", [("field", "histogram contour wavelet")]),
        ],
    },
}

# Every option set pins ``limit``: the envelope default (10) differs
# from the raw engine default (unlimited), and both sides must ask the
# same question.
NEAREST_OPTIONS = (
    {"limit": 10},
    {"limit": 5},
    {"limit": 10, "exclude_root": True, "require_all_terms": True},
)


class LogicalModel:
    """The rebuild-from-scratch oracle as an ordered name → XML map."""

    def __init__(self, document):
        root = document.root
        self.root_tag = root.label
        self.root_attributes = dict(root.attributes)
        self.first_oid = 1
        self.fragments = OrderedDict(
            (f"seed-{index:04d}", serialize_node(child))
            for index, child in enumerate(root.children)
        )

    # -- mutation semantics (mirrors Database.put/delete/replace) -------
    def put(self, name, xml):
        assert name not in self.fragments, name
        self.fragments[name] = xml

    def delete(self, name):
        del self.fragments[name]

    def replace(self, name, xml):
        # A replace deletes then re-appends: the document moves to the
        # tail of document order, exactly like the live store.
        self.fragments.pop(name, None)
        self.fragments[name] = xml

    def names(self):
        return list(self.fragments)

    # -- materialization -------------------------------------------------
    def oracle_xml(self):
        attributes = "".join(
            f' {name}="{escape_attribute(value)}"'
            for name, value in self.root_attributes.items()
        )
        body = "".join(self.fragments.values())
        return f"<{self.root_tag}{attributes}>{body}</{self.root_tag}>"

    def oracle_store(self):
        from repro.monet.transform import monet_transform

        return monet_transform(
            parse_document(self.oracle_xml(), first_oid=self.first_oid)
        )


def write_source(tmp_path, dataset_name):
    """Serialize the dataset to an XML file (the ingest/open source)."""
    document = DATASETS[dataset_name]["build"]()
    path = tmp_path / f"{dataset_name}.xml"
    path.write_text(serialize(document), encoding="utf-8")
    return path, LogicalModel(document)


def open_live(source, *, backend, shards=None, cache=None):
    """Open the writable database under test (in-process, workers=0)."""
    return Database.open(
        str(source),
        options=DatabaseOptions(backend=backend, shards=shards, cache=cache),
    )


def oid_mapper(db):
    """The live-store → rebuild-oracle OID bijection for this database."""
    store = db._base_store if db.sharded is not None else db.store
    first = store.first_oid
    return lambda oid: first + store.live_position(oid)


def _oid_column(name):
    """Whether a query result column holds OIDs (vs tags/paths/counts)."""
    return name.startswith("$") or name.startswith("meet(")


# -- the three query surfaces, canonicalized ---------------------------
def live_nearest(db, terms, options):
    envelope = db.nearest(
        NearestRequest(terms=tuple(terms), snippets=False, **options)
    )
    mapper = oid_mapper(db)
    return [
        {
            **answer,
            "oid": mapper(answer["oid"]),
            "origins": [mapper(oid) for oid in answer["origins"]],
        }
        for answer in envelope.answers
    ]


def oracle_nearest(engine, terms, options):
    return [
        {
            "oid": concept.oid,
            "tag": concept.tag,
            "path": str(concept.path),
            "joins": concept.joins,
            "spread": concept.spread,
            "depth": concept.depth,
            "origins": list(concept.origins),
            "terms": list(concept.terms),
        }
        for concept in engine.nearest_concepts(*terms, **options)
    ]


def live_search(db, term):
    envelope = db.search(term)
    mapper = oid_mapper(db)
    return [{**answer, "oid": mapper(answer["oid"])} for answer in envelope.answers]


def oracle_search(engine, store, term):
    return [
        {
            "oid": oid,
            "tag": store.summary.label(store.pid_of(oid)),
            "path": str(store.path_of(oid)),
        }
        for oid in sorted(engine.term_hits(term).oids())
    ]


def live_query(db, text):
    envelope = db.query(QueryRequest(text=text))
    mapper = oid_mapper(db)
    oid_columns = [_oid_column(name) for name in envelope.columns]
    rows = [
        tuple(
            mapper(cell) if is_oid else cell
            for cell, is_oid in zip(row, oid_columns)
        )
        for row in envelope.rows
    ]
    return list(envelope.columns), rows


def oracle_query(processor, text):
    result = processor.execute(text)
    return list(result.columns), [tuple(row) for row in result.rows]


def assert_equivalent(db, model, backend, dataset_name, context=""):
    """Every query surface answers exactly as a rebuild from scratch."""
    spec = DATASETS[dataset_name]
    oracle_store = model.oracle_store()
    engine = NearestConceptEngine(oracle_store, backend=backend)
    processor = QueryProcessor(oracle_store, backend=backend)

    # The registry itself must match: same names, same document order.
    live_docs = db.documents()
    expected_order = model.names()
    assert (
        sorted(live_docs) == sorted(expected_order)
    ), f"{context}: registry names diverged"
    by_low = sorted(live_docs, key=lambda name: live_docs[name][0])
    assert by_low == expected_order, f"{context}: document order diverged"

    for terms in spec["terms"]:
        for options in NEAREST_OPTIONS:
            expected = oracle_nearest(engine, terms, options)
            actual = live_nearest(db, terms, options)
            assert actual == expected, (
                f"{context}: nearest({terms}, {options}) diverged from "
                f"the rebuild oracle"
            )
        for term in terms:
            assert live_search(db, term) == oracle_search(
                engine, oracle_store, term
            ), f"{context}: search({term!r}) diverged from the rebuild oracle"
    for text in spec["queries"]:
        assert live_query(db, text) == oracle_query(processor, text), (
            f"{context}: query {text!r} diverged from the rebuild oracle"
        )


class MutationFuzzer:
    """Seeded generator of valid put/delete/replace sequences."""

    def __init__(self, model, dataset_name, seed):
        self.model = model
        self.rng = random.Random(seed)
        self.fragments = DATASETS[dataset_name]["fragments"]
        self.counter = 0

    def _fresh_name(self):
        self.counter += 1
        return f"doc-{self.counter:04d}"

    def _fragment(self):
        return self.rng.choice(self.fragments)

    def step(self):
        """One random valid mutation: ``(op, name, xml_or_None)``."""
        names = self.model.names()
        ops = ["put", "replace"]
        # Keep at least one document around so every surface stays
        # exercised (an empty collection is covered by targeted tests).
        if len(names) > 1:
            ops.extend(["delete", "delete"])
        op = self.rng.choice(ops)
        if op == "put":
            return ("put", self._fresh_name(), self._fragment())
        if op == "delete":
            return ("delete", self.rng.choice(names), None)
        # Half of replaces are upserts of brand-new names.
        if names and self.rng.random() < 0.5:
            return ("replace", self.rng.choice(names), self._fragment())
        return ("replace", self._fresh_name(), self._fragment())


def apply_step(db, model, step):
    """Apply one fuzzer step to both the live database and the model."""
    op, name, xml = step
    if op == "put":
        receipt = db.put(name, xml)
        model.put(name, xml)
    elif op == "delete":
        receipt = db.delete(name)
        model.delete(name)
    else:
        receipt = db.replace(name, xml)
        model.replace(name, xml)
    return receipt
