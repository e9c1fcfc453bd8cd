"""The column sink shreds XML into the store the tree route builds.

``shred_xml`` runs the one parse (expat) into
:class:`~repro.monet.transform.ColumnSink`; ``monet_transform(
parse_document(...))`` runs it into the Node tree, normalizes the tree
into a :class:`Document` and feeds the sink from that.  Both are held
to :func:`reference_transform`, Definition 4 spelled out path by path:
π(o) of every node interned through a path-keyed dictionary.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.datamodel.document import Document
from repro.datamodel.errors import XMLParseError
from repro.datamodel.node import Node
from repro.datamodel.parser import parse_document
from repro.datamodel.paths import Path
from repro.datamodel.serializer import serialize
from repro.datasets import (
    DblpConfig,
    dblp_document,
    figure1_document,
    plays_document,
    random_document,
)
from repro.monet.transform import monet_transform, shred_xml
from repro.snapshot import Catalog
from repro.snapshot.codec import write_snapshot


def reference_transform(document: Document):
    """The dense columns, summary columns and string rows of Def. 4,
    interning every node's π(o) and ``π(o)@name`` as whole paths."""
    pids = {Path(): 0}
    summary = ([], [], [])

    def intern(path: Path) -> int:
        pid = pids.get(path)
        if pid is None:
            pid = pids[path] = len(pids)
            summary[0].append(pids[path.parent()])
            summary[1].append(path.last.label)
            summary[2].append(path.last.kind == "@")
        return pid

    dense = ([], [], [])
    rows = []
    for node in document.iter_nodes():
        path = document.path(node.oid)
        dense[0].append(intern(path))
        dense[1].append(-1 if node.parent is None else node.parent.oid)
        dense[2].append(node.rank)
        for name, value in node.attributes.items():
            rows.append((intern(path.attribute(name)), node.oid, value))
    rows.sort(key=lambda row: row[0])  # stable: OID order within a pid
    return {"dense": dense, "summary": summary, "strings": rows}


def columns(store):
    """What a store holds, as plain lists."""
    summary = store.summary
    pids = list(summary.pids())
    runs = store.string_runs()
    row_pids = np.repeat(np.arange(len(runs.offsets) - 1), np.diff(runs.offsets))
    return {
        "dense": tuple(list(column) for column in store.dense_columns()),
        "summary": (
            [summary.parent(pid) for pid in pids],
            [summary.label(pid) for pid in pids],
            [summary.is_attribute(pid) for pid in pids],
        ),
        "strings": list(
            zip(
                row_pids.tolist(),
                np.asarray(runs.heads).tolist(),
                list(runs.tails),
            )
        ),
    }


def assert_same_store(text: str, first_oid: int = 1, keep_whitespace=False):
    shredded = shred_xml(text, first_oid, keep_whitespace)
    document = parse_document(text, first_oid, keep_whitespace)
    reference = reference_transform(document)
    reference["dense"] = tuple(reference["dense"])
    reference["summary"] = tuple(reference["summary"])
    assert columns(shredded) == reference
    assert columns(monet_transform(document)) == reference
    assert shredded.root_oid == shredded.first_oid == first_oid
    return shredded


DATASETS = {
    "figure1": figure1_document,
    "plays": plays_document,
    "dblp-quick": lambda: dblp_document(DblpConfig(last_year=1986)),
    "random-3000": lambda: random_document(42, nodes=3000),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_datasets_shred_into_the_same_columns_and_bundle(name, tmp_path):
    text = serialize(DATASETS[name]())
    shredded = assert_same_store(text)
    via_tree = monet_transform(parse_document(text, first_oid=1))
    write_snapshot(shredded, tmp_path / "sink.snap")
    write_snapshot(via_tree, tmp_path / "tree.snap")
    assert (tmp_path / "sink.snap").read_bytes() == (
        tmp_path / "tree.snap"
    ).read_bytes()


# -- generated documents -----------------------------------------------

NAMES = st.sampled_from(["a", "b", "cdata", "string", "x:y"])
ATTRIBUTE_NAMES = st.sampled_from(["k", "cdata", "string", "id"])
PIECES = st.sampled_from(
    ["Bit", "1999", " ", "\n  ", "&amp;", "&lt;", "&#65;", "&#x42;", "&apos;",
     "q&quot;", "é"]
)


def attributes():
    return st.dictionaries(
        ATTRIBUTE_NAMES, st.lists(PIECES, max_size=3).map("".join), max_size=3
    ).map(lambda attrs: "".join(f' {k}="{v}"' for k, v in attrs.items()))


@st.composite
def xml_texts(draw):
    """Mixed content, CDATA sections (empty or not), comments and PIs
    that split text, references, and ``cdata`` attributes."""
    root = draw(NAMES)
    out = [f"<{root}{draw(attributes())}>"]
    open_tags = [root]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(
            st.sampled_from(
                ["open", "close", "empty", "text", "section", "comment", "pi"]
            )
        )
        if kind == "open":
            label = draw(NAMES)
            out.append(f"<{label}{draw(attributes())}>")
            open_tags.append(label)
        elif kind == "close" and len(open_tags) > 1:
            out.append(f"</{open_tags.pop()}>")
        elif kind == "empty":
            out.append(f"<{draw(NAMES)}{draw(attributes())}/>")
        elif kind == "text":
            out.append("".join(draw(st.lists(PIECES, min_size=1, max_size=4))))
        elif kind == "section":
            body = draw(st.sampled_from(["", " ", "a < b & c", "]]", "x"]))
            out.append(f"<![CDATA[{body}]]>")
        elif kind == "comment":
            out.append("<!-- split -->")
        elif kind == "pi":
            out.append("<?pi split?>")
    out.extend(f"</{label}>" for label in reversed(open_tags))
    return "".join(out)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(xml_texts(), st.booleans(), st.sampled_from([0, 1]))
def test_generated_documents_shred_like_the_tree(text, keep_whitespace, first):
    assert_same_store(text, first, keep_whitespace)


@pytest.mark.parametrize("keep_whitespace", [False, True])
def test_whitespace_only_text(keep_whitespace):
    store = assert_same_store(
        "<r>\n  <a> </a>\t<b><![CDATA[ ]]></b>\n</r>",
        keep_whitespace=keep_whitespace,
    )
    cdata_nodes = [
        pid for pid in store.dense_columns()[0]
        if store.summary.label(pid) == "cdata"
    ]
    # Dropped unless kept, except for the CDATA section, which stays
    # (stripped to "") either way.
    assert len(cdata_nodes) == (5 if keep_whitespace else 1)


def test_cdata_attribute_becomes_a_trailing_cdata_child():
    store = assert_same_store('<r><a cdata="v" k="1"><b/>t</a></r>')
    summary = store.summary
    labels = [summary.label(pid) for pid in store.dense_columns()[0]]
    assert labels == ["r", "a", "b", "cdata", "cdata"]
    assert list(store.dense_columns()[2]) == [0, 0, 0, 1, 2]
    last = store.last_oid
    assert store.attributes_of(last) == {"string": "v"}
    assert store.attributes_of(store.first_oid + 1) == {"k": "1"}


def test_cdata_attribute_of_a_cdata_element_is_its_string():
    store = assert_same_store(
        '<r><cdata cdata="v" string="s" k="1"/><cdata cdata="w"/></r>'
    )
    assert store.node_count == 3
    assert store.attributes_of(store.first_oid + 1) == {"string": "v", "k": "1"}
    assert store.attributes_of(store.first_oid + 2) == {"string": "w"}


def test_references_decode_the_same():
    store = assert_same_store('<t k="&lt;&#65;">Hacking &amp; RSI &#x42;</t>')
    assert store.attributes_of(store.first_oid) == {"k": "<A"}
    assert store.attributes_of(store.first_oid + 1) == {
        "string": "Hacking & RSI B"
    }


def test_chains_deeper_than_the_recursion_limit():
    import sys

    depth = sys.getrecursionlimit() + 200
    text = "<n>" * depth + "leaf" + "</n>" * depth
    shredded = shred_xml(text, first_oid=1)
    assert columns(shredded) == columns(
        monet_transform(parse_document(text, first_oid=1))
    )
    assert shredded.node_count == depth + 1
    assert shredded.summary.depth(shredded.pid_of(shredded.last_oid)) == depth + 1


# -- errors ------------------------------------------------------------

MALFORMED = [
    # every malformed input of tests/datamodel/test_parser.py
    "<a><b></a></b>",
    "<a><b>",
    "<a/><b/>",
    '<a k="1" k="2"/>',
    "<a k=1/>",
    "<t>&nope;</t>",
    "<r>\n<bad</r>",
    # and a few more
    "",
    "just text",
    "<r>text",
    "<r><!-- open",
    "<r>&#xZZ;</r>",
    '<r k="&#;"/>',
    "<!DOCTYPE r [<!ENTITY x 'y'>",
    "<r>\n  <a>\n</b></r>",
    # not well-formed, yet accepted before expat read the XML
    '<a x="<"/>',
    "<a>]]></a>",
    "<r>\x01</r>",
    "<r>\ufffe</r>",
    '  <?xml version="1.0"?><r/>',
    "<a><b></a>",
]

#: Well-formed, but refused: a declared entity, or one an unread
#: external subset might declare, is never expanded nor dropped.
ENTITY_POLICY = [
    '<!DOCTYPE a SYSTEM "x.dtd"><a>&foo;</a>',
    '<!DOCTYPE a SYSTEM "x.dtd"><a b="&foo;"/>',
    "<!DOCTYPE r [<!ENTITY x 'y'>]><r>&x;</r>",
    "<!DOCTYPE r [<!ENTITY % p 'y'>]><r/>",
]


@pytest.mark.parametrize("text", MALFORMED + ENTITY_POLICY)
def test_malformed_input_raises_the_same_error_through_both_sinks(text):
    with pytest.raises(XMLParseError) as via_tree:
        parse_document(text)
    with pytest.raises(XMLParseError) as via_columns:
        shred_xml(text)
    tree, sink = via_tree.value, via_columns.value
    assert tree.line >= 1 and tree.column >= 1
    assert (str(sink), sink.line, sink.column) == (
        str(tree),
        tree.line,
        tree.column,
    )


# -- what a build does not construct -----------------------------------

@pytest.fixture
def constructions(monkeypatch):
    """Counts of Node, Document and non-empty Path constructions."""
    counts = Counter()

    def counting(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            real(self, *args, **kwargs)
            if cls is not Path or len(self):
                counts[cls.__name__] += 1

        monkeypatch.setattr(cls, "__init__", init)

    for cls in (Node, Document, Path):
        counting(cls)
    return counts


def test_ingest_and_parsed_open_build_no_tree_and_no_path(
    tmp_path, constructions
):
    xml = tmp_path / "plays.xml"
    xml.write_text(serialize(plays_document()), encoding="utf-8")
    constructions.clear()
    Catalog(tmp_path / "catalog").ingest("plays", xml)
    db = Database.open(xml, catalog=tmp_path / "elsewhere", cache=None)
    assert db.origin == "parse"
    assert db.store.node_count > 1000
    assert constructions == {}


def test_put_after_a_snapshot_open_builds_no_path(tmp_path, constructions):
    bundle = tmp_path / "plays.snap"
    write_snapshot(monet_transform(plays_document()), bundle)
    db = Database.open(bundle, cache=None)
    summary = db.store.summary
    paths = len(summary)
    constructions.clear()
    # Every path of the first fragment is already in the summary; the
    # second adds one.
    db.put("memo", "<play><title>Memo</title></play>")
    assert len(summary) == paths
    db.put("memo-2", "<play><title>Memo</title><draft/></play>")
    assert len(summary) == paths + 1
    assert constructions == {}
