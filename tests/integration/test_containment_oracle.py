"""Containment against an oracle this repo did not write: ElementTree.

The store and ``xml.etree.ElementTree`` read the same XML through the
same expat.  ElementTree's tree is numbered here the way the store
numbers its nodes — elements and non-blank text chunks (an element's
leading text, each child's tail) in document order from the root's
OID — and the numbering is checked node by node against the store's
labels before anything else.  Then, per document:

* the sub-tree of every ``nearest`` answer holds each term the answer
  relates, case-folded (EquiX's containment reading);
* for a needle that is not a token — a partial word such as ``"Hac"``,
  one carrying punctuation or whitespace around it (``" Bit "``, which
  no figure1 string holds), or several words whose edge words are
  partial (``"to Ha"``) — the witnesses of
  ``select $a from # $a where $a contains '<needle>'`` are exactly the
  nodes whose own text or attribute values contain it, case-folded,
  closed under ancestors (every needle without whitespace around it
  has a witness in a bundled dataset).  Such needles are answered by the substring
  scan over the store's string runs, or — for several words — by the
  token index as a prefilter and a substring confirm.
"""

import re
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro
from repro.datamodel.serializer import serialize
from repro.datasets import (
    DblpConfig,
    dblp_document,
    figure1_document,
    plays_document,
)

from ..property.strategies import tree_documents


class SourceTree:
    """The XML as ElementTree reads it, numbered in document order."""

    def __init__(self, xml: str):
        self.tags = []
        self.own = []  # a node's own strings: attribute values or its text
        self.parents = []
        self.ends = []  # one past the last node of each sub-tree
        self._visit(ElementTree.fromstring(xml), -1)

    def _add(self, tag, strings, parent) -> int:
        self.tags.append(tag)
        self.own.append([value.lower() for value in strings])
        self.parents.append(parent)
        self.ends.append(len(self.tags))
        return len(self.tags) - 1

    def _text(self, text, parent) -> None:
        if text and text.strip():
            self._add("cdata", [text], parent)

    def _visit(self, element, parent) -> None:
        index = self._add(element.tag, element.attrib.values(), parent)
        self._text(element.text, index)
        for child in element:
            self._visit(child, index)
            self._text(child.tail, index)
        self.ends[index] = len(self.tags)

    def holds(self, index: int, term: str) -> bool:
        """Whether the sub-tree at ``index`` holds ``term``, case-folded."""
        needle = term.lower()
        return any(
            needle in value
            for strings in self.own[index : self.ends[index]]
            for value in strings
        )

    def witnesses(self, needle: str):
        """Nodes whose own strings contain ``needle``, closed under
        ancestors."""
        needle = needle.lower()
        closure = set()
        for index, strings in enumerate(self.own):
            if any(needle in value for value in strings):
                while index >= 0 and index not in closure:
                    closure.add(index)
                    index = self.parents[index]
        return closure

    def vocabulary(self):
        """The distinct lower-case words of the document, sorted."""
        return sorted(
            {
                word
                for strings in self.own
                for value in strings
                for word in re.findall(r"[0-9a-z]+", value)
            }
        )


def check_document(xml: str, term_sets, needles, *, expect_hits=True):
    tree = SourceTree(xml)
    with tempfile.TemporaryDirectory() as scratch:
        source = Path(scratch, "doc.xml")
        source.write_text(xml, encoding="utf-8")
        db = repro.Database.open(source, cache=None)
        try:
            store = db.store
            root = store.root_oid
            assert store.node_count == len(tree.tags)
            assert [
                store.summary.label(store.pid_of(root + index))
                for index in range(len(tree.tags))
            ] == tree.tags

            answered = 0
            for terms in term_sets:
                envelope = db.nearest(*terms, limit=None)
                for answer in envelope.to_dict()["answers"]:
                    index = answer["oid"] - root
                    assert tree.tags[index] == answer["tag"]
                    assert answer["terms"]
                    for term in answer["terms"]:
                        assert tree.holds(index, term), (terms, answer, term)
                    answered += 1
            if expect_hits:
                assert answered

            for needle in needles:
                assert "'" not in needle
                rows = db.query(
                    f"select $a from # $a where $a contains '{needle}'"
                ).to_dict()["rows"]
                expected = {root + index for index in tree.witnesses(needle)}
                assert {row[0] for row in rows} == expected, needle
                if expect_hits and needle == needle.strip():
                    assert expected, needle
        finally:
            db.close()


def spread_pairs(tree, count=4):
    """``count`` term pairs spread over the document's vocabulary."""
    words = tree.vocabulary()
    step = max(1, len(words) // (2 * count))
    picked = words[::step][: 2 * count]
    return list(zip(picked[::2], picked[1::2]))


DATASETS = {
    "figure1": (
        figure1_document,
        [("Bit", "1999"), ("Ben", "Hack"), ("Bob", "RSI")],
        ["Hac", "ing &", "& RSI", "BK9", "yte", "to Ha", "ow to", "g & R",
         " Bit "],
    ),
    "plays": (
        plays_document,
        [("Hector", "poison"), ("king", "ghost")],
        ["Hect", "aywrig", "Winte", "ONOU"],
    ),
    "dblp-quick": (
        lambda: dblp_document(DblpConfig(last_year=1986)),
        [("Suciu", "1984"), ("Boncz", "ICDE")],
        ["ncz84", "icde/", "/Boncz", ".html", "ICD", ", 19"],
    ),
}


@pytest.mark.parametrize("dataset", DATASETS)
def test_answers_hold_their_terms_and_scans_match(dataset):
    build, term_sets, needles = DATASETS[dataset]
    xml = serialize(build())
    term_sets = term_sets + spread_pairs(SourceTree(xml))
    check_document(xml, term_sets, needles)


@settings(max_examples=30, deadline=None)
@given(tree_documents(max_nodes=25))
def test_generated_documents_match_elementtree(document):
    check_document(
        serialize(document),
        [("alpha", "beta"), ("gamma", "1999"), ("icde", "delta")],
        ["lph", "amm", "99", "psil", "cd", "ta"],
        expect_hits=False,
    )
