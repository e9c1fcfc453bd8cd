"""The parser agrees with :mod:`xml.etree.ElementTree`, an XML reader
this repository did not write.

Both refuse every malformed input of the parser and column-sink tests,
and on well-formed documents both read the same labels, attributes and
non-whitespace text in pre-order.  The one deliberate disagreement is
entity declarations (``ENTITY_POLICY``), which ElementTree expands and
:func:`parse_document` refuses.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings

from repro.datamodel.document import CDATA_LABEL
from repro.datamodel.errors import XMLParseError
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import serialize
from repro.datasets import (
    DblpConfig,
    dblp_document,
    figure1_document,
    plays_document,
)

from ..monet.test_column_sink import MALFORMED
from ..property.strategies import tree_documents
from .test_parser import BAD_NAMES

REFUSED = MALFORMED + [f"<{name}/>" for name in BAD_NAMES]


@pytest.mark.parametrize("text", REFUSED)
def test_both_refuse(text):
    with pytest.raises(ET.ParseError):
        ET.fromstring(text)
    with pytest.raises(XMLParseError):
        parse_document(text)


def etree_preorder(text):
    """(label, attributes) per element and each stripped non-empty
    text or tail, in document order."""
    events = []
    stack = [ET.fromstring(text)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if item.strip():
                events.append(("text", item.strip()))
            continue
        events.append((item.tag, item.attrib))
        for child in reversed(item):
            stack.append(child.tail or "")
            stack.append(child)
        stack.append(item.text or "")
    return events


def repro_preorder(text):
    return [
        ("text", node.string_value)
        if node.label == CDATA_LABEL
        else (node.label, node.attributes)
        for node in parse_document(text).iter_nodes()
    ]


def assert_same_reading(text):
    assert repro_preorder(text) == etree_preorder(text)


DATASETS = {
    "figure1": figure1_document,
    "plays": plays_document,
    "dblp-quick": lambda: dblp_document(DblpConfig(last_year=1986)),
}


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("indent", [None, 2])
def test_datasets_read_the_same(name, indent):
    assert_same_reading(serialize(DATASETS[name](), indent=indent))


@settings(max_examples=60, deadline=None)
@given(tree_documents(max_nodes=25))
def test_generated_documents_read_the_same(document):
    assert_same_reading(serialize(document))
    assert_same_reading(serialize(document, indent=2))


@pytest.mark.parametrize(
    "text",
    [
        '<a k="x\ny\tz">a\r\nb<![CDATA[ <c> ]]>&amp;&#65;</a>',
        "<!DOCTYPE r [<!ATTLIST r k CDATA 'v'>]><r/>",
        "\ufeff<r>é</r>",
        '<?xml version="1.0" encoding="ISO-8859-1"?><r>é</r>',
    ],
)
def test_normalized_values_read_the_same(text):
    """Line ends, whitespace in values, sections, references, DTD
    attribute defaults, a byte-order mark and a declared encoding."""
    element = ET.fromstring(text)
    root = parse_document(text, keep_whitespace=True).root
    assert (root.label, root.attributes) == (element.tag, element.attrib)
    assert "".join(child.string_value for child in root.children) == (
        element.text or ""
    )
