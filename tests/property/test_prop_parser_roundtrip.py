"""Property tests: serialize ∘ parse round-trips on generated documents."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datamodel.errors import XMLParseError
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import escape_attribute, escape_text, serialize

from .strategies import tree_documents


def structure(document):
    return [
        (
            document.node(oid).label,
            tuple(sorted(document.node(oid).attributes.items())),
            document.parent_oid(oid),
        )
        for oid in document.iter_oids()
    ]


@settings(max_examples=60, deadline=None)
@given(tree_documents(max_nodes=25))
def test_serialize_parse_preserves_structure(document):
    reparsed = parse_document(serialize(document))
    assert structure(reparsed) == structure(document)


@settings(max_examples=40, deadline=None)
@given(tree_documents(max_nodes=25))
def test_serialize_is_fixpoint(document):
    once = serialize(document)
    assert serialize(parse_document(once)) == once


@settings(max_examples=40, deadline=None)
@given(tree_documents(max_nodes=20))
def test_pretty_printing_preserves_structure(document):
    reparsed = parse_document(serialize(document, indent=2))
    assert structure(reparsed) == structure(document)


text_values = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs", "Cc")
    ),
    min_size=0,
    max_size=40,
)


def is_xml_text(value):
    """Whether every character is an XML 1.0 ``Char`` (§2.2).  Of the
    alphabet above, U+FFFE and U+FFFF are not."""
    return all(
        ch in "\t\n\r"
        or " " <= ch <= "\ud7ff"
        or "\ue000" <= ch <= "\ufffd"
        or ch >= "\U00010000"
        for ch in value
    )


def reparse(xml, value):
    """``parse_document(xml)``, which must raise exactly when ``value``
    holds a character XML cannot carry."""
    if is_xml_text(value):
        return parse_document(xml, keep_whitespace=True)
    with pytest.raises(XMLParseError):
        parse_document(xml, keep_whitespace=True)
    return None


@settings(max_examples=100)
@given(text_values)
@example("\ufffe")
@example("Hacking & RSI <fun>")
def test_text_escaping_roundtrip(value):
    document = reparse(f"<t>{escape_text(value)}</t>", value)
    if document is not None:
        children = document.root.children
        reread = children[0].string_value if children else ""
        assert reread == value


@settings(max_examples=100)
@given(text_values)
@example("\uffff")
@example('say "1999" & <go>')
def test_attribute_escaping_roundtrip(value):
    document = reparse(f'<t k="{escape_attribute(value)}"/>', value)
    if document is not None:
        assert document.root.attributes["k"] == value
