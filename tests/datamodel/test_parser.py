"""Unit tests for the hand-written XML parser."""

import pytest

from repro.datamodel.document import CDATA_LABEL
from repro.datamodel.errors import XMLParseError
from repro.datamodel.parser import parse_document, parse_fragment


class TestElements:
    def test_single_element(self):
        doc = parse_document("<root/>")
        assert doc.root.label == "root"
        assert doc.node_count == 1

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert [n.label for n in doc.iter_nodes()] == ["a", "b", "c"]

    def test_siblings_keep_order(self):
        doc = parse_document("<r><x/><y/><z/></r>")
        assert [c.label for c in doc.root.children] == ["x", "y", "z"]
        assert [c.rank for c in doc.root.children] == [0, 1, 2]

    def test_mismatched_tags(self):
        with pytest.raises(XMLParseError):
            parse_document("<a><b></a></b>")

    def test_unterminated(self):
        with pytest.raises(XMLParseError):
            parse_document("<a><b>")

    def test_content_after_root(self):
        with pytest.raises(XMLParseError):
            parse_document("<a/><b/>")

    def test_names_with_namespace_prefix(self):
        doc = parse_document("<dc:title>x</dc:title>")
        assert doc.root.label == "dc:title"

    def test_name_characters_are_alphanumerics_and_four_marks(self):
        from repro.datamodel.parser import _NAME_CHARS

        for code in range(0x110000):
            ch = chr(code)
            expected = ch.isalnum() or ch in "_:-."
            assert bool(_NAME_CHARS.fullmatch(ch)) == expected, hex(code)


class TestAttributes:
    def test_attributes(self):
        doc = parse_document('<article key="BB99" lang=\'en\'/>')
        assert doc.root.attributes == {"key": "BB99", "lang": "en"}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document('<a k="1" k="2"/>')

    def test_unquoted_attribute_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<a k=1/>")

    def test_entities_in_attribute(self):
        doc = parse_document('<a k="x &amp; y &#65;"/>')
        assert doc.root.attributes["k"] == "x & y A"


class TestText:
    def test_text_becomes_cdata_node(self):
        doc = parse_document("<year>1999</year>")
        cdata = doc.root.children[0]
        assert cdata.label == CDATA_LABEL
        assert cdata.string_value == "1999"

    def test_mixed_content(self):
        doc = parse_document("<p>hello <b>bold</b> world</p>")
        labels = [c.label for c in doc.root.children]
        assert labels == [CDATA_LABEL, "b", CDATA_LABEL]
        assert doc.root.children[0].string_value == "hello"
        assert doc.root.children[2].string_value == "world"

    def test_whitespace_only_dropped_by_default(self):
        doc = parse_document("<r>\n  <a/>\n</r>")
        assert [c.label for c in doc.root.children] == ["a"]

    def test_keep_whitespace(self):
        doc = parse_document("<r> <a/> </r>", keep_whitespace=True)
        assert [c.label for c in doc.root.children] == [
            CDATA_LABEL,
            "a",
            CDATA_LABEL,
        ]

    def test_entity_decoding(self):
        doc = parse_document("<t>Hacking &amp; RSI &lt;fun&gt; &apos;q&apos;</t>")
        assert doc.root.children[0].string_value == "Hacking & RSI <fun> 'q'"

    def test_numeric_character_references(self):
        doc = parse_document("<t>&#72;&#x69;</t>")
        assert doc.root.children[0].string_value == "Hi"

    def test_unknown_entity_rejected(self):
        with pytest.raises(XMLParseError):
            parse_document("<t>&nope;</t>")

    def test_cdata_section(self):
        doc = parse_document("<t><![CDATA[a < b & c]]></t>")
        assert doc.root.children[0].string_value == "a < b & c"


class TestMisc:
    def test_xml_declaration_and_comments(self):
        doc = parse_document(
            '<?xml version="1.0"?><!-- head --><r><!-- in --><a/></r><!-- tail -->'
        )
        assert [c.label for c in doc.root.children] == ["a"]

    def test_processing_instruction_skipped(self):
        doc = parse_document("<r><?php echo ?><a/></r>")
        assert [c.label for c in doc.root.children] == ["a"]

    def test_doctype_skipped(self):
        doc = parse_document(
            "<!DOCTYPE dblp SYSTEM \"dblp.dtd\" [<!ENTITY x 'y'>]><r/>"
        )
        assert doc.root.label == "r"

    def test_error_position_reported(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<r>\n<bad</r>")
        assert info.value.line == 2

    def test_first_oid(self):
        doc = parse_document("<a><b/></a>", first_oid=1)
        assert doc.root.oid == 1
        assert doc.root.children[0].oid == 2

    def test_parse_fragment_returns_unfrozen(self):
        root = parse_fragment("<a><b/></a>")
        assert root.oid == -1


class TestFigure1Equivalence:
    """Parsing the Figure 1 XML yields the same structure as the builder."""

    XML = """
    <bibliography>
      <institute>
        <article key="BB99">
          <author><firstname>Ben</firstname><lastname>Bit</lastname></author>
          <title>How to Hack</title>
          <year>1999</year>
        </article>
        <article key="BK99">
          <author>Bob Byte</author>
          <year>1999</year>
          <title>Hacking &amp; RSI</title>
        </article>
      </institute>
    </bibliography>
    """

    def test_matches_builder_document(self):
        from repro.datasets.figure1 import figure1_document

        parsed = parse_document(self.XML, first_oid=1)
        built = figure1_document()
        assert parsed.node_count == built.node_count
        for oid in parsed.iter_oids():
            assert parsed.node(oid).label == built.node(oid).label
            assert parsed.node(oid).attributes == built.node(oid).attributes
