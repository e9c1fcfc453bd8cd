"""Unit tests for the XML parser (expat driving a sink)."""

import pytest

from repro.datamodel.document import CDATA_LABEL
from repro.datamodel.errors import XMLParseError
from repro.datamodel.parser import parse_document, parse_fragment


#: Not XML names: digits and marks that may not start one, and
#: characters outside NameChar.
BAD_NAMES = ("1a", "-a", ".a", "a²", "a$")


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

    def test_mismatched_tag_position(self):
        with pytest.raises(XMLParseError) as info:
            parse_document("<a><b></a>")
        error = info.value
        assert (str(error), error.line, error.column) == (
            "mismatched tag (line 1, column 9)",
            1,
            9,
        )

    def test_unterminated(self):
        with pytest.raises(XMLParseError):
            parse_document("<a><b>")

    def test_content_after_root(self):
        with pytest.raises(XMLParseError):
            parse_document("<a/><b/>")

    def test_names_with_namespace_prefix(self):
        doc = parse_document("<dc:title>x</dc:title>")
        assert doc.root.label == "dc:title"

    def test_names_follow_the_xml_name_production(self):
        for name in ("_x-y.z:w", "é", "a·b", "a\u0301", "日本"):
            assert parse_document(f"<{name}/>").root.label == name
        for name in BAD_NAMES:
            with pytest.raises(XMLParseError):
                parse_document(f"<{name}/>")


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

    def test_less_than_in_a_value_rejected(self):
        # XML 1.0 §3.1: AttValue excludes '<'.
        with pytest.raises(XMLParseError):
            parse_document('<a x="<"/>')

    def test_whitespace_in_a_value_reads_as_spaces(self):
        # §3.3.3: each line break and tab in a value is a space.
        doc = parse_document('<a k="x\ny\tz\r\nw"/>')
        assert doc.root.attributes["k"] == "x y z w"

    def test_character_references_keep_whitespace_in_a_value(self):
        doc = parse_document('<a k="x&#10;y&#9;z"/>')
        assert doc.root.attributes["k"] == "x\ny\tz"


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

    def test_cdata_section_end_in_text_rejected(self):
        # §2.4: character data may not contain ']]>'.
        with pytest.raises(XMLParseError):
            parse_document("<a>]]></a>")

    def test_line_ends_read_as_line_feeds(self):
        # §2.11: '\r\n' and a lone '\r' both read as '\n'.
        doc = parse_document("<t>a\r\nb\rc</t>")
        assert doc.root.children[0].string_value == "a\nb\nc"

    def test_long_text_is_one_node(self):
        body = "line &amp; more\n" * 2000
        doc = parse_document(f"<t>{body}</t>", keep_whitespace=True)
        assert [c.string_value for c in doc.root.children] == [
            body.replace("&amp;", "&")
        ]

    def test_comments_and_sections_split_text(self):
        doc = parse_document("<t>a<!-- c -->b<?pi x?>c<![CDATA[]]>d</t>")
        assert [c.string_value for c in doc.root.children] == [
            "a", "b", "c", "", "d"
        ]


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
        doc = parse_document("<!DOCTYPE r [<!ELEMENT r EMPTY>]><r/>")
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


class TestEntities:
    """No entity reference is ever dropped: whatever expat cannot
    resolve from the five predefined entities is an error."""

    @pytest.mark.parametrize(
        "text, position",
        [
            # An external subset expat does not read: left to itself,
            # expat drops the reference (an empty <a>, b="").
            ('<!DOCTYPE a SYSTEM "x.dtd"><a>&foo;</a>', (1, 20)),
            ('<!DOCTYPE a SYSTEM "x.dtd"><a b="&foo;"/>', (1, 20)),
            # Declared entities, general and parameter.
            ("<!DOCTYPE r [<!ENTITY x 'y'>]><r>&x;</r>", (1, 25)),
            ("<!DOCTYPE r [<!ENTITY % p 'y'>]><r/>", (1, 27)),
            ("<!DOCTYPE r [<!ENTITY x SYSTEM 'x.xml'>]><r>&x;</r>", (1, 39)),
            # A parameter-entity reference, declared nowhere.
            ("<!DOCTYPE r [ %p; ]><r/>", (1, 15)),
            # Undeclared, with and without a DOCTYPE.
            ('<?xml version="1.0" standalone="yes"?>'
             '<!DOCTYPE a SYSTEM "x.dtd"><a>&foo;</a>', (1, 69)),
            ("<t>&nope;</t>", (1, 4)),
            ('<t k="&nope;"/>', (1, 1)),
        ],
    )
    def test_refused_with_a_position(self, text, position):
        with pytest.raises(XMLParseError) as info:
            parse_document(text)
        assert (info.value.line, info.value.column) == position

    def test_declarations_are_named(self):
        with pytest.raises(XMLParseError, match="entity declarations"):
            parse_document("<!DOCTYPE r [\n<!ENTITY x 'y'>]><r/>")
        with pytest.raises(XMLParseError, match="parameter entity"):
            parse_document("<!DOCTYPE r [<!ENTITY % p 'y'>]><r/>")

    def test_attribute_defaults_of_the_internal_subset_apply(self):
        doc = parse_document("<!DOCTYPE r [<!ATTLIST r k CDATA 'v'>]><r/>")
        assert doc.root.attributes == {"k": "v"}


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
