"""Integration: raw XML text → store → search → meet → presentation."""

from repro.core import NearestConceptEngine
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import serialize
from repro.monet import monet_transform
from repro.monet.reassembly import reassemble_subtree
from repro.snapshot import read_snapshot, write_snapshot

CATALOG = """
<catalog>
  <section name="databases">
    <book isbn="1-55860-622-X">
      <title>Monet and the Art of Columns</title>
      <author><first>Peter</first><last>Boncz</last></author>
      <published>1999</published>
    </book>
    <book isbn="0-201-53771-0">
      <title>Foundations of Databases</title>
      <author>Serge Abiteboul</author>
      <published>1995</published>
    </book>
  </section>
  <section name="web">
    <book isbn="9-999999-99-9">
      <title>Semistructured Data on the Web</title>
      <author>Dana Florescu</author>
      <published>1999</published>
    </book>
  </section>
</catalog>
"""


class TestFullPipeline:
    def setup_method(self):
        self.store = monet_transform(parse_document(CATALOG))
        self.engine = NearestConceptEngine(self.store)

    def test_unknown_markup_keyword_query(self):
        """A user ignorant of the schema finds Boncz's 1999 book."""
        concepts = self.engine.nearest_concepts("Boncz", "1999")
        assert concepts
        top = concepts[0]
        assert top.tag == "book"
        assert "Monet" in self.engine.snippet(top)

    def test_result_type_depends_on_instance(self):
        """The headline claim: the result *type* is not specified by
        the user and varies with the terms."""
        book = self.engine.nearest_concepts("Boncz", "1999")[0]
        author = self.engine.nearest_concepts("Peter", "Boncz")[0]
        assert book.tag == "book"
        assert author.tag == "author"

    def test_cross_section_terms_meet_high(self):
        concepts = self.engine.nearest_concepts("Abiteboul", "Florescu")
        assert concepts[0].tag == "catalog"

    def test_exclude_root_drops_top_level_concept(self):
        concepts = self.engine.nearest_concepts(
            "Abiteboul", "Florescu", exclude_root=True
        )
        assert concepts == []

    def test_browse_result_as_xml(self):
        top = self.engine.nearest_concepts("Boncz", "1999")[0]
        xml = self.engine.to_xml(top)
        assert xml.startswith("<book")
        assert "Boncz" in xml

    def test_persistence_round_trip_preserves_answers(self, tmp_path):
        write_snapshot(self.store, tmp_path / "catalog.snap")
        clone = read_snapshot(tmp_path / "catalog.snap").store
        engine = NearestConceptEngine(clone)
        original = [c.oid for c in self.engine.nearest_concepts("Boncz", "1999")]
        reloaded = [c.oid for c in engine.nearest_concepts("Boncz", "1999")]
        assert original == reloaded

    def test_reassembly_round_trips_through_serializer(self):
        rebuilt = reassemble_subtree(self.store, self.store.root_oid)
        reparsed = monet_transform(
            parse_document(serialize(parse_document(CATALOG)))
        )
        assert reparsed.node_count == self.store.node_count
        assert rebuilt.subtree_size() == self.store.node_count


class TestQueryLanguageAgainstEngine:
    def setup_method(self):
        self.store = monet_transform(parse_document(CATALOG))
        self.engine = NearestConceptEngine(self.store)

    def test_meet_query_matches_engine(self):
        from repro.query import run_query

        result = run_query(
            self.store,
            "select meet($a, $b) from catalog/# $a, catalog/# $b "
            "where $a contains 'Boncz' and $b contains '1999'",
        )
        engine_oids = {
            c.oid for c in self.engine.nearest_concepts("Boncz", "1999")
        }
        assert set(result.column("meet($a, $b)")) == engine_oids

    def test_enumeration_gives_schema_discovery(self):
        from repro.query import run_query

        result = run_query(
            self.store, "select distinct %T from catalog/section/%T $o"
        )
        assert set(result.column("%T")) == {"book"}
