"""Edge cases and stress shapes: deep chains, wide fans, unicode,
degenerate documents.  Everything in the pipeline is iterative, so
none of these may hit recursion limits.
"""

import sys

import pytest

from repro.core import NearestConceptEngine, meet2_traced
from repro.datamodel.builder import DocumentBuilder
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import serialize
from repro.monet import monet_transform
from repro.snapshot import read_snapshot, write_snapshot


class TestDeepChain:
    DEPTH = 4000  # far beyond the default recursion limit

    @pytest.fixture(scope="class")
    def deep_store(self):
        builder = DocumentBuilder("root")
        for _ in range(self.DEPTH):
            builder.down("level")
        builder.text("needle bottom")
        doc = builder.build()
        return monet_transform(doc)

    def test_transform_survives(self, deep_store):
        assert deep_store.node_count == self.DEPTH + 2  # + cdata node
        assert deep_store.depth_of(deep_store.last_oid) == self.DEPTH + 2

    def test_meet_along_the_chain(self, deep_store):
        bottom = deep_store.last_oid
        result = meet2_traced(deep_store, bottom, deep_store.root_oid)
        assert result.oid == deep_store.root_oid
        assert result.joins == self.DEPTH + 1

    def test_serialization_is_iterative(self, deep_store):
        assert self.DEPTH < sys.getrecursionlimit() * 10
        from repro.monet.reassembly import reassemble_subtree

        rebuilt = reassemble_subtree(deep_store, deep_store.root_oid)
        text = serialize(parse_document(serialize_via(rebuilt)))
        assert "needle bottom" in text

    def test_storage_roundtrip(self, deep_store, tmp_path):
        write_snapshot(deep_store, tmp_path / "chain.snap")
        clone = read_snapshot(tmp_path / "chain.snap").store
        for loaded, built in zip(clone.dense_columns(), deep_store.dense_columns()):
            assert list(loaded) == list(built)


def serialize_via(node):
    from repro.datamodel.serializer import serialize_node

    return serialize_node(node)


class TestWideFan:
    WIDTH = 5000

    @pytest.fixture(scope="class")
    def wide_store(self):
        builder = DocumentBuilder("root")
        for index in range(self.WIDTH):
            builder.leaf("item", f"value{index}")
        return monet_transform(builder.build())

    def test_children_in_order(self, wide_store):
        children = wide_store.children_of(wide_store.root_oid)
        assert len(children) == self.WIDTH
        ranks = [wide_store.rank_of(oid) for oid in children]
        assert ranks == list(range(self.WIDTH))

    def test_meet_of_first_and_last_leaf(self, wide_store):
        children = wide_store.children_of(wide_store.root_oid)
        result = meet2_traced(wide_store, children[0], children[-1])
        assert result.oid == wide_store.root_oid
        assert result.joins == 2

    def test_search_over_wide_fan(self, wide_store):
        engine = NearestConceptEngine(wide_store)
        concepts = engine.nearest_concepts("value0", "value4999")
        assert [c.oid for c in concepts] == [wide_store.root_oid]


class TestDegenerate:
    def test_single_node_document(self):
        store = monet_transform(DocumentBuilder("only").build())
        assert store.node_count == 1
        assert meet2_traced(store, 0, 0).oid == 0
        engine = NearestConceptEngine(store)
        assert engine.nearest_concepts("a", "b") == []

    def test_root_with_text_only(self):
        store = monet_transform(parse_document("<r>two words</r>"))
        engine = NearestConceptEngine(store)
        (concept,) = engine.nearest_concepts("two", "words")
        assert concept.tag == "cdata"

    def test_empty_strings_indexed_harmlessly(self):
        store = monet_transform(parse_document('<r a=""><b/></r>'))
        engine = NearestConceptEngine(store)
        assert engine.term_hits("anything").oids() == set()


class TestUnicode:
    XML = """
    <библиотека>
      <книга год="1999"><автор>Фёдор Достоевский</автор></книга>
      <livre année="1999"><auteur>José Saramago</auteur></livre>
    </библиотека>
    """

    def test_unicode_tags_and_text(self):
        store = monet_transform(parse_document(self.XML))
        engine = NearestConceptEngine(store)
        concepts = engine.nearest_concepts("Фёдор", "Достоевский")
        assert len(concepts) == 1
        assert concepts[0].tag == "cdata"

    def test_unicode_roundtrip_through_storage(self, tmp_path):
        store = monet_transform(parse_document(self.XML))
        write_snapshot(store, tmp_path / "unicode.snap")
        clone = read_snapshot(tmp_path / "unicode.snap").store
        engine = NearestConceptEngine(clone)
        assert engine.term_hits("Saramago").oids()

    def test_unicode_paths_render(self):
        store = monet_transform(parse_document(self.XML))
        assert any("книга" in name for name in store.relation_names())


class TestMixedDocumentShapes:
    def test_recursive_labels(self):
        """section/section/section … same label at every depth."""
        xml = "<s><s><s><t>deep</t></s></s><s><t>shallow</t></s></s>"
        store = monet_transform(parse_document(xml))
        engine = NearestConceptEngine(store)
        (concept,) = engine.nearest_concepts("deep", "shallow")
        assert store.depth_of(concept.oid) == 1  # the outermost s

    def test_same_term_everywhere(self):
        xml = "<r><a>x</a><b>x</b><c>x</c></r>"
        store = monet_transform(parse_document(xml))
        engine = NearestConceptEngine(store)
        # single term twice: hits are the same set; Fig. 5 semantics
        # still finds the root as the cluster of the three x's
        from repro.core import group_by_pid, meet_general

        hits = sorted(engine.term_hits("x").oids())
        meets = meet_general(store, group_by_pid(store, hits))
        assert [m.oid for m in meets] == [store.root_oid]
