"""Unit tests for OID → object re-assembly (paper §2)."""

from repro.datamodel.serializer import serialize_node
from repro.datasets.figure1 import FIGURE1_OIDS as O
from repro.monet.reassembly import (
    associations_of,
    object_text,
    reassemble_node,
    reassemble_object,
    reassemble_subtree,
)


class TestAssociations:
    def test_associations_of_article(self, figure1_store):
        triples = associations_of(figure1_store, O["article1"])
        relations = {relation for relation, _, _ in triples}
        assert "bibliography/institute/article/author" in relations
        assert "bibliography/institute/article@key" in relations
        # children first (3 edges), then the key attribute
        assert len(triples) == 4

    def test_associations_of_cdata(self, figure1_store):
        triples = associations_of(figure1_store, O["cdata_ben"])
        assert triples == [
            (
                "bibliography/institute/article/author/firstname/cdata@string",
                O["cdata_ben"],
                "Ben",
            )
        ]


class TestObjectView:
    def test_object_record_like_paper(self, figure1_store):
        # The paper re-assembles object(o_article2) with key, author, year…
        record = reassemble_object(figure1_store, O["article2"])
        assert record["label"] == "article"
        assert record["key"] == "BK99"
        assert record["author"] == O["author2"]
        assert record["year"] == O["year2"]
        assert record["title"] == O["title2"]

    def test_repeated_labels_collect_into_list(self, figure1_store):
        record = reassemble_object(figure1_store, O["institute"])
        assert record["article"] == [O["article1"], O["article2"]]


class TestSubtree:
    def test_reassemble_node_attributes(self, figure1_store):
        node = reassemble_node(figure1_store, O["article1"])
        assert node.label == "article"
        assert node.attributes == {"key": "BB99"}
        assert node.oid == O["article1"]

    def test_subtree_matches_original_serialization(
        self, figure1_store, figure1_doc
    ):
        rebuilt = reassemble_subtree(figure1_store, O["article1"])
        original = figure1_doc.node(O["article1"])
        assert serialize_node(rebuilt) == serialize_node(original)

    def test_full_document_reassembly(self, figure1_store, figure1_doc):
        rebuilt = reassemble_subtree(figure1_store, figure1_store.root_oid)
        assert serialize_node(rebuilt) == serialize_node(figure1_doc.root)

    def test_sibling_order_preserved(self, figure1_store):
        rebuilt = reassemble_subtree(figure1_store, O["article2"])
        assert [c.label for c in rebuilt.children] == ["author", "year", "title"]


class TestObjectText:
    def test_object_text_document_order(self, figure1_store):
        assert object_text(figure1_store, O["article1"]) == (
            "Ben Bit How to Hack 1999"
        )

    def test_object_text_of_cdata(self, figure1_store):
        assert object_text(figure1_store, O["cdata_bob_byte"]) == "Bob Byte"

    def test_object_text_of_empty(self, figure1_store):
        # firstname's only text is its cdata child
        assert object_text(figure1_store, O["firstname"]) == "Ben"


def test_first_snippet_reads_only_its_subtree():
    """On the 84k-node benchmark store the first snippet and ``to_xml``
    read the subtree's OID run: traced memory does not grow by a
    children adjacency over every node (8.8 MiB when one was built)."""
    import gc
    import tracemalloc

    from repro.core.engine import NearestConceptEngine
    from repro.datasets.randomtree import random_document
    from repro.monet.transform import monet_transform

    store = monet_transform(random_document(42, nodes=60000))
    assert store.node_count > 84000
    engine = NearestConceptEngine(store, backend="vector")
    concepts = engine.nearest_concepts("caption", "chroma")[:5]
    assert concepts
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        snippets = [engine.snippet(concept) for concept in concepts]
        xml = engine.to_xml(concepts[0])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2**20, grown
    assert all(snippets)
    for word in snippets[0].rstrip("…").split()[:-1]:
        assert word in xml
