"""Unit tests for Document: freezing, OIDs, paths, ancestry."""

import pytest

from repro.datamodel.builder import DocumentBuilder
from repro.datamodel.document import CDATA_LABEL, Document
from repro.datamodel.errors import ModelError, UnknownOIDError
from repro.datamodel.node import Node
from repro.datamodel.paths import Path


def small_doc(first_oid=0):
    builder = DocumentBuilder("root")
    builder.down("a").leaf("b", "text-b").up()
    builder.leaf("c")
    return builder.build(first_oid=first_oid)


class TestFreezing:
    def test_preorder_oids(self):
        doc = small_doc()
        labels = [doc.node(oid).label for oid in doc.iter_oids()]
        # root, a, b, cdata (materialized under b), c
        assert labels == ["root", "a", "b", CDATA_LABEL, "c"]
        assert [doc.node(oid).oid for oid in doc.iter_oids()] == list(range(5))

    def test_first_oid_offset(self):
        doc = small_doc(first_oid=10)
        assert doc.root.oid == 10
        assert doc.last_oid == 14
        assert doc.node(11).label == "a"

    def test_root_with_parent_rejected(self):
        parent = Node("p")
        child = parent.append(Node("c"))
        with pytest.raises(ModelError):
            Document(child)

    def test_cdata_normalization_creates_string_attr(self):
        doc = small_doc()
        cdata_nodes = doc.nodes_with_label(CDATA_LABEL)
        assert len(cdata_nodes) == 1
        assert cdata_nodes[0].attributes == {"string": "text-b"}

    def test_normalization_idempotent_for_cdata_nodes(self):
        root = Node("root")
        cdata = Node(CDATA_LABEL)
        cdata.text = "x"  # attribute form on an explicit cdata node
        root.append(cdata)
        doc = Document(root)
        assert doc.node_count == 2
        assert doc.nodes_with_label(CDATA_LABEL)[0].string_value == "x"


class TestLookups:
    def test_node_unknown_oid(self):
        doc = small_doc()
        with pytest.raises(UnknownOIDError):
            doc.node(99)
        with pytest.raises(UnknownOIDError):
            doc.path(-1)

    def test_contains(self):
        doc = small_doc(first_oid=5)
        assert 5 in doc and 9 in doc
        assert 4 not in doc and 10 not in doc
        assert "5" not in doc

    def test_paths(self):
        doc = small_doc()
        assert doc.path(0) == Path.of("root")
        assert doc.path(2) == Path.of("root", "a", "b")
        assert str(doc.path(3)) == "root/a/b/cdata"

    def test_parent_oid(self):
        doc = small_doc()
        assert doc.parent_oid(0) is None
        assert doc.parent_oid(1) == 0
        assert doc.parent_oid(3) == 2

    def test_depth_equals_path_length(self):
        doc = small_doc()
        for oid in doc.iter_oids():
            assert doc.depth(oid) == len(doc.path(oid))


class TestAncestry:
    def test_ancestry_chain(self):
        doc = small_doc()
        assert doc.ancestry(3) == [3, 2, 1, 0]
        assert doc.ancestry(0) == [0]

    def test_is_ancestor_reflexive(self):
        doc = small_doc()
        assert doc.is_ancestor(2, 2)

    def test_is_ancestor(self):
        doc = small_doc()
        assert doc.is_ancestor(0, 3)
        assert doc.is_ancestor(1, 3)
        assert not doc.is_ancestor(3, 1)
        assert not doc.is_ancestor(4, 3)


class TestSummaries:
    def test_distinct_paths_order(self):
        doc = small_doc()
        paths = [str(p) for p in doc.distinct_paths()]
        assert paths == ["root", "root/a", "root/a/b", "root/a/b/cdata", "root/c"]

    def test_path_summary_counts(self):
        builder = DocumentBuilder("r")
        builder.leaf("x").leaf("x").leaf("y")
        doc = builder.build()
        counts = {str(p): n for p, n in doc.path_summary_counts().items()}
        assert counts == {"r": 1, "r/x": 2, "r/y": 1}

    def test_nodes_on_path(self):
        doc = small_doc()
        assert [n.oid for n in doc.nodes_on_path(Path.of("root", "a"))] == [1]
        assert doc.nodes_on_path(Path.of("nope")) == []

    def test_document_order(self):
        doc = small_doc(first_oid=3)
        assert doc.document_order(3) == 0
        assert doc.document_order(5) == 2
