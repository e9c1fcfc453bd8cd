"""Unit tests for the Monet transform (Definition 4) on Figure 1."""

import numpy as np
import pytest

from repro.datamodel.paths import Path
from repro.datasets.figure1 import FIGURE1_OIDS as O
from repro.datasets.figure1 import figure1_document
from repro.monet.transform import monet_transform


@pytest.fixture(scope="module")
def store():
    return monet_transform(figure1_document())


class TestRelationNames:
    """The transform reproduces the relation inventory of Figure 2."""

    EXPECTED = {
        "bibliography/institute",
        "bibliography/institute/article",
        "bibliography/institute/article@key",
        "bibliography/institute/article/author",
        "bibliography/institute/article/author/cdata",
        "bibliography/institute/article/author/cdata@string",
        "bibliography/institute/article/author/firstname",
        "bibliography/institute/article/author/firstname/cdata",
        "bibliography/institute/article/author/firstname/cdata@string",
        "bibliography/institute/article/author/lastname",
        "bibliography/institute/article/author/lastname/cdata",
        "bibliography/institute/article/author/lastname/cdata@string",
        "bibliography/institute/article/title",
        "bibliography/institute/article/title/cdata",
        "bibliography/institute/article/title/cdata@string",
        "bibliography/institute/article/year",
        "bibliography/institute/article/year/cdata",
        "bibliography/institute/article/year/cdata@string",
    }

    def test_relation_inventory(self, store):
        assert set(store.relation_names()) == self.EXPECTED


class TestFigure2Contents:
    """Spot-check tuple contents against Figure 2 of the paper."""

    def tuples(self, store, name):
        pid = store.summary.pid(Path.parse(name))
        if store.summary.is_attribute(pid):
            heads, tails = store.string_runs().run(pid)
        else:
            heads, tails = store.edge_runs().run(pid)
        return set(zip(np.asarray(heads).tolist(), np.asarray(tails).tolist()))

    def test_article_edges(self, store):
        assert self.tuples(store, "bibliography/institute/article") == {
            (O["institute"], O["article1"]),
            (O["institute"], O["article2"]),
        }

    def test_article_keys(self, store):
        assert self.tuples(store, "bibliography/institute/article@key") == {
            (O["article1"], "BB99"),
            (O["article2"], "BK99"),
        }

    def test_author_cdata_string(self, store):
        assert self.tuples(
            store, "bibliography/institute/article/author/cdata@string"
        ) == {(O["cdata_bob_byte"], "Bob Byte")}

    def test_title_strings(self, store):
        assert self.tuples(
            store, "bibliography/institute/article/title/cdata@string"
        ) == {
            (O["cdata_how_to_hack"], "How to Hack"),
            (O["cdata_hacking_rsi"], "Hacking & RSI"),
        }

    def test_year_strings(self, store):
        assert self.tuples(
            store, "bibliography/institute/article/year/cdata@string"
        ) == {
            (O["cdata_1999_a"], "1999"),
            (O["cdata_1999_b"], "1999"),
        }


class TestColumns:
    def test_validate_passes(self, store):
        store.validate()

    def test_parent_column_matches_document(self, store):
        doc = figure1_document()
        for oid in doc.iter_oids():
            assert store.parent_of(oid) == doc.parent_oid(oid)

    def test_pid_column_matches_document_paths(self, store):
        doc = figure1_document()
        for oid in doc.iter_oids():
            assert store.path_of(oid) == doc.path(oid)

    def test_rank_column(self, store):
        assert store.rank_of(O["author1"]) == 0
        assert store.rank_of(O["title1"]) == 1
        assert store.rank_of(O["year1"]) == 2

    def test_root(self, store):
        assert store.root_oid == O["bibliography"]
        assert store.parent_of(store.root_oid) is None

    def test_node_count(self, store):
        assert store.node_count == 19

    def test_every_non_root_in_exactly_one_edge_relation(self, store):
        runs = store.edge_runs()
        seen = {}
        for pid in runs.pids.tolist():
            for child in runs.run(pid)[1].tolist():
                assert child not in seen
                seen[child] = pid
        assert len(seen) == store.node_count - 1


class TestDeterminism:
    def test_transform_is_deterministic(self):
        store1 = monet_transform(figure1_document())
        store2 = monet_transform(figure1_document())
        assert store1.relation_names() == store2.relation_names()
        for family in ("edge_runs", "string_runs"):
            runs1, runs2 = getattr(store1, family)(), getattr(store2, family)()
            assert runs1.offsets.tolist() == runs2.offsets.tolist()
            for column1, column2 in zip(runs1, runs2):
                assert np.asarray(column1).tolist() == (
                    np.asarray(column2).tolist()
                )
