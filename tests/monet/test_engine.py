"""Unit tests for the MonetXML store API."""

import numpy as np
import pytest

from repro.datamodel.errors import ModelError, UnknownOIDError
from repro.datamodel.paths import Path
from repro.datasets.figure1 import FIGURE1_OIDS as O


class TestLookups:
    def test_pid_path_consistency(self, figure1_store):
        for oid in figure1_store.iter_oids():
            pid = figure1_store.pid_of(oid)
            assert figure1_store.summary.path(pid) == figure1_store.path_of(oid)

    def test_unknown_oid(self, figure1_store):
        with pytest.raises(UnknownOIDError):
            figure1_store.pid_of(999)
        with pytest.raises(UnknownOIDError):
            figure1_store.parent_of(0)  # first_oid is 1

    def test_contains(self, figure1_store):
        assert O["article1"] in figure1_store
        assert 0 not in figure1_store
        assert "x" not in figure1_store

    def test_depth(self, figure1_store):
        assert figure1_store.depth_of(O["bibliography"]) == 1
        assert figure1_store.depth_of(O["cdata_ben"]) == 6


class TestRelations:
    def test_edge_relation_empty_for_attribute_pid(self, figure1_store):
        pid = figure1_store.summary.pid(
            Path.parse("bibliography/institute/article@key")
        )
        assert len(figure1_store.edge_runs().run(pid)[0]) == 0
        assert len(figure1_store.string_runs().run(pid)[0]) == 2

    def test_string_relations_iteration(self, figure1_store):
        names = {
            str(figure1_store.summary.path(pid))
            for pid in figure1_store.string_runs().pids.tolist()
        }
        assert "bibliography/institute/article@key" in names


class TestNodeSets:
    def test_oids_on_pid(self, figure1_store):
        pid = figure1_store.summary.pid(
            Path.parse("bibliography/institute/article")
        )
        assert figure1_store.oids_on_pid(pid) == [O["article1"], O["article2"]]

    def test_oids_on_root_pid(self, figure1_store):
        pid = figure1_store.pid_of(figure1_store.root_oid)
        assert figure1_store.oids_on_pid(pid) == [figure1_store.root_oid]

    def test_oids_on_path_unknown(self, figure1_store):
        assert figure1_store.oids_on_path(Path.parse("nope")) == []

    def test_children_in_rank_order(self, figure1_store):
        children = figure1_store.children_of(O["article1"])
        assert children == [O["author1"], O["title1"], O["year1"]]

    def test_children_of_leaf(self, figure1_store):
        assert figure1_store.children_of(O["cdata_ben"]) == []

    def test_attributes_of(self, figure1_store):
        assert figure1_store.attributes_of(O["article1"]) == {"key": "BB99"}
        assert figure1_store.attributes_of(O["cdata_ben"]) == {"string": "Ben"}
        assert figure1_store.attributes_of(O["institute"]) == {}


class TestAncestry:
    def test_ancestry(self, figure1_store):
        assert figure1_store.ancestry(O["cdata_ben"]) == [
            O["cdata_ben"],
            O["firstname"],
            O["author1"],
            O["article1"],
            O["institute"],
            O["bibliography"],
        ]

    def test_is_ancestor(self, figure1_store):
        assert figure1_store.is_ancestor(O["article1"], O["cdata_ben"])
        assert figure1_store.is_ancestor(O["cdata_ben"], O["cdata_ben"])
        assert not figure1_store.is_ancestor(O["article2"], O["cdata_ben"])
        assert not figure1_store.is_ancestor(O["cdata_ben"], O["article1"])


class TestValidation:
    def test_validate_detects_corruption(self, figure1_doc):
        from repro.monet.transform import monet_transform

        store = monet_transform(figure1_doc)
        # Corrupt the parent column behind the engine's back.
        position = O["cdata_ben"] - store.first_oid
        store._oid_parent[position] = O["article2"]
        with pytest.raises(ModelError):
            store.validate()

    def test_validate_detects_string_row_on_wrong_path(self, figure1_doc):
        from repro.monet.transform import monet_transform

        store = monet_transform(figure1_doc)
        strings = store.string_runs()
        heads = np.array(strings.heads)
        key_pid = store.summary.pid(
            Path.parse("bibliography/institute/article@key")
        )
        # An article key hung off a cdata node instead of the article.
        heads[strings.offsets[key_pid]] = O["cdata_ben"]
        store._string_runs = strings._replace(heads=heads)
        with pytest.raises(ModelError, match="of wrong path"):
            store.validate()

    def test_validate_detects_non_string_value(self, figure1_doc):
        from repro.monet.transform import monet_transform

        store = monet_transform(figure1_doc)
        strings = store.string_runs()
        tails = list(strings.tails)
        tails[-1] = 1999
        store._string_runs = strings._replace(tails=tails)
        with pytest.raises(ModelError, match="non-string value 1999"):
            store.validate()
