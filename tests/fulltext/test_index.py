"""Unit tests for the inverted index over string associations."""

from array import array

import pytest

from repro.datasets.figure1 import FIGURE1_OIDS as O
from repro.fulltext.index import FullTextIndex, _unique_oid_column


@pytest.fixture(scope="module")
def index(request):
    figure1_store = request.getfixturevalue("figure1_store")
    return FullTextIndex(figure1_store)


class TestBuild:
    def test_indexes_every_string_association(self, index):
        # Figure 1: 7 cdata strings + 2 key attributes
        assert index.indexed_associations == 9

    def test_vocabulary(self, index):
        vocabulary = set(index.vocabulary())
        assert {"ben", "bit", "bob", "byte", "1999", "hack", "bb99"} <= vocabulary

    def test_document_frequency(self, index):
        assert index.document_frequency("1999") == 2
        assert index.document_frequency("Ben") == 1
        assert index.document_frequency("absent") == 0


class TestSearch:
    def test_hits_are_cdata_nodes(self, index):
        assert index.search("Ben").oids() == {O["cdata_ben"]}
        assert index.search("1999").oids() == {
            O["cdata_1999_a"],
            O["cdata_1999_b"],
        }

    def test_attribute_hits_are_element_nodes(self, index):
        assert index.search("BB99").oids() == {O["article1"]}

    def test_case_insensitive_default(self, index):
        assert index.search("ben").oids() == index.search("BEN").oids()

    def test_multiword_string_tokens(self, index):
        assert index.search("Bob").oids() == {O["cdata_bob_byte"]}
        assert index.search("Byte").oids() == {O["cdata_bob_byte"]}

    def test_miss(self, index):
        hits = index.search("zzz")
        assert not hits and len(hits) == 0

    def test_by_pid_groups_by_element_path(self, index, figure1_store):
        grouped = index.search("1999").by_pid()
        assert len(grouped) == 1
        (pid,) = grouped
        assert (
            str(figure1_store.summary.path(pid))
            == "bibliography/institute/article/year/cdata"
        )
        assert sorted(grouped[pid]) == [O["cdata_1999_a"], O["cdata_1999_b"]]

    def test_by_pid_is_memoized_and_read_only(self, index):
        hits = index.search("1999")
        assert hits.by_pid() is hits.by_pid()
        with pytest.raises(TypeError):
            hits.by_pid()[999] = [1]

    def test_roll_ups_are_built_on_first_call_only(self, figure1_store):
        index = FullTextIndex(figure1_store)
        entry = index._terms["1999"]
        hits = index.search("1999")
        assert list(hits.oid_column()) == sorted(hits.oids())
        assert entry._grouped is None  # nobody asked for the grouping
        assert index.search("1999").by_pid() is hits.by_pid() is entry.grouped


def test_unique_oid_column_binds_int32_columns():
    column = _unique_oid_column(memoryview(array("i", [5, 3, 5, 7])))
    assert list(column) == [3, 5, 7]
    assert all(type(oid) is int for oid in column)


class TestCompoundSearch:
    def test_search_any_unions(self, index):
        hits = index.search_any(["Ben", "Bob"])
        assert hits.oids() == {O["cdata_ben"], O["cdata_bob_byte"]}

    def test_search_any_dedupes(self, index):
        hits = index.search_any(["Bob", "Byte"])
        assert len(hits.postings) == 1

    def test_search_conjunctive(self, index):
        assert index.search_conjunctive(["Bob", "Byte"]).oids() == {
            O["cdata_bob_byte"]
        }
        assert index.search_conjunctive(["Bob", "Bit"]).oids() == set()

    def test_search_conjunctive_empty_terms(self, index):
        assert index.search_conjunctive([]).oids() == set()

    def test_search_prefix(self, index):
        hits = index.search_prefix("ha")
        # 'hack' (How to Hack) and 'hacking' (Hacking & RSI)
        assert hits.oids() == {O["cdata_how_to_hack"], O["cdata_hacking_rsi"]}


class TestCaseSensitiveIndex:
    def test_case_sensitive_build(self, figure1_store):
        index = FullTextIndex(figure1_store, case_sensitive=True)
        assert index.search("Ben").oids() == {O["cdata_ben"]}
        assert index.search("ben").oids() == set()
