"""Unit tests for the interned path summary / schema tree."""

import pytest

from repro.datamodel.errors import UnknownPathError
from repro.datamodel.paths import Path
from repro.monet.pathsummary import PathSummary


@pytest.fixture
def summary():
    s = PathSummary()
    for text in (
        "bib",
        "bib/article",
        "bib/article/year",
        "bib/article/author",
        "bib/article@key",
        "bib/journal",
    ):
        s.intern(Path.parse(text))
    return s


class TestInterning:
    def test_intern_idempotent(self, summary):
        path = Path.parse("bib/article")
        assert summary.intern(path) == summary.intern(path)

    def test_intern_creates_prefixes(self):
        s = PathSummary()
        s.intern(Path.parse("a/b/c"))
        assert Path.parse("a") in s
        assert Path.parse("a/b") in s

    def test_pid_of_unknown_raises(self, summary):
        with pytest.raises(UnknownPathError):
            summary.pid(Path.parse("nope"))

    def test_maybe_pid(self, summary):
        assert summary.maybe_pid(Path.parse("nope")) is None
        assert summary.maybe_pid(Path.parse("bib")) is not None

    def test_len_counts_empty_root(self, summary):
        # 6 interned paths + reserved empty path
        assert len(summary) == 7

    def test_round_trip(self, summary):
        for pid in summary.pids():
            assert summary.pid(summary.path(pid)) == pid


class TestSchemaTree:
    def test_parent_pointers(self, summary):
        article = summary.pid(Path.parse("bib/article"))
        year = summary.pid(Path.parse("bib/article/year"))
        assert summary.parent(year) == article

    def test_empty_path_is_own_parent(self, summary):
        assert summary.parent(0) == 0

    def test_children(self, summary):
        article = summary.pid(Path.parse("bib/article"))
        labels = {summary.label(pid) for pid in summary.children(article)}
        assert labels == {"year", "author", "key"}

    def test_depths(self, summary):
        assert summary.depth(summary.pid(Path.parse("bib"))) == 1
        assert summary.depth(summary.pid(Path.parse("bib/article/year"))) == 3

    def test_attribute_detection(self, summary):
        key = summary.pid(Path.parse("bib/article@key"))
        year = summary.pid(Path.parse("bib/article/year"))
        assert summary.is_attribute(key)
        assert not summary.is_attribute(year)

    def test_element_and_attribute_pids_partition(self, summary):
        everything = set(summary.pids())
        elements = set(summary.element_pids())
        attributes = set(summary.attribute_pids())
        assert elements | attributes == everything
        assert not elements & attributes


class TestPrefixOps:
    def test_prefix_leq(self, summary):
        year = summary.pid(Path.parse("bib/article/year"))
        article = summary.pid(Path.parse("bib/article"))
        bib = summary.pid(Path.parse("bib"))
        assert summary.prefix_leq(year, article)
        assert summary.prefix_leq(year, bib)
        assert not summary.prefix_leq(article, year)
        assert summary.prefix_leq(year, year)

    def test_prefix_leq_incomparable(self, summary):
        year = summary.pid(Path.parse("bib/article/year"))
        journal = summary.pid(Path.parse("bib/journal"))
        assert not summary.prefix_leq(year, journal)
        assert not summary.prefix_leq(journal, year)

    def test_common_prefix(self, summary):
        year = summary.pid(Path.parse("bib/article/year"))
        author = summary.pid(Path.parse("bib/article/author"))
        journal = summary.pid(Path.parse("bib/journal"))
        article = summary.pid(Path.parse("bib/article"))
        bib = summary.pid(Path.parse("bib"))
        assert summary.common_prefix(year, author) == article
        assert summary.common_prefix(year, journal) == bib
        assert summary.common_prefix(year, year) == year


class TestTraversals:
    def test_postorder_children_before_parents(self, summary):
        order = summary.postorder()
        positions = {pid: index for index, pid in enumerate(order)}
        for pid in summary.pids():
            for child in summary.children(pid):
                assert positions[child] < positions[pid]

    def test_postorder_covers_all(self, summary):
        assert sorted(summary.postorder()) == sorted(summary.pids())

    def test_pids_by_depth_desc(self, summary):
        order = summary.pids_by_depth_desc()
        depths = [summary.depth(pid) for pid in order]
        assert depths == sorted(depths, reverse=True)


class TestColumnarChildren:
    """The snapshot loader's summary answers children from flat columns."""

    @staticmethod
    def columnar(summary):
        pids = list(summary.pids())
        return PathSummary(
            [summary.parent(pid) for pid in pids],
            [summary.label(pid) for pid in pids],
            [int(summary.is_attribute(pid)) for pid in pids],
        )

    def test_children_and_postorder_match_the_interned_summary(self, summary):
        columnar = self.columnar(summary)
        for pid in range(len(summary)):
            assert columnar.children(pid) == summary.children(pid)
        assert columnar.postorder() == summary.postorder()

    def test_paths_interned_after_the_load_come_last_in_pid_order(self, summary):
        columnar = self.columnar(summary)
        late = ("bib/article/title", "bib/book/title", "bib/book@key", "bib/zine")
        for text in late:
            assert columnar.intern(Path.parse(text)) == summary.intern(
                Path.parse(text)
            )
        assert len(columnar) == len(summary)
        for pid in range(len(summary)):
            children = columnar.children(pid)
            assert children == summary.children(pid)
            assert list(children) == sorted(children)
        assert columnar.postorder() == summary.postorder()

    def test_no_list_per_pid(self, summary):
        """Two flat columns and an overflow dict, whatever the path count."""
        columnar = self.columnar(summary)
        assert not hasattr(columnar, "_children")
        assert len(columnar._child_pids) == len(summary) - 1
        assert len(columnar._child_offsets) == len(summary) + 1
        assert columnar._late_children == {}
