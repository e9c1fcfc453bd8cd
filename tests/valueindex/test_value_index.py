"""The typed value index: probes reproduce scan semantics exactly.

Every probe (equality, comparison, range) is checked against a brute
force over ``store.string_runs()`` evaluated with the very
``compare_values`` rule the ``=``/range predicates scan with — the
index is only allowed to change cost, never answers.
"""

from types import SimpleNamespace

import pytest

from repro.core.lca_index import LCA_INDEXES
from repro.fulltext.index import FULLTEXT_INDEXES
from repro.monet.transform import monet_transform
from repro.datasets import PlaysConfig, plays_document
from repro.query.ast import compare_values
from repro.valueindex import (
    VALUE_INDEXES,
    ValueIndex,
    clear_value_index_cache,
    value_index_cache_info,
)

#: Every registered index, with the key its plain getter uses.
REGISTRIES = [(LCA_INDEXES, None), (FULLTEXT_INDEXES, False), (VALUE_INDEXES, None)]


@pytest.fixture()
def plays_store():
    return monet_transform(
        plays_document(PlaysConfig(plays=2, acts_per_play=2, scenes_per_act=2))
    )


def scan_associations(store):
    """(pid, oid, value) for every string association — the oracle."""
    strings = store.string_runs()
    for pid in strings.pids.tolist():
        oids, values = strings.run(pid)
        for oid, value in zip(oids.tolist(), values):
            yield pid, oid, value


class TestProbesMatchScan:
    def test_build_covers_every_association(self, figure1_store):
        index = ValueIndex(figure1_store)
        assert index.entry_count == sum(
            1 for _ in scan_associations(figure1_store)
        )
        assert index.path_count == len(
            {pid for pid, _oid, _v in scan_associations(figure1_store)}
        )

    def test_equality_probe_equals_scan_for_every_value(self, figure1_store):
        index = ValueIndex(figure1_store)
        values = {v for _p, _o, v in scan_associations(figure1_store)}
        for value in values | {"no-such-value"}:
            expected = {
                oid
                for _pid, oid, v in scan_associations(figure1_store)
                if v == value
            }
            assert index.lookup_eq(value) == expected, value
            assert index.estimate_eq(value) == len(expected), value

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("literal", ["1999", "Bit", "Bob Byte", "0"])
    def test_comparison_probe_equals_scan(self, figure1_store, op, literal):
        index = ValueIndex(figure1_store)
        expected = {
            oid
            for _pid, oid, value in scan_associations(figure1_store)
            if compare_values(value, op, literal)
        }
        actual = index.lookup_cmp(op, literal)
        assert actual == expected, (op, literal)
        # The entry-count estimate is an upper bound on distinct OIDs.
        assert index.estimate_cmp(op, literal) >= len(actual)

    def test_comparison_probe_on_larger_store(self, plays_store):
        index = ValueIndex(plays_store)
        for op in ("<", ">="):
            for literal in ("crown", "5"):
                expected = {
                    oid
                    for _pid, oid, value in scan_associations(plays_store)
                    if compare_values(value, op, literal)
                }
                assert index.lookup_cmp(op, literal) == expected, (op, literal)

    def test_pid_restricted_probe(self, figure1_store):
        index = ValueIndex(figure1_store)
        (pid,) = {
            pid
            for pid, _oid, value in scan_associations(figure1_store)
            if value == "Bit"
        }
        assert index.lookup_eq("Bit", pids=[pid]) == index.lookup_eq("Bit")
        assert index.lookup_eq("Bit", pids=[pid + 999]) == frozenset()

    def test_string_and_numeric_range(self, figure1_store):
        index = ValueIndex(figure1_store)
        lexical = index.lookup_range("A", "C")
        expected = {
            oid
            for _pid, oid, value in scan_associations(figure1_store)
            if "A" <= value <= "C"
        }
        assert lexical == expected
        numeric = index.lookup_range("1998", "2000", numeric=True)
        expected_numeric = set()
        for _pid, oid, value in scan_associations(figure1_store):
            try:
                if 1998.0 <= float(value) <= 2000.0:
                    expected_numeric.add(oid)
            except ValueError:
                pass
        assert numeric == expected_numeric
        with pytest.raises(ValueError):
            index.lookup_range("low", None, numeric=True)

    def test_unknown_operator_rejected(self, figure1_store):
        index = ValueIndex(figure1_store)
        with pytest.raises(ValueError):
            index.lookup_cmp("!=", "x")
        with pytest.raises(ValueError):
            index.estimate_cmp("~", "x")


class TestPersistenceColumns:
    def test_round_trip_through_path_columns(self, figure1_store):
        built = ValueIndex(figure1_store)
        columns = [
            (pid, list(oids), list(values))
            for pid, oids, values in built.iter_path_columns()
        ]
        clear_value_index_cache()
        restored = ValueIndex.from_path_columns(
            figure1_store, columns, declared=["#"]
        )
        # from_path_columns never scans a relation: no build counted.
        assert value_index_cache_info().builds == 0
        assert restored.declared == ("#",)
        assert restored.entry_count == built.entry_count
        for value in {v for _p, _o, v in scan_associations(figure1_store)}:
            assert restored.lookup_eq(value) == built.lookup_eq(value)
        assert restored.lookup_cmp(">=", "1999") == built.lookup_cmp(
            ">=", "1999"
        )


class TestPatchedMaintenance:
    def _record_put(self, added, to_generation):
        return SimpleNamespace(
            kind="put", added_strings=added, to_generation=to_generation
        )

    def _record_delete(self, span, removed, to_generation):
        return SimpleNamespace(
            kind="delete",
            span=span,
            removed_strings=removed,
            to_generation=to_generation,
        )

    def test_put_adds_and_delete_prunes(self, figure1_store):
        index = ValueIndex(figure1_store)
        pid = next(iter(p for p, _o, _v in scan_associations(figure1_store)))
        patched = index.patched(
            [self._record_put([(pid, 900, "Patchwork")], index.generation + 1)]
        )
        assert patched.lookup_eq("Patchwork") == {900}
        assert index.lookup_eq("Patchwork") == frozenset()  # copy-on-write
        assert patched.generation == index.generation + 1
        assert patched.entry_count == index.entry_count + 1

        pruned = patched.patched(
            [
                self._record_delete(
                    (900, 900),
                    [(pid, 900, "Patchwork")],
                    patched.generation + 1,
                )
            ]
        )
        assert pruned.lookup_eq("Patchwork") == frozenset()
        assert pruned.entry_count == index.entry_count

    def test_delete_spanning_existing_oids(self, figure1_store):
        index = ValueIndex(figure1_store)
        victims = {
            oid
            for _pid, oid, value in scan_associations(figure1_store)
            if value == "Bit"
        }
        low = high = next(iter(victims))
        removed = [
            (pid, oid, value)
            for pid, oid, value in scan_associations(figure1_store)
            if low <= oid <= high
        ]
        pruned = index.patched(
            [self._record_delete((low, high), removed, index.generation + 1)]
        )
        assert pruned.lookup_eq("Bit") == frozenset()


def _unrecorded(cache, key, store):
    """A ready index of ``store`` that ``cache`` holds no record of."""
    index = cache.get(store, key)
    cache.clear()
    return index


class TestCacheSuite:
    """The one maintenance policy (:class:`repro.monet.engine.DerivedCache`),
    checked on every registered index."""

    def test_get_builds_once_then_hits(self, figure1_store):
        for cache, key in REGISTRIES:
            cache.clear()
            first = cache.get(figure1_store, key)
            info = cache.info()
            assert (info.builds, info.hits) == (1, 0), cache.name
            assert cache.get(figure1_store, key) is first
            info = cache.info()
            assert (info.builds, info.hits, info.currsize) == (1, 1, 1), cache.name

    def test_seed_installs_without_build(self, figure1_store):
        for cache, key in REGISTRIES:
            index = _unrecorded(cache, key, figure1_store)
            cache.seed(figure1_store, index)
            assert cache.info().builds == 0, cache.name
            assert cache.peek(figure1_store, key) is index
            assert cache.get(figure1_store, key) is index

    def test_seed_rejects_foreign_store(self, figure1_store, plays_store):
        for cache, key in REGISTRIES:
            index = _unrecorded(cache, key, plays_store)
            with pytest.raises(ValueError):
                cache.seed(figure1_store, index)

    def test_cached_peek_never_builds(self, plays_store):
        for cache, key in REGISTRIES:
            cache.clear()
            assert cache.peek(plays_store, key) is None, cache.name
            assert cache.info().builds == 0, cache.name


class TestNaNValues:
    """A value reading as NaN belongs to no numeric range, and a NaN
    literal matches no numeric value — the ``compare_values`` rule."""

    DOCUMENT = (
        "<r><v>nan</v><v>5</v><v>3</v><v>NaN</v><v>7</v><v>abc</v>"
        "<v>inf</v><v>1</v></r>"
    )

    @pytest.fixture()
    def nan_store(self):
        from repro.datamodel.parser import parse_document

        return monet_transform(parse_document(self.DOCUMENT))

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("literal", ["4", "nan", "inf", "-inf", "abc", "0"])
    def test_comparison_probe_equals_scan(self, nan_store, op, literal):
        index = ValueIndex(nan_store)
        expected = {
            oid
            for _pid, oid, value in scan_associations(nan_store)
            if compare_values(value, op, literal)
        }
        assert index.lookup_cmp(op, literal) == expected, (op, literal)
        assert index.estimate_cmp(op, literal) >= len(expected)

    def test_less_than_four_skips_nan(self, nan_store):
        index = ValueIndex(nan_store)
        values = {
            oid: value for _pid, oid, value in scan_associations(nan_store)
        }
        assert sorted(values[oid] for oid in index.lookup_cmp("<", "4")) == [
            "1",
            "3",
        ]

    def test_numeric_range_never_matches_nan(self, nan_store):
        index = ValueIndex(nan_store)
        assert index.lookup_range("nan", None, numeric=True) == frozenset()
        values = {
            oid: value for _pid, oid, value in scan_associations(nan_store)
        }
        everything = index.lookup_range(None, None, numeric=True)
        assert sorted(values[oid] for oid in everything) == [
            "1", "3", "5", "7", "inf",
        ]
