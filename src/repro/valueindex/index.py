"""Typed value indexes: per-path equality and range over associations.

The index covers exactly the search surface of the ``=`` predicate's
scan semantics (:meth:`QueryProcessor._condition_closure`): every
(OID, string) association of every string relation — attribute values
*and* character data.  A probe therefore returns byte-identical node
sets to the full scan, which is what lets the planner swap one for the
other without changing answers.

Layout mirrors :mod:`repro.fulltext.index`: per-path frozen parallel
columns (OIDs and values) with the probe structures — the global
value → OID-set dictionary, per-path sorted pairs, numeric projections
— derived lazily, so snapshot loads stay O(bytes).  The same
generation-keyed cache discipline applies: :func:`get_value_index`
reuses, patches forward over the mutation journal, or rebuilds;
:func:`seed_value_index` installs a deserialized index without a
build.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..monet.engine import DerivedCache, MonetXML
from ..monet.mutate import journal_chain

__all__ = [
    "ValueIndex",
    "ValueIndexCacheInfo",
    "get_value_index",
    "seed_value_index",
    "clear_value_index_cache",
    "value_index_cache_info",
]


def _numeric(value: str) -> Optional[float]:
    """The numeric reading of a value, or ``None`` if it has none."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


class _PathValues:
    """Frozen per-path columns: parallel OID/value arrays plus probes.

    Builds populate the columns eagerly; the sorted string pairs and
    the numeric projection (only values that parse as numbers) are
    derived lazily on the first range probe.
    """

    __slots__ = ("oids", "values", "_sorted", "_numeric", "_string_only")

    def __init__(self, oids: Sequence[int], values: Sequence[str]):
        self.oids = oids
        self.values = values
        self._sorted: Optional[List[Tuple[str, int]]] = None
        self._numeric: Optional[List[Tuple[float, int]]] = None
        self._string_only: Optional[List[Tuple[str, int]]] = None

    @property
    def sorted_pairs(self) -> List[Tuple[str, int]]:
        cached = self._sorted
        if cached is None:
            cached = self._sorted = sorted(zip(self.values, self.oids))
        return cached

    @property
    def numeric_pairs(self) -> List[Tuple[float, int]]:
        cached = self._numeric
        if cached is None:
            pairs = []
            for value, oid in zip(self.values, self.oids):
                number = _numeric(value)
                if number is not None:
                    pairs.append((number, oid))
            pairs.sort()
            cached = self._numeric = pairs
        return cached

    @property
    def string_only_pairs(self) -> List[Tuple[str, int]]:
        """Sorted (value, OID) pairs of values with *no* numeric reading.

        Against a numeric literal these compare as strings while the
        numeric values compare as numbers — the mixed-typed rule of
        :func:`repro.query.ast.compare_values`.
        """
        cached = self._string_only
        if cached is None:
            pairs = [
                (value, oid)
                for value, oid in zip(self.values, self.oids)
                if _numeric(value) is None
            ]
            pairs.sort()
            cached = self._string_only = pairs
        return cached

    def __len__(self) -> int:
        return len(self.oids)


class ValueIndex:
    """value → OIDs over every string relation, grouped by path.

    The OIDs recorded are the association OIDs — for character data the
    ``cdata`` node, for an attribute value the owning element — exactly
    what ``BAT.select_eq`` yields, so an equality probe reproduces the
    scan closure of the ``=`` predicate verbatim.

    ``declared`` carries the per-collection index declarations (path
    pattern strings); the in-memory index always covers every path —
    declarations gate snapshot persistence and planner eagerness, not
    coverage, so probe answers never depend on what was declared.
    """

    def __init__(self, store: MonetXML, declared: Sequence[str] = ()):
        self.store = store
        self.declared: Tuple[str, ...] = tuple(declared)
        #: Store generation this index was built against.
        self.generation = getattr(store, "generation", 0)
        self._paths: Dict[int, _PathValues] = {}
        self._entry_count = 0
        self._eq: Optional[Dict[str, FrozenSet[int]]] = None
        self._build()

    def _build(self) -> None:
        global _builds
        _builds += 1
        for pid, relation in self.store.string_relations():
            oids = array("q")
            values: List[str] = []
            for oid, value in relation:
                oids.append(oid)
                values.append(value)
            if oids:
                self._paths[pid] = _PathValues(oids, values)
                self._entry_count += len(oids)

    # -- persistence (the snapshot store's contract) --------------------
    def iter_path_columns(
        self,
    ) -> Iterator[Tuple[int, Sequence[int], Sequence[str]]]:
        """(pid, OID column, value column) per path, in pid order.

        The snapshot writer serializes exactly these columns; the probe
        structures (equality map, sorted pairs, numeric projection) are
        derivable and not part of the on-disk contract.
        """
        for pid in sorted(self._paths):
            entry = self._paths[pid]
            yield pid, entry.oids, entry.values

    @classmethod
    def from_path_columns(
        cls,
        store: MonetXML,
        path_columns: Iterable[Tuple[int, Sequence[int], Sequence[str]]],
        *,
        declared: Sequence[str] = (),
    ) -> "ValueIndex":
        """Rebind deserialized path columns as a ready index.

        No string relation is scanned (the build counter stays
        untouched); probe structures materialize lazily on first use.
        """
        self = cls.__new__(cls)
        self.store = store
        self.declared = tuple(declared)
        self.generation = getattr(store, "generation", 0)
        self._paths = {}
        self._entry_count = 0
        self._eq = None
        for pid, oids, values in path_columns:
            self._paths[pid] = _PathValues(oids, values)
            self._entry_count += len(oids)
        return self

    # -- incremental maintenance ----------------------------------------
    def patched(self, records: Iterable[object]) -> "ValueIndex":
        """A copy of this index rolled forward over mutation records.

        Put records contribute their ``added_strings`` associations;
        delete records prune entries by tombstoned OID span.  The
        receiver is left untouched — the copy shares the columns of
        unaffected paths — so racing readers can each patch the cached
        index and install their copy without observing a half-patched
        structure.
        """
        clone = ValueIndex.__new__(ValueIndex)
        clone.store = self.store
        clone.declared = self.declared
        clone.generation = self.generation
        clone._entry_count = self._entry_count
        clone._paths = dict(self._paths)
        clone._eq = None
        for record in records:
            kind = getattr(record, "kind", None)
            if kind == "put":
                pending: Dict[int, Tuple[List[int], List[str]]] = {}
                for attr_pid, oid, value in record.added_strings:
                    columns = pending.get(attr_pid)
                    if columns is None:
                        pending[attr_pid] = columns = ([], [])
                    columns[0].append(oid)
                    columns[1].append(value)
                    clone._entry_count += 1
                for attr_pid, (oids, values) in pending.items():
                    entry = clone._paths.get(attr_pid)
                    if entry is None:
                        clone._paths[attr_pid] = _PathValues(
                            array("q", oids), values
                        )
                    else:
                        merged_oids = array("q", entry.oids)
                        merged_oids.extend(oids)
                        merged_values = list(entry.values)
                        merged_values.extend(values)
                        clone._paths[attr_pid] = _PathValues(
                            merged_oids, merged_values
                        )
            elif kind == "delete":
                low, high = record.span
                for pid, entry in list(clone._paths.items()):
                    if not any(low <= oid <= high for oid in entry.oids):
                        continue
                    kept_oids = array("q")
                    kept_values: List[str] = []
                    for oid, value in zip(entry.oids, entry.values):
                        if low <= oid <= high:
                            clone._entry_count -= 1
                            continue
                        kept_oids.append(oid)
                        kept_values.append(value)
                    if kept_oids:
                        clone._paths[pid] = _PathValues(kept_oids, kept_values)
                    else:
                        del clone._paths[pid]
            else:  # pragma: no cover - journal only holds put/delete
                raise ValueError(f"unknown mutation record {record!r}")
            clone.generation = record.to_generation
        return clone

    # -- statistics ------------------------------------------------------
    @property
    def entry_count(self) -> int:
        """Indexed associations across every path."""
        return self._entry_count

    @property
    def path_count(self) -> int:
        return len(self._paths)

    def path_entry_count(self, pid: int) -> int:
        entry = self._paths.get(pid)
        return 0 if entry is None else len(entry)

    def value_frequency(self, value: str) -> int:
        """Associations carrying exactly this value (cheap after warm-up)."""
        return len(self.lookup_eq(value))

    def estimate_eq(self, value: str) -> int:
        """Exact distinct-OID count of an equality probe (O(1) when warm)."""
        return len(self._equality_map().get(value, ()))

    def estimate_cmp(self, op: str, literal: str) -> int:
        """Entry count a range probe would touch (an upper bound on OIDs).

        Counts matching (value, OID) entries via bisection without
        materializing the result set; duplicate OIDs across paths make
        this an upper bound on the distinct-OID answer.
        """
        if op not in ("<", "<=", ">", ">="):
            raise ValueError(f"unknown range operator {op!r}")
        literal_num = _numeric(literal)
        total = 0

        def span(pairs, key) -> int:
            if op == "<":
                return bisect_left(pairs, (key,))
            if op == "<=":
                return bisect_right(pairs, (key, float("inf")))
            if op == ">":
                return len(pairs) - bisect_right(pairs, (key, float("inf")))
            return len(pairs) - bisect_left(pairs, (key,))

        for entry in self._paths.values():
            if literal_num is None:
                total += span(entry.sorted_pairs, literal)
            else:
                total += span(entry.numeric_pairs, literal_num)
                total += span(entry.string_only_pairs, literal)
        return total

    # -- probes ----------------------------------------------------------
    def _equality_map(self) -> Dict[str, FrozenSet[int]]:
        cached = self._eq
        if cached is None:
            pending: Dict[str, Set[int]] = {}
            for entry in self._paths.values():
                for oid, value in zip(entry.oids, entry.values):
                    bucket = pending.get(value)
                    if bucket is None:
                        pending[value] = bucket = set()
                    bucket.add(oid)
            cached = self._eq = {
                value: frozenset(oids) for value, oids in pending.items()
            }
        return cached

    def lookup_eq(
        self, value: str, pids: Optional[Iterable[int]] = None
    ) -> FrozenSet[int]:
        """OIDs carrying an association exactly equal to ``value``.

        With ``pids`` the probe is restricted to those paths (the typed
        per-path form); without, it spans every string relation — the
        same node set the ``=`` scan closure produces.
        """
        if pids is None:
            return self._equality_map().get(value, frozenset())
        hits: Set[int] = set()
        for pid in pids:
            entry = self._paths.get(pid)
            if entry is None:
                continue
            pairs = entry.sorted_pairs
            start = bisect_left(pairs, (value,))
            for candidate, oid in pairs[start:]:
                if candidate != value:
                    break
                hits.add(oid)
        return frozenset(hits)

    def lookup_cmp(
        self, op: str, literal: str, pids: Optional[Iterable[int]] = None
    ) -> FrozenSet[int]:
        """OIDs whose value satisfies ``value <op> literal`` (typed rule).

        Implements :func:`repro.query.ast.compare_values` exactly: a
        numeric literal compares numerically against numeric values and
        lexicographically against the rest; a non-numeric literal
        compares everything lexicographically.  The scan closure of a
        range predicate and this probe therefore agree byte-for-byte.
        """
        if op not in ("<", "<=", ">", ">="):
            raise ValueError(f"unknown range operator {op!r}")
        selected = (
            self._paths.values()
            if pids is None
            else [self._paths[pid] for pid in pids if pid in self._paths]
        )
        literal_num = _numeric(literal)
        hits: Set[int] = set()

        def collect(pairs, key) -> None:
            if op == "<":
                span = pairs[: bisect_left(pairs, (key,))]
            elif op == "<=":
                span = pairs[: bisect_right(pairs, (key, float("inf")))]
            elif op == ">":
                span = pairs[bisect_right(pairs, (key, float("inf"))) :]
            else:  # ">="
                span = pairs[bisect_left(pairs, (key,)) :]
            for _value, oid in span:
                hits.add(oid)

        for entry in selected:
            if literal_num is None:
                collect(entry.sorted_pairs, literal)
            else:
                collect(entry.numeric_pairs, literal_num)
                collect(entry.string_only_pairs, literal)
        return frozenset(hits)

    def lookup_range(
        self,
        low: Optional[str] = None,
        high: Optional[str] = None,
        *,
        numeric: bool = False,
        pids: Optional[Iterable[int]] = None,
    ) -> FrozenSet[int]:
        """OIDs with a value in the inclusive ``[low, high]`` interval.

        String ranges compare lexicographically over the raw values;
        numeric ranges compare the parsed-number projection (values
        without a numeric reading never match).  ``None`` bounds are
        open ends.
        """
        if numeric:
            low_key = None if low is None else _numeric(low)
            high_key = None if high is None else _numeric(high)
            if (low is not None and low_key is None) or (
                high is not None and high_key is None
            ):
                raise ValueError(
                    "numeric range bounds must parse as numbers: "
                    f"low={low!r} high={high!r}"
                )
        else:
            low_key, high_key = low, high
        selected = (
            self._paths.values()
            if pids is None
            else [
                self._paths[pid] for pid in pids if pid in self._paths
            ]
        )
        hits: Set[int] = set()
        for entry in selected:
            pairs = entry.numeric_pairs if numeric else entry.sorted_pairs
            start = 0 if low_key is None else bisect_left(pairs, (low_key,))
            if high_key is None:
                stop = len(pairs)
            else:
                stop = bisect_right(pairs, (high_key, float("inf")))
            for _value, oid in pairs[start:stop]:
                hits.add(oid)
        return frozenset(hits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueIndex(paths={len(self._paths)}, "
            f"entries={self._entry_count}, gen={self.generation})"
        )


# ---------------------------------------------------------------------------
# Per-store cache, keyed on store identity + generation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueIndexCacheInfo:
    """Counters of the per-store index cache (for tests and benches)."""

    builds: int
    hits: int
    currsize: int
    patches: int = 0


_cache = DerivedCache("value_index")  # store → ValueIndex
_builds = 0
_hits = 0
_patches = 0

#: Above this tombstone density an invalidated index rebuilds from the
#: (already pruned) relations instead of patching forward — the patch
#: would carry too much dead weight.
REBUILD_DENSITY = 0.25


def get_value_index(
    store: MonetXML, declared: Sequence[str] = ()
) -> ValueIndex:
    """The cached :class:`ValueIndex` of a store, (re)built on demand.

    Kept on the store object (it dies with it) under its
    ``generation``: every engine / processor serving the same store
    shares one index, and
    :meth:`~repro.monet.engine.MonetXML.invalidate_caches`
    transparently yields a fresh one on next use.  When the store's
    mutation journal bridges the cached index's generation to the
    current one and tombstone density is below :data:`REBUILD_DENSITY`,
    the index is patched forward instead of rebuilt.

    Values are matched exactly (``BAT.select_eq`` semantics), so there
    is no case-mode key — one index per store.
    """
    global _hits, _patches
    cached = _cache.get(store)
    if cached is not None and cached.generation == getattr(store, "generation", 0):
        _hits += 1
        return cached
    if cached is not None and getattr(store, "dead_fraction", 1.0) <= REBUILD_DENSITY:
        chain = journal_chain(store, cached.generation)
        if chain is not None:
            index = cached.patched(chain)
            _cache[store] = index
            _patches += 1
            return index
    index = ValueIndex(store, declared=declared)
    _cache[store] = index
    return index


def seed_value_index(store: MonetXML, index: ValueIndex) -> None:
    """Install a ready index into the per-store cache without a build.

    The snapshot loader's hook: an index deserialized via
    :meth:`ValueIndex.from_path_columns` is registered so every
    subsequent :func:`get_value_index` call is a cache hit.  Neither
    the build nor the hit counter moves, keeping the "zero
    constructions on warm start" property testable.
    """
    if index.store is not store:
        raise ValueError("cannot seed the cache with an index of another store")
    index.generation = getattr(store, "generation", 0)
    _cache[store] = index


def cached_value_index(store: MonetXML) -> Optional[ValueIndex]:
    """The cached index if it is current for the store, else ``None``.

    A pure peek — never builds, never patches, moves no counters.  The
    planner uses it to tell "a probe is free" from "a probe would first
    pay a full build".
    """
    cached = _cache.get(store)
    if cached is not None and cached.generation == getattr(store, "generation", 0):
        return cached
    return None


def clear_value_index_cache() -> None:
    """Drop every cached index and reset the counters (test isolation)."""
    global _builds, _hits, _patches
    _cache.clear()
    _builds = 0
    _hits = 0
    _patches = 0


def value_index_cache_info() -> ValueIndexCacheInfo:
    return ValueIndexCacheInfo(
        builds=_builds,
        hits=_hits,
        currsize=len(_cache),
        patches=_patches,
    )
