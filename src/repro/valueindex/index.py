"""Typed value indexes: per-path equality and range over associations.

The index covers exactly the search surface of the ``=`` predicate's
scan semantics (:meth:`QueryProcessor._condition_closure`): every
(OID, string) association of every string relation — attribute values
*and* character data.  A probe therefore returns byte-identical node
sets to the full scan, which is what lets the planner swap one for the
other without changing answers.

Layout mirrors :mod:`repro.fulltext.index`: per-path parallel columns
(OIDs ascending, values) are the persisted state, and the probe
structures are sorted columns derived from them lazily, so snapshot
loads stay O(bytes).  A probe (:class:`_Probe`) over a set of entries
is three sorted (key, OID) columns — every value in string order, the
numeric readings in number order, and the values without a numeric
reading in string order — each answered by ``searchsorted``.  One
probe spans all paths (equality, comparisons and their estimates) and
each path has its own for pid-restricted lookups.

The index of a store is one of its maintained indexes
(:data:`VALUE_INDEXES`, a :class:`~repro.monet.engine.DerivedCache`
like the LCA and full-text indexes' registries): :func:`get_value_index`
reuses, patches forward over the mutation journal
(:meth:`ValueIndex.patched`), or builds.  A patch keeps every probe
column already derived current — a put merges its few entries in with
``searchsorted``, a delete masks its OID span out — so existing values
are never re-sorted or re-parsed, and compaction carries the index
over with one elementwise OID map (:meth:`ValueIndex.carried`).
"""

from __future__ import annotations

import math
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..kernels.lca import sorted_unique
from ..monet.engine import DerivedCache, MonetXML

__all__ = [
    "ValueIndex",
    "VALUE_INDEXES",
    "get_value_index",
    "cached_value_index",
    "clear_value_index_cache",
    "value_index_cache_info",
]

_RANGE_OPS = ("<", "<=", ">", ">=")


def _numeric(value: str) -> Optional[float]:
    """The numeric reading of a value, or ``None`` if it has none."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _object_column(values: Sequence[str]) -> np.ndarray:
    """A NumPy object column of python strings (compared as ``str``)."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


Columns = Tuple[np.ndarray, np.ndarray]  # (OIDs int64, values object)


class _Sorted(NamedTuple):
    """Parallel columns sorted by key: one probe structure."""

    keys: np.ndarray
    oids: np.ndarray

    def span(self, op: str, key) -> Tuple[int, int]:
        """The [start, stop) positions of the entries whose key ``k``
        satisfies ``k <op> key`` (``op`` a range operator or ``=``)."""
        keys = self.keys
        if op == "=":
            return (
                int(np.searchsorted(keys, key, "left")),
                int(np.searchsorted(keys, key, "right")),
            )
        if op == "<":
            return 0, int(np.searchsorted(keys, key, "left"))
        if op == "<=":
            return 0, int(np.searchsorted(keys, key, "right"))
        if op == ">":
            return int(np.searchsorted(keys, key, "right")), len(keys)
        return int(np.searchsorted(keys, key, "left")), len(keys)

    def merged(self, other: "_Sorted") -> "_Sorted":
        """These columns plus a few sorted entries, each inserted after
        its equal keys."""
        if not len(other.keys):
            return self
        keys, oids = other
        at = np.searchsorted(self.keys, keys, "right")
        return _Sorted(
            np.insert(self.keys, at, keys), np.insert(self.oids, at, oids)
        )

    def without(self, low: int, high: int) -> "_Sorted":
        """These columns without the entries whose OID is in
        ``[low, high]``."""
        keep = (self.oids < low) | (self.oids > high)
        if keep.all():
            return self
        return _Sorted(self.keys[keep], self.oids[keep])

    def renumbered(
        self, renumbered: Callable[[np.ndarray], np.ndarray]
    ) -> "_Sorted":
        return _Sorted(self.keys, renumbered(self.oids))


def _sorted(oids: np.ndarray, keys: np.ndarray) -> _Sorted:
    order = np.argsort(keys, kind="stable")
    return _Sorted(keys[order], oids[order])


def _numeric_part(by_value: _Sorted) -> Tuple[_Sorted, _Sorted]:
    """(numeric readings, values without one) of value-sorted columns.

    A NaN reading belongs to neither: under
    :func:`~repro.query.ast.compare_values` every numeric comparison
    with NaN is false, so it matches no numeric range, while against a
    non-numeric literal it compares as a string through the
    all-values column.  The string-only column keeps value order.
    """
    readings = [_numeric(value) for value in by_value.keys.tolist()]
    has_number = np.fromiter(
        (reading is not None for reading in readings), bool, len(readings)
    )
    numbers = np.fromiter(
        (reading for reading in readings if reading is not None), float
    )
    number_oids = by_value.oids[has_number]
    real = ~np.isnan(numbers)
    return (
        _sorted(number_oids[real], numbers[real]),
        _Sorted(by_value.keys[~has_number], by_value.oids[~has_number]),
    )


#: The derived parts of a probe, ``None`` until first use: the
#: all-values column, and the (numeric readings, values without one)
#: pair.
Parts = Tuple[Optional[_Sorted], Optional[Tuple[_Sorted, _Sorted]]]

_UNBUILT: Parts = (None, None)


def _patched(
    parts: Parts,
    added: Optional[Columns] = None,
    span: Optional[Tuple[int, int]] = None,
) -> Parts:
    """``parts`` with ``added`` entries merged in and the OIDs in
    ``span`` masked out; parts not yet derived stay so."""
    by_value, typed = parts
    if span is not None:
        if by_value is not None:
            by_value = by_value.without(*span)
        if typed is not None:
            typed = tuple(part.without(*span) for part in typed)
    if added is not None:
        fresh = _sorted(*added)
        if by_value is not None:
            by_value = by_value.merged(fresh)
        if typed is not None:
            typed = tuple(
                part.merged(new)
                for part, new in zip(typed, _numeric_part(fresh))
            )
    return by_value, typed


def _renumbered(
    parts: Parts, renumbered: Callable[[np.ndarray], np.ndarray]
) -> Parts:
    by_value, typed = parts
    return (
        None if by_value is None else by_value.renumbered(renumbered),
        None
        if typed is None
        else tuple(part.renumbered(renumbered) for part in typed),
    )


class _Probe:
    """The sorted probe columns of one entry set, derived lazily.

    ``by_value`` is built from ``source`` (a callable returning the
    entry set's OID and value columns) on first use, and the numeric /
    string-only pair from ``by_value`` on the first numeric literal.
    A patched or renumbered probe starts from the parts already derived
    (:func:`_patched`, :func:`_renumbered`) and derives the others from
    its own source, so nothing built is ever rebuilt.
    """

    __slots__ = ("_source", "_by_value", "_typed")

    def __init__(
        self, source: Callable[[], Columns], parts: Parts = _UNBUILT
    ):
        self._source = source
        self._by_value, self._typed = parts

    @property
    def parts(self) -> Parts:
        return self._by_value, self._typed

    @property
    def by_value(self) -> _Sorted:
        built = self._by_value
        if built is None:
            built = self._by_value = _sorted(*self._source())
        return built

    @property
    def typed(self) -> Tuple[_Sorted, _Sorted]:
        """(numeric readings, values without one), both sorted."""
        built = self._typed
        if built is None:
            built = self._typed = _numeric_part(self.by_value)
        return built

    def select(self, op: str, literal: str) -> Iterator[np.ndarray]:
        """OID slices of the entries whose value satisfies
        ``value <op> literal`` under the typed rule (``=`` exact)."""
        number = None if op == "=" else _numeric(literal)
        if number is None:
            start, stop = self.by_value.span(op, literal)
            yield self.by_value.oids[start:stop]
            return
        numeric, strings = self.typed
        if not math.isnan(number):
            start, stop = numeric.span(op, number)
            yield numeric.oids[start:stop]
        start, stop = strings.span(op, literal)
        yield strings.oids[start:stop]

    def count(self, op: str, literal: str) -> int:
        """Entries :meth:`select` would return (an upper bound on OIDs)."""
        return sum(len(oids) for oids in self.select(op, literal))


def _path_columns(oids, values) -> Columns:
    return np.asarray(oids, dtype=np.int64), _object_column(values)


def _all_columns(paths: Dict[int, "_PathValues"]) -> Columns:
    """The entry set of every path, as one pair of columns."""
    entries = list(paths.values())
    if not entries:
        return np.empty(0, dtype=np.int64), _object_column([])
    return (
        np.concatenate(
            [np.asarray(entry.oids, dtype=np.int64) for entry in entries]
        ),
        _object_column([value for entry in entries for value in entry.values]),
    )


class _PathValues:
    """One path's columns: OIDs ascending, their values, and the path's
    own probe (derived only for pid-restricted lookups)."""

    __slots__ = ("oids", "values", "probe")

    def __init__(
        self,
        oids: Sequence[int],
        values: Sequence[str],
        parts: Parts = _UNBUILT,
    ):
        self.oids = oids
        self.values = values
        self.probe = _Probe(partial(_path_columns, oids, values), parts)

    def extended(self, oids: np.ndarray, values: List[str]) -> "_PathValues":
        """This path plus entries whose OIDs follow all of its own."""
        return _PathValues(
            np.concatenate([np.asarray(self.oids, dtype=np.int64), oids]),
            [*self.values, *values],
            _patched(self.probe.parts, added=_path_columns(oids, values)),
        )

    def without(self, low: int, high: int) -> Optional["_PathValues"]:
        """This path without the OIDs in ``[low, high]`` (``None`` when
        nothing is left); the OIDs ascend, so they are one slice."""
        oids = np.asarray(self.oids, dtype=np.int64)
        start, stop = np.searchsorted(oids, (low, high + 1)).tolist()
        if start == stop:
            return self
        if stop - start == len(oids):
            return None
        return _PathValues(
            np.concatenate([oids[:start], oids[stop:]]),
            [*self.values[:start], *self.values[stop:]],
            _patched(self.probe.parts, span=(low, high)),
        )

    def renumbered(
        self, renumbered: Callable[[np.ndarray], np.ndarray]
    ) -> "_PathValues":
        return _PathValues(
            renumbered(np.asarray(self.oids, dtype=np.int64)),
            self.values,
            _renumbered(self.probe.parts, renumbered),
        )

    def __len__(self) -> int:
        return len(self.oids)


class ValueIndex:
    """value → OIDs over every string relation, grouped by path.

    The OIDs recorded are the association OIDs — for character data the
    ``cdata`` node, for an attribute value the owning element — exactly
    the heads of the rows whose stored string is ``==`` the probe, so an
    equality probe reproduces the scan closure of the ``=`` predicate
    verbatim.

    ``declared`` carries the per-collection index declarations (path
    pattern strings); the in-memory index always covers every path —
    declarations gate snapshot persistence and planner eagerness, not
    coverage, so probe answers never depend on what was declared.
    """

    def __init__(self, store: MonetXML, declared: Sequence[str] = ()):
        strings = store.string_runs()
        paths: Dict[int, _PathValues] = {}
        for pid in strings.pids.tolist():
            oids, values = strings.run(pid)
            paths[pid] = _PathValues(np.array(oids, dtype=np.int64), values)
        self._bind(store, declared, paths)

    def _bind(
        self,
        store: MonetXML,
        declared: Sequence[str],
        paths: Dict[int, _PathValues],
        parts: Parts = _UNBUILT,
        generation: Optional[int] = None,
    ) -> None:
        self.store = store
        self.declared: Tuple[str, ...] = tuple(declared)
        #: Store generation this index answers for.
        self.generation = (
            getattr(store, "generation", 0)
            if generation is None
            else generation
        )
        self._paths = paths
        self._entry_count = sum(len(entry) for entry in paths.values())
        #: The all-path probe: equality, comparisons and their estimates.
        self._probe = _Probe(partial(_all_columns, paths), parts)

    # -- persistence (the snapshot store's contract) --------------------
    def iter_path_columns(
        self,
    ) -> Iterator[Tuple[int, Sequence[int], Sequence[str]]]:
        """(pid, OID column, value column) per path, in pid order.

        The snapshot writer serializes exactly these columns; the probe
        columns are derivable and not part of the on-disk contract.
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
        untouched); probe columns derive lazily on first use.
        """
        self = cls.__new__(cls)
        self._bind(
            store,
            declared,
            {
                pid: _PathValues(oids, values)
                for pid, oids, values in path_columns
            },
        )
        return self

    # -- incremental maintenance ----------------------------------------
    def patched(self, records: Iterable[object]) -> "ValueIndex":
        """A copy of this index rolled forward over mutation records.

        A put's ``added_strings`` are appended to their paths and merged
        into every probe column already derived; a delete cuts its OID
        span out of the paths its ``removed_strings`` name (one
        ``searchsorted`` each, the OIDs ascend) and masks it out of the
        derived probe columns.  The
        receiver is left untouched — the copy shares the columns of
        unaffected paths — so racing readers can each patch the cached
        index and install their copy without observing a half-patched
        structure.
        """
        paths = dict(self._paths)
        parts = self._probe.parts
        generation = self.generation
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
                for pid, (oids, values) in pending.items():
                    new_oids = np.array(oids, dtype=np.int64)
                    entry = paths.get(pid)
                    paths[pid] = (
                        _PathValues(new_oids, values)
                        if entry is None
                        else entry.extended(new_oids, values)
                    )
                if record.added_strings:
                    _pids, oids, values = zip(*record.added_strings)
                    parts = _patched(parts, added=_path_columns(oids, values))
            elif kind == "delete":
                low, high = record.span
                removed = {pid for pid, _oid, _value in record.removed_strings}
                for pid in removed:
                    kept = paths[pid].without(low, high)
                    if kept is None:
                        del paths[pid]
                    else:
                        paths[pid] = kept
                if record.removed_strings:
                    parts = _patched(parts, span=(low, high))
            else:  # pragma: no cover - journal only holds put/delete
                raise ValueError(f"unknown mutation record {record!r}")
            generation = record.to_generation
        clone = ValueIndex.__new__(ValueIndex)
        clone._bind(self.store, self.declared, paths, parts, generation)
        return clone

    def carried(
        self, store: MonetXML, renumbered: Callable[[np.ndarray], np.ndarray]
    ) -> "ValueIndex":
        """This index carried over to ``store``, the compaction of its own.

        Compaction's OID map is monotone, so every column keeps its
        order: the OIDs go through ``renumbered`` elementwise and the
        values and derived keys are shared.
        """
        paths = {
            pid: entry.renumbered(renumbered)
            for pid, entry in self._paths.items()
        }
        clone = ValueIndex.__new__(ValueIndex)
        clone._bind(
            store,
            self.declared,
            paths,
            _renumbered(self._probe.parts, renumbered),
        )
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
        """Exact distinct-OID count of an equality probe."""
        (oids,) = self._probe.select("=", value)
        return len(sorted_unique(oids))

    def estimate_cmp(self, op: str, literal: str) -> int:
        """Entry count a range probe would touch (an upper bound on OIDs).

        ``searchsorted`` counts over the all-path probe, without
        materializing the result set; duplicate OIDs across paths make
        this an upper bound on the distinct-OID answer.
        """
        if op not in _RANGE_OPS:
            raise ValueError(f"unknown range operator {op!r}")
        return self._probe.count(op, literal)

    # -- probes ----------------------------------------------------------
    def _probes(self, pids: Optional[Iterable[int]]) -> List[_Probe]:
        if pids is None:
            return [self._probe]
        return [self._paths[pid].probe for pid in pids if pid in self._paths]

    @staticmethod
    def _oid_set(slices: Iterable[np.ndarray]) -> FrozenSet[int]:
        hits: set = set()
        for oids in slices:
            hits.update(oids.tolist())
        return frozenset(hits)

    def lookup_eq(
        self, value: str, pids: Optional[Iterable[int]] = None
    ) -> FrozenSet[int]:
        """OIDs carrying an association exactly equal to ``value``.

        With ``pids`` the probe is restricted to those paths (the typed
        per-path form); without, it spans every string relation — the
        same node set the ``=`` scan closure produces.
        """
        return self._oid_set(
            oids
            for probe in self._probes(pids)
            for oids in probe.select("=", value)
        )

    def lookup_cmp(
        self, op: str, literal: str, pids: Optional[Iterable[int]] = None
    ) -> FrozenSet[int]:
        """OIDs whose value satisfies ``value <op> literal`` (typed rule).

        Implements :func:`repro.query.ast.compare_values` exactly: a
        numeric literal compares numerically against numeric values and
        lexicographically against the rest; a non-numeric literal
        compares everything lexicographically; a NaN on either side of
        a numeric comparison matches nothing.  The scan closure of a
        range predicate and this probe therefore agree byte-for-byte.
        """
        if op not in _RANGE_OPS:
            raise ValueError(f"unknown range operator {op!r}")
        return self._oid_set(
            oids
            for probe in self._probes(pids)
            for oids in probe.select(op, literal)
        )

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
        without a numeric reading, and NaN readings, never match; so
        does nothing against a NaN bound).  ``None`` bounds are open
        ends.
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
            if any(
                key is not None and math.isnan(key)
                for key in (low_key, high_key)
            ):
                return frozenset()
        else:
            low_key, high_key = low, high
        slices = []
        for probe in self._probes(pids):
            column = probe.typed[0] if numeric else probe.by_value
            start = 0 if low_key is None else column.span(">=", low_key)[0]
            stop = (
                len(column.keys)
                if high_key is None
                else column.span("<=", high_key)[1]
            )
            slices.append(column.oids[start:stop])
        return self._oid_set(slices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueIndex(paths={len(self._paths)}, "
            f"entries={self._entry_count}, gen={self.generation})"
        )


# ---------------------------------------------------------------------------
# The per-store registry (repro.monet.engine.DerivedCache).
# ---------------------------------------------------------------------------

#: The value index of every store.  Values are matched exactly (plain
#: ``==`` on the stored string), so there is no case-mode key.
VALUE_INDEXES = DerivedCache(
    "valueindex",
    lambda store, _key, declared=(): ValueIndex(store, declared=declared),
)


def get_value_index(
    store: MonetXML, declared: Sequence[str] = ()
) -> ValueIndex:
    """The current :class:`ValueIndex` of a store, built on first use
    (recording ``declared`` when this call builds it)."""
    return VALUE_INDEXES.get(store, None, declared)


cached_value_index = VALUE_INDEXES.peek
clear_value_index_cache = VALUE_INDEXES.clear
value_index_cache_info = VALUE_INDEXES.info
