"""Serialize one store *and* its derived indexes to a single bundle.

This is the warm-start half of the paper's columnar pitch: the Monet
relations, the path summary, the Euler-RMQ LCA machinery and the
full-text term columns all live in dense integer/string columns, so
persisting them is one ``tobytes()`` per column and loading is one
checksum pass plus column rebinds — no XML parse, no Euler tour, no
tokenization.  A column is stored only when reading it back beats
deriving it: the LCA index's range-minimum table is a few whole-array
passes over ``lca/depth`` at bind time, and the ``edges`` and ``ranks``
relation families are the three dense ``store/*`` columns regrouped by
pid (one stable sort, on first access), so the bundle carries neither.
Section layout (all framed by :mod:`repro.snapshot.format`):

======================  ==================================================
``meta``                JSON: counts, root/first OID, case mode, item
                        widths, extras
``summary/parents``     parent pid per pid
``summary/kinds``       1 for an attribute step, 0 for an element step
``summary/labels``      packed step labels in pid order
``store/oid_pid``       dense OID→pid column
``store/oid_parent``    dense OID→parent column (``-1`` at the root;
                        every other parent lies below its child)
``store/oid_rank``      dense OID→rank column
``strings/*``           pid list, run lengths, OID column, packed values
``lca/*``               Euler tour, depths, first/last position per OID
``ft/*``                term dictionary, run lengths, pid/oid columns
``vx/*``                typed value index: pid list, run lengths, OID
                        column, packed values (only when declared)
======================  ==================================================

Integer sections hold ``meta["item_width"]`` (4) bytes per item, the
``lca/*`` ones ``meta["lca_item_width"]`` (4).  A bundle without the
first field is read at 8 bytes per item outside ``lca/*``; one without
the second at 8 inside it, and it also holds a stored range-minimum
table.  Older bundles' ``edges/*``, ``ranks/*`` and ``lca/table|log|
table_lens`` sections are never read: there is one read path.

:func:`read_snapshot` returns a :class:`Snapshot` whose store has the
per-store generation-keyed caches **pre-seeded**
(:func:`repro.core.lca_index.seed_lca_index`,
:func:`repro.fulltext.index.seed_fulltext_index`), so a
:class:`~repro.core.engine.NearestConceptEngine` over it answers its
first query with zero index constructions.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path as FsPath
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import kernels
from ..core.lca_index import LcaIndex, get_lca_index, seed_lca_index
from ..datamodel.errors import StorageError
from ..fulltext.index import (
    FullTextIndex,
    get_fulltext_index,
    seed_fulltext_index,
)
from ..monet.bat import BAT
from ..monet.engine import MonetXML
from ..monet.pathsummary import ColumnarPathSummary, PathSummary
from ..valueindex import ValueIndex, get_value_index, seed_value_index
from .deltas import apply_delta_ops, read_delta_ops
from .format import SnapshotReader, SnapshotWriter

__all__ = ["Snapshot", "write_snapshot", "read_snapshot", "item_widths"]

#: Bytes per item of every integer section this build writes.
_ITEM_WIDTH = 4
#: The dense columns, in the order of ``MonetXML.dense_columns()``.
_STORE_SECTIONS = ("store/oid_pid", "store/oid_parent", "store/oid_rank")


@dataclass
class Snapshot:
    """One loaded bundle: the store plus its ready-made indexes.

    The store's generation-keyed caches are already seeded, so any
    engine, backend or query processor built over ``store`` starts
    warm; :meth:`engine` is the one-call convenience for that.
    """

    store: MonetXML
    lca_index: LcaIndex
    fulltext_index: FullTextIndex
    meta: Dict[str, object] = field(default_factory=dict)
    path: Optional[FsPath] = None
    #: Mutations replayed from the bundle's delta tail on load.
    delta_count: int = 0
    #: Present only for bundles written with declared value indexes.
    value_index: Optional[ValueIndex] = None

    def engine(self, **options):
        """A warm :class:`~repro.core.engine.NearestConceptEngine`."""
        from ..core.engine import NearestConceptEngine

        return NearestConceptEngine.from_snapshot(self, **options)


# ---------------------------------------------------------------------------
# Dense-column soundness (shared by the writer and the reader).
# ---------------------------------------------------------------------------

def _refuse(*checks: Tuple[str, bool, str]) -> None:
    """Raise a :class:`StorageError` naming the first unsound section."""
    for section, sound, fault in checks:
        if not sound:
            raise StorageError(f"section {section!r} holds {fault}")


def _check_dense_columns(
    columns: Sequence[Sequence[int]],
    node_count: int,
    root_index: int,
    first_oid: int,
    path_count: int,
    vectorized: bool,
) -> None:
    """Refuse dense columns that would send a gather astray.

    The ``edges``/``ranks`` families are gathers through these columns
    (:class:`_DenseRegrouping`), so every pid must name a path, the
    root's parent must be ``-1`` and every other parent an earlier OID
    of the store — pre-order, which also makes the root the first OID.
    ``vectorized`` runs the checks as NumPy passes.
    """
    _refuse(*(
        (section, len(column) == node_count,
         "a column whose length is not the node count")
        for section, column in zip(_STORE_SECTIONS, columns)
    ))
    if not 0 <= root_index < node_count:
        raise StorageError("snapshot root OID does not denote a node")
    pids, parents, _ = columns
    _refuse(("store/oid_parent", parents[root_index] == -1,
             "a root whose parent is not -1"))
    if vectorized:
        np = kernels.numpy()
        pids, parents = np.asarray(pids), np.asarray(parents)
        pids_known = ((pids >= 1) & (pids <= path_count)).all()
        below = (parents >= first_oid) & (
            parents < np.arange(first_oid, first_oid + node_count)
        )
        below[root_index] = True
        parents_below = below.all()
    else:
        pids_known = all(1 <= pid <= path_count for pid in pids)
        parents_below = all(
            first_oid <= parent < first_oid + slot
            for slot, parent in enumerate(parents)
            if slot != root_index
        )
    _refuse(
        ("store/oid_pid", pids_known, f"a pid outside [1, {path_count}]"),
        ("store/oid_parent", parents_below,
         "a parent outside the store's span or not below its child"),
    )


# ---------------------------------------------------------------------------
# Writing.
# ---------------------------------------------------------------------------

def write_snapshot(
    store: MonetXML,
    path: Union[str, FsPath],
    *,
    case_sensitive: bool = False,
    value_indexes: Optional[Sequence[str]] = None,
    extra_meta: Optional[Dict[str, object]] = None,
    _writer_byteorder: Optional[int] = None,
) -> int:
    """Write the bundle for ``store`` to ``path``; returns byte count.

    The LCA and full-text indexes are obtained through their
    generation-keyed caches (building them here if the store is cold),
    so snapshotting a warm server costs only serialization.
    ``case_sensitive`` selects which full-text variant is bundled.
    A non-empty ``value_indexes`` declaration list additionally bundles
    the typed value index as ``vx/*`` sections; readers that predate
    those sections ignore them and fall back to scans.
    """
    if getattr(store, "dead_count", 0):
        raise StorageError(
            "store has tombstoned nodes; compact_store() it before writing "
            "a snapshot (bundles are dense pre-order)"
        )
    summary = store.summary
    lca = get_lca_index(store)
    fulltext = get_fulltext_index(store, case_sensitive)

    writer = (
        SnapshotWriter()
        if _writer_byteorder is None
        else SnapshotWriter(_byteorder=_writer_byteorder)
    )
    terms: List[str] = []
    term_lengths: List[int] = []
    term_pids: List[int] = []
    term_oids: List[int] = []
    for term, pids, oids in fulltext.iter_term_columns():
        terms.append(term)
        term_lengths.append(len(oids))
        term_pids.extend(pids)
        term_oids.extend(oids)

    meta: Dict[str, object] = {
        "node_count": store.node_count,
        "root_oid": store.root_oid,
        "first_oid": store.first_oid,
        "path_count": len(summary) - 1,
        "tour_length": lca.tour_length,
        "item_width": _ITEM_WIDTH,
        "lca_item_width": _ITEM_WIDTH,
        "case_sensitive": case_sensitive,
        "indexed_associations": fulltext.indexed_associations,
        "vocabulary_size": fulltext.vocabulary_size,
    }
    value_index: Optional[ValueIndex] = None
    if value_indexes:
        # The cache may hand back an index built under other (or no)
        # declarations — coverage is identical, so only the recorded
        # declaration list must come from this call's arguments.
        value_index = get_value_index(store, declared=tuple(value_indexes))
        meta["value_indexes"] = sorted(set(value_indexes))
        meta["value_index_entries"] = value_index.entry_count
    documents = getattr(store, "documents", None)
    if documents:
        # Persist the live-write registry so a reloaded collection can
        # keep accepting put/delete under the same document names.
        meta["documents"] = {
            name: [low, high] for name, (low, high) in sorted(documents.items())
        }
    if extra_meta:
        meta.update(extra_meta)
    writer.add_json("meta", meta)

    def add_column(name: str, values) -> None:
        writer.add_array(name, values, _ITEM_WIDTH)

    # Columnar path summary: parent pid, step kind and label per pid.
    # (Not path strings — re-parsing them costs O(total path depth)
    # with per-prefix interning, which dominates load on path-heavy
    # stores; one parent-pointer step per path is O(paths).)
    add_column(
        "summary/parents", (summary.parent(pid) for pid in summary.pids())
    )
    add_column(
        "summary/kinds",
        (1 if summary.is_attribute(pid) else 0 for pid in summary.pids()),
    )
    writer.add_strings(
        "summary/labels", (summary.label(pid) for pid in summary.pids())
    )

    # The dense columns are the whole of ``edges`` and ``ranks`` too; a
    # store the reader would refuse is refused here, the same way —
    # in python: ``snapshot build`` need not import NumPy, and the
    # import costs more than the loops (40 vs 12 ms at 84k nodes).
    columns = store.dense_columns()
    _check_dense_columns(
        columns,
        store.node_count,
        store.root_oid - store.first_oid,
        store.first_oid,
        len(summary) - 1,
        vectorized=False,
    )
    for name, column in zip(_STORE_SECTIONS, columns):
        add_column(name, column)

    string_pids: List[int] = []
    string_lengths: List[int] = []
    string_oids: List[int] = []
    string_values: List[str] = []
    for pid in sorted(store.strings):
        relation = store.strings[pid]
        if not relation:
            continue  # a loaded family has no empty runs either
        string_pids.append(pid)
        string_lengths.append(len(relation))
        string_oids.extend(relation.heads)
        string_values.extend(relation.tails)
    add_column("strings/pids", string_pids)
    add_column("strings/lens", string_lengths)
    add_column("strings/oids", string_oids)
    writer.add_strings("strings/values", string_values)

    for name, column in lca.columns().items():
        add_column(f"lca/{name}", column)

    writer.add_strings("ft/terms", terms)
    add_column("ft/lens", term_lengths)
    add_column("ft/pids", term_pids)
    add_column("ft/oids", term_oids)

    if value_index is not None:
        vx_pids: List[int] = []
        vx_lengths: List[int] = []
        vx_oids: List[int] = []
        vx_values: List[str] = []
        for pid, oids, values in value_index.iter_path_columns():
            vx_pids.append(pid)
            vx_lengths.append(len(oids))
            vx_oids.extend(oids)
            vx_values.extend(values)
        add_column("vx/pids", vx_pids)
        add_column("vx/lens", vx_lengths)
        add_column("vx/oids", vx_oids)
        writer.add_strings("vx/values", vx_values)

    return writer.write(path)


# ---------------------------------------------------------------------------
# Reading.
# ---------------------------------------------------------------------------

def _meta_int(meta: Dict[str, object], key: str, default: int) -> int:
    """A meta field as an int, or :class:`StorageError` — never TypeError."""
    value = meta.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise StorageError(
            f"snapshot meta field {key!r} is not an integer: {value!r}"
        )
    return value


def _slice_runs(
    column: Sequence[int], lengths: Sequence[int], section: str
) -> List[Sequence[int]]:
    """Split one flat column back into runs of the recorded lengths."""
    runs: List[Sequence[int]] = []
    position = 0
    for length in lengths:
        runs.append(column[position : position + length])
        position += length
    if position != len(column):
        raise StorageError(
            f"section {section!r} length disagrees with its run lengths "
            f"({position} != {len(column)})"
        )
    return runs


def _item_width(meta: Dict[str, object], key: str = "item_width") -> int:
    """Bytes per item of a group of integer sections (8 when unrecorded)."""
    width = _meta_int(meta, key, 8)
    if width not in (4, 8):
        raise StorageError(f"snapshot meta field {key!r} is {width}")
    return width


class _Runs(NamedTuple):
    """One relation family as pid-grouped flat columns.

    The relation of ``pid`` is ``heads[offsets[pid]:offsets[pid + 1]]``
    beside the same slice of ``tails``; ``pids`` lists, ascending, the
    pids whose run is not empty — the family's keys.
    """

    pids: Sequence[int]
    offsets: Sequence[int]
    heads: Sequence
    tails: Sequence


def _runs(counts: Sequence[int], heads: Sequence, tails: Sequence) -> _Runs:
    """The runs of pid-grouped columns holding ``counts[pid]`` rows per
    pid (a list on the python tier, an array on the vector tier)."""
    if isinstance(counts, list):
        return _Runs(
            array("i", (pid for pid, count in enumerate(counts) if count)),
            array("q", accumulate(counts, initial=0)),
            heads,
            tails,
        )
    import numpy as np

    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return _Runs(np.flatnonzero(counts), offsets, heads, tails)


def _stored_runs(
    pids: Sequence[int],
    lengths: Sequence[int],
    heads: Sequence,
    tails: Sequence,
    section: str,
    path_count: int,
) -> _Runs:
    """The runs of a stored family, refused unless every slice through
    them stays inside its columns: pids ascending inside
    ``[1, path_count]``, lengths ≥ 0 adding up to the columns."""
    _refuse((f"{section}/lens", len(lengths) == len(pids),
             "not one run length per pid"))
    vector = kernels.available()
    if vector:
        np = kernels.numpy()
        pids, lengths = np.asarray(pids), np.asarray(lengths)
        ascending = (pids[1:] > pids[:-1]).all() and (
            (pids >= 1) & (pids <= path_count)
        ).all()
        total = int(lengths.sum()) if (lengths >= 0).all() else -1
    else:
        ascending = all(a < b for a, b in zip(pids, pids[1:])) and all(
            1 <= pid <= path_count for pid in pids
        )
        total = sum(lengths) if all(length >= 0 for length in lengths) else -1
    _refuse(
        (f"{section}/pids", ascending,
         f"a pid outside [1, {path_count}] or out of order"),
        (f"{section}/lens", total == len(heads) == len(tails),
         "run lengths that do not add up to its columns"),
    )
    if vector:
        counts = np.zeros(path_count + 1, dtype=np.int64)
        counts[pids] = lengths
    else:
        counts = [0] * (path_count + 1)
        for pid, length in zip(pids, lengths):
            counts[pid] = length
    return _runs(counts, heads, tails)


def _shifted(order, base: int):
    """``order + base`` — OIDs — on either tier, as int64 (a leaf's OID
    sits in no int32 column, so nothing bounds it to int32)."""
    if isinstance(order, array):
        return array("q", (slot + base for slot in order))
    return order + base


def _taken(column: Sequence[int], order):
    """``column[order]`` on either tier."""
    if isinstance(order, array):
        return array("q", map(column.__getitem__, order))
    import numpy as np

    return np.asarray(column)[order]


class _DenseRegrouping:
    """The ``edges`` and ``ranks`` families of a loaded store, derived.

    Both are the dense columns regrouped by pid (Def. 4's relations,
    one per path), rows in OID order — exactly what a store built in
    memory holds.  One stable pid order of the OID slots serves both:
    ``ranks`` is ``(order + first_oid, rank[order])`` and ``edges`` is
    ``(parent[order], order + first_oid)`` without the root.  It is
    computed on the first access of either family (a bincount and a
    stable argsort on the vector tier, a stable ``sorted`` otherwise)
    over columns :func:`_check_dense_columns` has passed.
    """

    def __init__(
        self,
        columns: Sequence[Sequence[int]],
        first_oid: int,
        root_index: int,
        path_count: int,
    ):
        self._columns = columns
        self._first_oid = first_oid
        self._root_index = root_index
        self._path_count = path_count
        self._order = None

    def _ordered(self):
        """(rows per pid, OID slots in stable pid order)."""
        if self._order is None:
            pids = self._columns[0]
            if kernels.available():
                np = kernels.numpy()
                pids = np.asarray(pids)
                counts = np.bincount(pids, minlength=self._path_count + 1)
                order = np.argsort(pids, kind="stable")
            else:
                counts = [0] * (self._path_count + 1)
                for pid in pids:
                    counts[pid] += 1
                order = array(
                    "i", sorted(range(len(pids)), key=pids.__getitem__)
                )
            self._order = counts, order
        return self._order

    def ranks(self) -> _Runs:
        counts, order = self._ordered()
        return _runs(
            counts,
            _shifted(order, self._first_oid),
            _taken(self._columns[2], order),
        )

    def edges(self) -> _Runs:
        counts, order = self._ordered()
        root = self._root_index
        counts = counts.copy()
        counts[self._columns[0][root]] -= 1
        if isinstance(order, array):
            order = array("i", (slot for slot in order if slot != root))
        else:
            order = order[order != root]
        return _runs(
            counts,
            _taken(self._columns[1], order),
            _shifted(order, self._first_oid),
        )


class _LazyRelationFamily(Mapping):
    """pid → BAT over pid-grouped flat columns, materialized on access.

    A loaded store carries one relation per path — tens of thousands of
    tiny BATs — but a query touches only the handful its hit paths
    name.  The family is its :class:`_Runs` — a per-pid offsets column
    over two flat columns, no per-pid object — obtained from ``runs``
    on first use (deriving ``edges``/``ranks`` costs a sort, and the
    nearest-concept path never asks), and each BAT is built, then
    memoized, on first access.  Read-only by design, like the dicts of
    a store built in memory.
    """

    __slots__ = ("_derive", "_runs", "_cache")

    def __init__(self, runs: Callable[[], _Runs]):
        self._derive = runs
        self._runs: Optional[_Runs] = None
        self._cache: Dict[int, BAT] = {}

    def _bound(self) -> _Runs:
        runs = self._runs
        if runs is None:
            # Racing first readers may both derive; each publishes a
            # whole _Runs, so none sees a half-built one.
            runs = self._runs = self._derive()
        return runs

    def _span(self, pid: object) -> Optional[Tuple[int, int]]:
        offsets = self._bound().offsets
        try:
            pid = operator.index(pid)
        except TypeError:
            return None
        if not 0 < pid < len(offsets) - 1:
            return None
        start, stop = int(offsets[pid]), int(offsets[pid + 1])
        return (start, stop) if start < stop else None

    def __getitem__(self, pid: int) -> BAT:
        cached = self._cache.get(pid)
        if cached is not None:
            return cached
        span = self._span(pid)
        if span is None:
            raise KeyError(pid)  # the Mapping contract
        runs = self._bound()
        heads = runs.heads[span[0] : span[1]]
        tails = runs.tails[span[0] : span[1]]
        relation = BAT.from_columns(
            heads.tolist() if hasattr(heads, "tolist") else list(heads),
            tails.tolist() if hasattr(tails, "tolist") else list(tails),
            copy=False,
        )
        self._cache[pid] = relation
        return relation

    def __iter__(self):
        return iter(self._bound().pids.tolist())

    def __len__(self) -> int:
        return len(self._bound().pids)

    def __contains__(self, pid: object) -> bool:
        return self._span(pid) is not None


def _rebuild_summary(reader: SnapshotReader, width: int) -> PathSummary:
    # Parents must precede children — the invariant that makes a single
    # forward pass reproduce the original pid assignment.
    try:
        return ColumnarPathSummary(
            reader.array("summary/parents", width),
            reader.strings("summary/labels"),
            reader.array("summary/kinds", width),
        )
    except ValueError as exc:
        raise StorageError(f"corrupt path summary: {exc}") from exc


def _rebuild_store(reader: SnapshotReader, meta: Dict[str, object]) -> MonetXML:
    width = _item_width(meta)
    summary = _rebuild_summary(reader, width)
    try:
        node_count = int(meta["node_count"])  # type: ignore[index]
        root_oid = int(meta["root_oid"])  # type: ignore[index]
        first_oid = int(meta["first_oid"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"snapshot meta section is incomplete: {exc}") from exc

    path_count = len(summary) - 1
    root_index = root_oid - first_oid
    columns = tuple(reader.array(section, width) for section in _STORE_SECTIONS)
    _check_dense_columns(
        columns, node_count, root_index, first_oid, path_count,
        vectorized=kernels.available(),
    )
    regrouped = _DenseRegrouping(columns, first_oid, root_index, path_count)
    strings = _stored_runs(
        reader.array("strings/pids", width),
        reader.array("strings/lens", width),
        reader.array("strings/oids", width),
        reader.strings("strings/values"),
        "strings",
        path_count,
    )
    oid_pid, oid_parent, oid_rank = columns
    return MonetXML(
        summary=summary,
        root_oid=root_oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        edges=_LazyRelationFamily(regrouped.edges),
        strings=_LazyRelationFamily(lambda: strings),
        ranks=_LazyRelationFamily(regrouped.ranks),
    )


def _restore_registry(store: MonetXML, meta: Dict[str, object]) -> None:
    documents = meta.get("documents")
    if documents is None:
        return
    if not isinstance(documents, dict):
        raise StorageError("snapshot meta field 'documents' is not an object")
    registry: Dict[str, Tuple[int, int]] = {}
    for name, span in documents.items():
        if (
            not isinstance(span, (list, tuple))
            or len(span) != 2
            or not all(
                isinstance(oid, int) and not isinstance(oid, bool) for oid in span
            )
        ):
            raise StorageError(
                f"snapshot document span for {name!r} is malformed: {span!r}"
            )
        registry[str(name)] = (span[0], span[1])
    store.documents = registry


def _rebuild_lca_index(
    reader: SnapshotReader, store: MonetXML, meta: Dict[str, object]
) -> LcaIndex:
    """Bind the four ``lca/*`` columns as the store's index.

    Every later pass gathers through these columns unchecked, so what
    would send a gather outside its column is refused here, by section.
    """
    width = _item_width(meta, "lca_item_width")
    columns = {
        name: reader.array(f"lca/{name}", width)
        for name in ("tour", "depth", "first", "last")
    }
    tour, depth, first, last = columns.values()
    count, length, base = store.node_count, len(tour), store.first_oid
    _refuse(
        ("lca/tour", length == _meta_int(meta, "tour_length", length) > 0,
         "a tour of another length than the meta section's"),
        ("lca/depth", len(depth) == length, "not one depth per tour step"),
        ("lca/first", len(first) == count, "not one position per node"),
        ("lca/last", len(last) == count, "not one position per node"),
    )
    if kernels.available():
        np = kernels.numpy()
        tour, depth, first, last = map(np.asarray, columns.values())
        in_span = ((tour >= base) & (tour < base + count)).all()
        unit_steps = (np.abs(np.diff(depth)) == 1).all()
        ordered = ((first >= 0) & (first <= last)).all()
        bounded = (last < length).all()
    else:
        in_span = all(base <= oid < base + count for oid in tour)
        unit_steps = all(abs(a - b) == 1 for a, b in zip(depth, depth[1:]))
        ordered = all(0 <= a <= b for a, b in zip(first, last))
        bounded = all(position < length for position in last)
    _refuse(
        ("lca/tour", in_span, "an OID outside the store's span"),
        ("lca/depth", unit_steps, "a step between neighbours that is not 1"),
        ("lca/first", ordered, "a position below 0 or above its 'lca/last'"),
        ("lca/last", bounded, "a position past the end of the tour"),
    )
    return LcaIndex.from_arrays(store, **columns)


def _rebuild_fulltext_index(
    reader: SnapshotReader, store: MonetXML, meta: Dict[str, object]
) -> FullTextIndex:
    width = _item_width(meta)
    terms = reader.strings("ft/terms")
    lengths = reader.array("ft/lens", width)
    if len(terms) != len(lengths):
        raise StorageError("full-text term and length columns disagree")
    pid_runs = _slice_runs(reader.array("ft/pids", width), lengths, "ft/pids")
    oid_runs = _slice_runs(reader.array("ft/oids", width), lengths, "ft/oids")
    return FullTextIndex.from_term_columns(
        store,
        zip(terms, pid_runs, oid_runs),
        case_sensitive=bool(meta.get("case_sensitive", False)),
        indexed_associations=_meta_int(meta, "indexed_associations", 0),
    )


def _rebuild_value_index(
    reader: SnapshotReader, store: MonetXML, meta: Dict[str, object]
) -> Optional[ValueIndex]:
    """The bundled ``vx/*`` value index, or ``None`` for older bundles.

    Pre-PR-9 bundles simply lack the sections — their absence is the
    backward-compat path, not an error — and declared-but-missing
    columns never arise because the writer emits both or neither.
    """
    if "vx/pids" not in reader:
        return None
    width = _item_width(meta)
    pids = reader.array("vx/pids", width)
    lengths = reader.array("vx/lens", width)
    if len(pids) != len(lengths):
        raise StorageError("value-index pid and length columns disagree")
    oid_runs = _slice_runs(reader.array("vx/oids", width), lengths, "vx/oids")
    value_runs = _slice_runs(reader.strings("vx/values"), lengths, "vx/values")
    declared = meta.get("value_indexes", [])
    if not isinstance(declared, list) or not all(
        isinstance(pattern, str) for pattern in declared
    ):
        raise StorageError(
            "snapshot meta field 'value_indexes' is not a list of strings"
        )
    return ValueIndex.from_path_columns(
        store,
        zip(pids, oid_runs, value_runs),
        declared=declared,
    )


def item_widths(reader: SnapshotReader) -> Dict[str, int]:
    """Bytes per item of every integer-column section of a bundle (the
    module docstring's layout table as code: the container does not
    type its payloads; string tables and JSON have no entry)."""
    meta = reader.json("meta")
    fields = meta if isinstance(meta, dict) else {}
    width = fields.get("item_width", 8)
    lca_width = fields.get("lca_item_width", 8)
    return {
        name: lca_width if name.startswith("lca/") else width
        for name in reader.section_names()
        if "/" in name
        and not name.startswith("delta/")
        and name.rpartition("/")[2] not in ("labels", "values", "terms")
    }


def read_snapshot(
    source: Union[str, FsPath, bytes, bytearray, memoryview],
    *,
    use_mmap: bool = False,
    tolerate_torn_tail: bool = False,
) -> Snapshot:
    """Load a bundle and seed the store's derived-index caches.

    ``source`` is a file path (optionally ``mmap``-backed) or an
    in-memory buffer.  On return, :func:`~repro.core.lca_index.get_lca_index`
    and :func:`~repro.fulltext.index.get_fulltext_index` answer from
    the deserialized indexes — zero constructions — for any engine
    bound to the returned store.

    Any ``delta/*`` sections (live mutations appended after the base
    build, see :mod:`repro.snapshot.deltas`) are replayed over the
    store in sequence order before returning; the seeded full-text
    index rolls forward through the mutation journal on first use.
    ``tolerate_torn_tail`` additionally forgives a torn final section
    left by an interrupted delta append — that mutation was never
    acknowledged — and is the mode write-capable openers should use.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        reader = SnapshotReader(source, tolerate_torn_tail=tolerate_torn_tail)
        path: Optional[FsPath] = None
    else:
        path = FsPath(source)
        reader = SnapshotReader.open(
            path, use_mmap=use_mmap, tolerate_torn_tail=tolerate_torn_tail
        )
    meta = reader.json("meta")
    if not isinstance(meta, dict):
        raise StorageError("snapshot meta section is not a JSON object")
    store = _rebuild_store(reader, meta)
    _restore_registry(store, meta)
    lca = _rebuild_lca_index(reader, store, meta)
    fulltext = _rebuild_fulltext_index(reader, store, meta)
    value_index = _rebuild_value_index(reader, store, meta)
    seed_lca_index(store, lca)
    seed_fulltext_index(store, fulltext)
    if value_index is not None:
        seed_value_index(store, value_index)
    deltas = read_delta_ops(reader)
    if deltas:
        apply_delta_ops(store, deltas)
    return Snapshot(
        store=store,
        lca_index=lca,
        fulltext_index=fulltext,
        meta=meta,
        path=path,
        delta_count=len(deltas),
        value_index=value_index,
    )
