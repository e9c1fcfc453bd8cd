"""Serialize one store *and* its derived indexes to a single bundle.

This is the warm-start half of the paper's columnar pitch: the Monet
relations, the path summary and the full-text term columns all live in
dense integer/string columns, so persisting them is one ``tobytes()``
per column and loading is one checksum pass plus column rebinds — no
XML parse, no tokenization.  A column is stored only when reading it
back beats deriving it: the LCA index is one depth column per OID,
derived from ``store/oid_parent`` in a few whole-array passes while the
loader checks that column (its range-minimum table is derived when the
kernels bind), and the ``edges`` family's runs are the dense
``store/*`` columns regrouped by pid (one stable sort, on first use),
so the bundle carries neither.
Section layout (all framed by :mod:`repro.snapshot.format`):

======================  ==================================================
``meta``                JSON: counts, root/first OID, case mode, item
                        widths, extras
``summary/parents``     parent pid per pid
``summary/kinds``       1 for an attribute step, 0 for an element step
``summary/labels``      packed step labels in pid order
``store/oid_pid``       dense OID→pid column
``store/oid_parent``    dense OID→parent column (``-1`` at the root;
                        pre-order: every node lies in its parent's
                        contiguous subtree run)
``store/oid_rank``      dense OID→rank column
``strings/*``           pid list, run lengths, OID column, packed values
``ft/*``                term dictionary, run lengths, pid/oid columns
``vx/*``                typed value index: pid list, run lengths, OID
                        column, packed values (only when declared)
======================  ==================================================

Integer sections hold ``meta["item_width"]`` (4) bytes per item; a
bundle without the field is read at 8.  Older bundles' ``edges/*``,
``ranks/*`` and ``lca/*`` sections, and the meta fields that sized
the latter, are never read: there is one read path.

:func:`read_snapshot` returns a :class:`Snapshot` whose store has its
maintained indexes **pre-seeded** (each through its
:class:`~repro.monet.engine.DerivedCache` registry), so a
:class:`~repro.core.engine.NearestConceptEngine` over it answers its
first query with zero index constructions; :func:`carry_indexes` hands
a compacted store every registered index of its predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.lca_index import LCA_INDEXES, LcaIndex, tree_depths
from ..datamodel.errors import StorageError
from ..fulltext.index import FULLTEXT_INDEXES, FullTextIndex, get_fulltext_index
from ..monet.engine import MonetXML, derived_caches, int32_column, joined_column
from ..monet.pathsummary import PathSummary
from ..monet.relations import Runs, group_runs
from ..valueindex import VALUE_INDEXES, ValueIndex, get_value_index
from .deltas import apply_delta_ops, read_delta_ops
from .format import SnapshotReader, SnapshotWriter

__all__ = [
    "Snapshot",
    "carry_indexes",
    "write_snapshot",
    "read_snapshot",
    "item_widths",
]

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
) -> np.ndarray:
    """Refuse dense columns that would send a gather astray; returns
    the store's depth column (:func:`~repro.core.lca_index.tree_depths`).

    The edge runs are gathers through these columns
    (:func:`~repro.monet.relations.dense_edges`), so every pid must
    name a path, the root's parent must be ``-1`` and every other parent
    an earlier OID of the store, which also makes the root the first
    OID.  The LCA index answers by pre-order range minimums, so the
    store must be in pre-order too: every node lies in its parent's
    contiguous subtree run.  The writer runs the same check, so it
    never writes a bundle the reader would refuse.
    """
    _refuse(*(
        (section, len(column) == node_count,
         "a column whose length is not the node count")
        for section, column in zip(_STORE_SECTIONS, columns)
    ))
    if not 0 <= root_index < node_count:
        raise StorageError("snapshot root OID does not denote a node")
    pids, parents = np.asarray(columns[0]), np.asarray(columns[1])
    _refuse(("store/oid_parent", parents[root_index] == -1,
             "a root whose parent is not -1"))
    below = (parents >= first_oid) & (
        parents < np.arange(first_oid, first_oid + node_count)
    )
    below[root_index] = True
    _refuse(
        ("store/oid_pid", ((pids >= 1) & (pids <= path_count)).all(),
         f"a pid outside [1, {path_count}]"),
        ("store/oid_parent", below.all(),
         "a parent outside the store's span or not below its child"),
    )
    parent_slots = parents.astype(np.int64) - first_oid
    depths = tree_depths(parent_slots, root_index)
    # In pre-order a node is at most one deeper than the node before
    # it, and it comes before the next node as shallow as its parent
    # (so no shallower node parts it from its parent either).
    level = depths if depths.max() >= 1 << 15 else depths.astype(np.int16)
    by_depth = np.argsort(level, kind="stable")
    following = np.full(node_count, node_count)
    same = level[by_depth[1:]] == level[by_depth[:-1]]
    following[by_depth[:-1][same]] = by_depth[1:][same]
    slots = np.arange(1, node_count)
    _refuse((
        "store/oid_parent",
        (depths[1:] <= depths[:-1] + 1).all()
        and (slots < following[parent_slots[1:]]).all(),
        "a node outside its parent's subtree run (not pre-order)",
    ))
    return depths


# ---------------------------------------------------------------------------
# Writing.
# ---------------------------------------------------------------------------

def carry_indexes(
    store: MonetXML,
    compacted: MonetXML,
    renumbered: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Seed ``compacted`` with ``store``'s indexes, carried over.

    ``compacted`` and ``renumbered`` are what
    :func:`~repro.monet.mutate.compact_store` returned for ``store``.
    Each registered index ``store`` has is brought current through its
    journal and carried through the monotone OID map
    (:meth:`~repro.monet.engine.DerivedCache.carry`), so neither the
    compacted store's first reads nor its bundle (:func:`write_snapshot`)
    build one.  ``store`` is retired: it lets go of its indexes, the
    only references back to it that it owns, so it is freed as soon as
    its last holder drops it rather than at the next full collection.
    """
    for cache in derived_caches():
        cache.carry(store, compacted, renumbered)
    store.derived.clear()


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

    The full-text index is obtained through its generation-keyed cache
    (building it here if the store is cold),
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
    fulltext = get_fulltext_index(store, case_sensitive)

    writer = (
        SnapshotWriter()
        if _writer_byteorder is None
        else SnapshotWriter(_byteorder=_writer_byteorder)
    )
    terms: List[str] = []
    term_lengths: List[int] = []
    term_pids: List[Sequence[int]] = []
    term_oids: List[Sequence[int]] = []
    for term, pids, oids in fulltext.iter_term_columns():
        terms.append(term)
        term_lengths.append(len(oids))
        term_pids.append(pids)
        term_oids.append(oids)

    meta: Dict[str, object] = {
        "node_count": store.node_count,
        "root_oid": store.root_oid,
        "first_oid": store.first_oid,
        "path_count": len(summary) - 1,
        "item_width": _ITEM_WIDTH,
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
        writer.add_array(name, int32_column(values), _ITEM_WIDTH)

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

    # The dense columns are the whole of the edge runs too; a
    # store the reader would refuse is refused here, the same way.
    columns = store.dense_columns()
    _check_dense_columns(
        columns,
        store.node_count,
        store.root_oid - store.first_oid,
        store.first_oid,
        len(summary) - 1,
    )
    for name, column in zip(_STORE_SECTIONS, columns):
        add_column(name, column)

    strings = store.string_runs()
    add_column("strings/pids", strings.pids)
    add_column("strings/lens", strings.lengths())
    add_column("strings/oids", strings.heads)
    writer.add_strings("strings/values", strings.tails)

    writer.add_strings("ft/terms", terms)
    add_column("ft/lens", term_lengths)
    add_column("ft/pids", joined_column(term_pids))
    add_column("ft/oids", joined_column(term_oids))

    if value_index is not None:
        vx_pids: List[int] = []
        vx_lengths: List[int] = []
        vx_oids: List[Sequence[int]] = []
        vx_values: List[str] = []
        for pid, oids, values in value_index.iter_path_columns():
            vx_pids.append(pid)
            vx_lengths.append(len(oids))
            vx_oids.append(oids)
            vx_values.extend(values)
        add_column("vx/pids", vx_pids)
        add_column("vx/lens", vx_lengths)
        add_column("vx/oids", joined_column(vx_oids))
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


def _stored_runs(
    pids: Sequence[int],
    lengths: Sequence[int],
    heads: Sequence,
    tails: Sequence,
    section: str,
    path_count: int,
) -> Runs:
    """The runs of a stored family, refused unless every slice through
    them stays inside its columns: pids ascending inside
    ``[1, path_count]``, lengths ≥ 0 adding up to the columns."""
    _refuse((f"{section}/lens", len(lengths) == len(pids),
             "not one run length per pid"))
    pids, lengths = np.asarray(pids), np.asarray(lengths)
    ascending = (pids[1:] > pids[:-1]).all() and (
        (pids >= 1) & (pids <= path_count)
    ).all()
    total = int(lengths.sum()) if (lengths >= 0).all() else -1
    _refuse(
        (f"{section}/pids", ascending,
         f"a pid outside [1, {path_count}] or out of order"),
        (f"{section}/lens", total == len(heads) == len(tails),
         "run lengths that do not add up to its columns"),
    )
    counts = np.zeros(path_count + 1, dtype=np.int64)
    counts[pids] = lengths
    return group_runs(counts, heads, tails)


def _rebuild_summary(reader: SnapshotReader, width: int) -> PathSummary:
    # Parents must precede children — the invariant that makes a single
    # forward pass reproduce the original pid assignment.
    try:
        return PathSummary(
            reader.array("summary/parents", width),
            reader.strings("summary/labels"),
            reader.array("summary/kinds", width),
        )
    except ValueError as exc:
        raise StorageError(f"corrupt path summary: {exc}") from exc


def _rebuild_store(
    reader: SnapshotReader, meta: Dict[str, object]
) -> Tuple[MonetXML, LcaIndex]:
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
    depths = _check_dense_columns(
        columns, node_count, root_index, first_oid, path_count
    )
    strings = _stored_runs(
        reader.array("strings/pids", width),
        reader.array("strings/lens", width),
        reader.array("strings/oids", width),
        reader.strings("strings/values"),
        "strings",
        path_count,
    )
    oid_pid, oid_parent, oid_rank = columns
    store = MonetXML(
        summary=summary,
        root_oid=root_oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        strings=strings,
    )
    return store, LcaIndex.from_depths(store, depths)


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
    width = meta.get("item_width", 8) if isinstance(meta, dict) else 8
    return {
        name: width
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
    in-memory buffer.  On return, :func:`~repro.core.lca_index.get_lca_index`,
    :func:`~repro.fulltext.index.get_fulltext_index` and (for a bundle
    with ``vx/*`` sections) :func:`~repro.valueindex.get_value_index`
    answer from the deserialized indexes — zero constructions — for any
    engine bound to the returned store.

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
    store, lca = _rebuild_store(reader, meta)
    _restore_registry(store, meta)
    fulltext = _rebuild_fulltext_index(reader, store, meta)
    value_index = _rebuild_value_index(reader, store, meta)
    for cache, index in (
        (LCA_INDEXES, lca),
        (FULLTEXT_INDEXES, fulltext),
        (VALUE_INDEXES, value_index),
    ):
        if index is not None:
            cache.seed(store, index)
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
