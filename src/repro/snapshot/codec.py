"""Serialize one store *and* its derived indexes to a single bundle.

This is the warm-start half of the paper's columnar pitch: the Monet
relations, the path summary, the Euler-RMQ LCA machinery and the
full-text term columns all live in dense integer/string columns, so
persisting them is one ``tobytes()`` per column and loading is one
checksum pass plus column rebinds — no XML parse, no Euler tour, no
tokenization.  A column is stored only when reading it back beats
deriving it: the LCA index's range-minimum table is a few whole-array
passes over ``lca/depth`` at bind time, so the bundle carries the
index's four O(n) columns and no table.  Section layout (all framed by
:mod:`repro.snapshot.format`):

======================  ==================================================
``meta``                JSON: counts, root/first OID, case mode, extras
``summary/paths``       packed path strings in pid order
``store/oid_pid``       dense OID→pid column
``store/oid_parent``    dense OID→parent column (``-1`` at the root)
``store/oid_rank``      dense OID→rank column
``edges|ranks/*``       per-family: pid list, run lengths, head, tail
``strings/*``           pid list, run lengths, OID column, packed values
``lca/*``               Euler tour, depths, first/last position per OID,
                        ``meta["lca_item_width"]`` (4) bytes per item;
                        a bundle without the field holds int64 columns
                        and a stored table that is no longer read
``ft/*``                term dictionary, run lengths, pid/oid columns
``vx/*``                typed value index: pid list, run lengths, OID
                        column, packed values (only when declared)
======================  ==================================================

:func:`read_snapshot` returns a :class:`Snapshot` whose store has the
per-store generation-keyed caches **pre-seeded**
(:func:`repro.core.lca_index.seed_lca_index`,
:func:`repro.fulltext.index.seed_fulltext_index`), so a
:class:`~repro.core.engine.NearestConceptEngine` over it answers its
first query with zero index constructions.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Sequence, Tuple, Union

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

#: Bytes per item of the ``lca/*`` columns this build writes.
_LCA_ITEM_WIDTH = 4


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
# Writing.
# ---------------------------------------------------------------------------

def _add_relation_family(
    writer: SnapshotWriter, name: str, relations: Dict[int, BAT]
) -> None:
    """Serialize one int×int relation family as four flat columns."""
    pids: List[int] = []
    lengths: List[int] = []
    heads: List[int] = []
    tails: List[int] = []
    for pid in sorted(relations):
        relation = relations[pid]
        pids.append(pid)
        lengths.append(len(relation))
        heads.extend(relation.heads)
        tails.extend(relation.tails)
    writer.add_array(f"{name}/pids", pids)
    writer.add_array(f"{name}/lens", lengths)
    writer.add_array(f"{name}/heads", heads)
    writer.add_array(f"{name}/tails", tails)


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
        "lca_item_width": _LCA_ITEM_WIDTH,
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

    # Columnar path summary: parent pid, step kind and label per pid.
    # (Not path strings — re-parsing them costs O(total path depth)
    # with per-prefix interning, which dominates load on path-heavy
    # stores; one parent-pointer step per path is O(paths).)
    writer.add_array(
        "summary/parents", (summary.parent(pid) for pid in summary.pids())
    )
    writer.add_array(
        "summary/kinds",
        (1 if summary.is_attribute(pid) else 0 for pid in summary.pids()),
    )
    writer.add_strings(
        "summary/labels", (summary.label(pid) for pid in summary.pids())
    )

    root_index = store.root_oid - store.first_oid
    parents = [
        -1 if parent is None else parent
        for parent in (store.parent_of(oid) for oid in store.iter_oids())
    ]
    if parents[root_index] != -1:
        raise StorageError("store root has a parent; refusing to snapshot")
    writer.add_array("store/oid_pid", (store.pid_of(oid) for oid in store.iter_oids()))
    writer.add_array("store/oid_parent", parents)
    writer.add_array("store/oid_rank", (store.rank_of(oid) for oid in store.iter_oids()))

    _add_relation_family(writer, "edges", store.edges)
    _add_relation_family(writer, "ranks", store.ranks)

    string_pids: List[int] = []
    string_lengths: List[int] = []
    string_oids: List[int] = []
    string_values: List[str] = []
    for pid in sorted(store.strings):
        relation = store.strings[pid]
        string_pids.append(pid)
        string_lengths.append(len(relation))
        string_oids.extend(relation.heads)
        string_values.extend(relation.tails)
    writer.add_array("strings/pids", string_pids)
    writer.add_array("strings/lens", string_lengths)
    writer.add_array("strings/oids", string_oids)
    writer.add_strings("strings/values", string_values)

    for name, column in lca.columns().items():
        writer.add_array(f"lca/{name}", column, _LCA_ITEM_WIDTH)

    writer.add_strings("ft/terms", terms)
    writer.add_array("ft/lens", term_lengths)
    writer.add_array("ft/pids", term_pids)
    writer.add_array("ft/oids", term_oids)

    if value_index is not None:
        vx_pids: List[int] = []
        vx_lengths: List[int] = []
        vx_oids = array("q")
        vx_values: List[str] = []
        for pid, oids, values in value_index.iter_path_columns():
            vx_pids.append(pid)
            vx_lengths.append(len(oids))
            vx_oids.extend(oids)
            vx_values.extend(values)
        writer.add_array("vx/pids", vx_pids)
        writer.add_array("vx/lens", vx_lengths)
        writer.add_array("vx/oids", vx_oids)
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


class _LazyRelationFamily(Mapping):
    """pid → BAT over flat head/tail columns, materialized on access.

    A loaded store carries one relation per path — often hundreds of
    thousands of tiny BATs — but a query touches only the handful its
    hit paths name.  This mapping keeps the family as two flat columns
    plus a pid → (start, stop) index and builds (then memoizes) each
    BAT on first access, so loading costs O(relations) dict inserts
    instead of O(relations) object graphs.  Read-only by design, like
    the eager dicts it replaces.
    """

    __slots__ = ("_spans", "_heads", "_tails", "_cache")

    def __init__(
        self,
        pids: Sequence[int],
        lengths: Sequence[int],
        heads: Sequence[int],
        tails: Sequence,
        section: str,
        summary: PathSummary,
    ):
        if len(pids) != len(lengths):
            raise StorageError(
                f"section {section!r} pid/length columns disagree"
            )
        path_count = len(summary)
        spans: Dict[int, Tuple[int, int]] = {}
        position = 0
        for pid, length in zip(pids, lengths):
            if not 0 < pid < path_count:
                raise StorageError(
                    f"section {section!r} references unknown pid {pid}"
                )
            if pid in spans:
                raise StorageError(
                    f"section {section!r} repeats pid {pid}"
                )
            spans[pid] = (position, position + length)
            position += length
        if position != len(heads) or position != len(tails):
            raise StorageError(
                f"section {section!r} length disagrees with its run lengths "
                f"({position} != {len(heads)}/{len(tails)})"
            )
        self._spans = spans
        self._heads = heads
        self._tails = tails
        self._cache: Dict[int, BAT] = {}

    def __getitem__(self, pid: int) -> BAT:
        cached = self._cache.get(pid)
        if cached is not None:
            return cached
        start, stop = self._spans[pid]  # KeyError is the Mapping contract
        heads = self._heads[start:stop]
        tails = self._tails[start:stop]
        relation = BAT.from_columns(
            heads.tolist() if hasattr(heads, "tolist") else list(heads),
            tails.tolist() if hasattr(tails, "tolist") else list(tails),
            copy=False,
        )
        self._cache[pid] = relation
        return relation

    def __iter__(self):
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __contains__(self, pid: object) -> bool:
        return pid in self._spans


def _rebuild_summary(reader: SnapshotReader) -> PathSummary:
    # Parents must precede children — the invariant that makes a single
    # forward pass reproduce the original pid assignment.
    try:
        return ColumnarPathSummary(
            reader.array("summary/parents"),
            reader.strings("summary/labels"),
            reader.array("summary/kinds"),
        )
    except ValueError as exc:
        raise StorageError(f"corrupt path summary: {exc}") from exc


def _rebuild_relation_family(
    reader: SnapshotReader, name: str, summary: PathSummary
) -> Mapping:
    return _LazyRelationFamily(
        reader.array(f"{name}/pids"),
        reader.array(f"{name}/lens"),
        reader.array(f"{name}/heads"),
        reader.array(f"{name}/tails"),
        name,
        summary,
    )


def _rebuild_store(reader: SnapshotReader, meta: Dict[str, object]) -> MonetXML:
    summary = _rebuild_summary(reader)
    try:
        node_count = int(meta["node_count"])  # type: ignore[index]
        root_oid = int(meta["root_oid"])  # type: ignore[index]
        first_oid = int(meta["first_oid"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"snapshot meta section is incomplete: {exc}") from exc

    oid_pid = reader.tolist("store/oid_pid")
    oid_parent: List[Optional[int]] = reader.tolist("store/oid_parent")
    oid_rank = reader.tolist("store/oid_rank")
    if not (len(oid_pid) == len(oid_parent) == len(oid_rank) == node_count):
        raise StorageError(
            "store columns disagree with the recorded node count "
            f"({len(oid_pid)}/{len(oid_parent)}/{len(oid_rank)} != {node_count})"
        )
    root_index = root_oid - first_oid
    if not 0 <= root_index < node_count or oid_parent[root_index] != -1:
        raise StorageError("snapshot root OID does not denote a parentless node")
    oid_parent[root_index] = None

    edges = _rebuild_relation_family(reader, "edges", summary)
    ranks = _rebuild_relation_family(reader, "ranks", summary)
    strings = _LazyRelationFamily(
        reader.array("strings/pids"),
        reader.array("strings/lens"),
        reader.array("strings/oids"),
        reader.strings("strings/values"),
        "strings",
        summary,
    )

    return MonetXML(
        summary=summary,
        root_oid=root_oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        edges=edges,
        strings=strings,
        ranks=ranks,
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
    width = _meta_int(meta, "lca_item_width", 8)
    if width not in (4, 8):
        raise StorageError(f"snapshot meta field 'lca_item_width' is {width}")
    columns = {
        name: reader.array(f"lca/{name}", width)
        for name in ("tour", "depth", "first", "last")
    }
    tour, depth, first, last = columns.values()
    count, length, base = store.node_count, len(tour), store.first_oid

    def refuse(*checks) -> None:
        for section, sound, fault in checks:
            if not sound:
                raise StorageError(f"section {section!r} holds {fault}")

    refuse(
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
    refuse(
        ("lca/tour", in_span, "an OID outside the store's span"),
        ("lca/depth", unit_steps, "a step between neighbours that is not 1"),
        ("lca/first", ordered, "a position below 0 or above its 'lca/last'"),
        ("lca/last", bounded, "a position past the end of the tour"),
    )
    return LcaIndex.from_arrays(store, **columns)


def _rebuild_fulltext_index(
    reader: SnapshotReader, store: MonetXML, meta: Dict[str, object]
) -> FullTextIndex:
    terms = reader.strings("ft/terms")
    lengths = reader.tolist("ft/lens")
    if len(terms) != len(lengths):
        raise StorageError("full-text term and length columns disagree")
    pid_runs = _slice_runs(reader.array("ft/pids"), lengths, "ft/pids")
    oid_runs = _slice_runs(reader.array("ft/oids"), lengths, "ft/oids")
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
    pids = reader.tolist("vx/pids")
    lengths = reader.tolist("vx/lens")
    if len(pids) != len(lengths):
        raise StorageError("value-index pid and length columns disagree")
    oid_runs = _slice_runs(reader.array("vx/oids"), lengths, "vx/oids")
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
    lca_width = meta.get("lca_item_width", 8) if isinstance(meta, dict) else 8
    return {
        name: lca_width if name.startswith("lca/") else 8
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
