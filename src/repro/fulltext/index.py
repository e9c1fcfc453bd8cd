"""Inverted index over the string associations of a Monet XML store.

The paper combines the meet operator with "an already existing search
engine for semi-structured or XML data" (§5); this module is that
engine.  It indexes every (OID, string) association of every string
relation — attribute values *and* character data, exactly the search
surface of Def. 2's oid × string associations.

A posting is the pair (pid, oid): the association's relation (= path)
and its OID.  Postings grouped by pid are precisely the typed input
relations R₁ … Rₙ that the general meet algorithm of Fig. 5 consumes.

Storage is allocation-light: each term's postings live in two parallel
integer columns (pids, oids) behind an interned term dictionary —
``array('q')`` for a built index, int32 snapshot views for a loaded
one.  The roll-ups of a term (by-pid grouping, distinct-OID set,
sorted distinct-OID column) are derived on first use and memoized on
the term.  :class:`Posting` and :class:`Hits` remain the public face,
but a :class:`Hits` is a thin *view* over the shared columns: each
roll-up is built only when a caller asks for it (the vector tier asks
for the OID column alone), and individual :class:`Posting` objects
are only materialized when somebody actually iterates
``hits.postings``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .. import kernels as _kernels
from ..monet.engine import DerivedCache, MonetXML
from ..monet.mutate import journal_chain
from .tokenizer import normalize, tokenize

__all__ = [
    "Posting",
    "Hits",
    "FullTextIndex",
    "get_fulltext_index",
    "cached_fulltext_index",
    "seed_fulltext_index",
    "clear_fulltext_index_cache",
    "fulltext_index_cache_info",
    "FullTextIndexCacheInfo",
]


@dataclass(frozen=True, slots=True)
class Posting:
    """One matching association: its relation (pid) and its OID."""

    pid: int
    oid: int


_EMPTY_COLUMN = array("q")


def _unique_oid_column(oids: Sequence[int]):
    """Distinct OIDs of a column, ascending, as one flat column.

    NumPy tier: ``np.unique`` over the column viewed at its own item
    width (an int32 snapshot section or an ``array('q')`` alike);
    python tier: a sorted set.  Both return ``array('q')`` — the
    kernels consume it as int64 without a copy, and iterating it must
    yield plain python ints (``np.int64`` is *not* an ``int`` subclass
    and would fail downstream OID validation).
    """
    if _kernels.available():
        np = _kernels.numpy()
        return _as_q_column(np.unique(np.asarray(oids)))
    return array("q", sorted(set(oids)))


def _as_q_column(np_column) -> array:
    """An ``array('q')`` copy of an integer NumPy column."""
    out = array("q")
    out.frombytes(np_column.astype("int64", copy=False).tobytes())
    return out


class Hits:
    """Result of one term search; groups postings for the meet operator.

    A view over two parallel (pid, oid) columns.  ``postings`` (the
    historical list-of-:class:`Posting` API), ``oids()``,
    ``oid_column()`` and ``by_pid()`` are all built on first call and
    memoized on the instance: a term's hits are consumed at least once
    per query, often several times, and none of those consumers should
    pay a rebuild.  Hits of an index term (``entry``) share the term's
    memoized roll-ups across queries instead.
    """

    __slots__ = (
        "term",
        "_pids",
        "_oids",
        "_entry",
        "_postings",
        "_grouped",
        "_oid_set",
        "_oid_column",
    )

    def __init__(
        self,
        term: str,
        postings: Optional[Iterable[Posting]] = None,
        *,
        columns: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
        entry: Optional["_TermPostings"] = None,
    ):
        self.term = term
        self._entry = entry
        self._postings: Optional[List[Posting]] = None
        self._grouped: Optional[Mapping[int, Sequence[int]]] = None
        self._oid_set: Optional[FrozenSet[int]] = None
        self._oid_column: Optional[Sequence[int]] = None
        if entry is not None:
            self._pids, self._oids = entry.pids, entry.oids
        elif columns is not None:
            self._pids, self._oids = columns
        else:
            materialized = list(postings) if postings is not None else []
            self._postings = materialized
            self._pids = array("q", (p.pid for p in materialized))
            self._oids = array("q", (p.oid for p in materialized))

    @property
    def postings(self) -> List[Posting]:
        """The postings as :class:`Posting` views (materialized lazily)."""
        if self._postings is None:
            self._postings = [
                Posting(pid, oid) for pid, oid in zip(self._pids, self._oids)
            ]
        return self._postings

    def oids(self) -> AbstractSet[int]:
        """The distinct OIDs hit (memoized; do not mutate the result)."""
        if self._oid_set is None:
            entry = self._entry
            self._oid_set = (
                frozenset(self._oids) if entry is None else entry.oid_set
            )
        return self._oid_set

    @property
    def columns(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The raw parallel (pid, oid) columns — zero-copy views.

        The batched path reads these instead of ``postings`` so no
        python :class:`Posting` tuple is materialized per element.
        """
        return self._pids, self._oids

    def oid_column(self) -> Sequence[int]:
        """Distinct hit OIDs as one sorted flat column (memoized).

        Index-backed hits share the column cached per term on the
        index itself, so repeated queries of a term pay the dedup
        once per index generation; the vector kernels consume the
        column directly without round-tripping through the
        ``oids()`` frozenset.
        """
        if self._oid_column is None:
            entry = self._entry
            self._oid_column = (
                _unique_oid_column(self._oids)
                if entry is None
                else entry.unique_oids
            )
        return self._oid_column

    def by_pid(self) -> Mapping[int, Sequence[int]]:
        """pid → OID sequence: the typed relations handed to meet (Fig. 5).

        Memoized on the instance; index-backed hits share the term's
        grouping, so the mapping is returned read-only (callers needing
        to regroup should copy).
        """
        if self._grouped is None:
            entry = self._entry
            self._grouped = (
                _grouped(self._pids, self._oids)
                if entry is None
                else entry.grouped
            )
        return self._grouped

    def __len__(self) -> int:
        return len(self._oids)

    def __bool__(self) -> bool:
        return bool(len(self._oids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hits):
            return NotImplemented
        return self.term == other.term and self.postings == other.postings

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hits(term={self.term!r}, postings={len(self._oids)})"


def _grouped(
    pids: Sequence[int], oids: Sequence[int]
) -> Mapping[int, Sequence[int]]:
    """pid → ``array('q')`` of OIDs, read-only (the view is shared)."""
    built: Dict[int, array] = {}
    for pid, oid in zip(pids, oids):
        column = built.get(pid)
        if column is None:
            built[pid] = column = array("q")
        column.append(oid)
    return MappingProxyType(built)


class _TermPostings:
    """Frozen per-term columns: parallel pid/oid arrays plus roll-ups.

    The roll-ups derive on first use and are memoized on the term, so
    an index (built or loaded) holds only what its queries asked for:
    the vector tier reads ``unique_oids`` alone.
    """

    __slots__ = ("pids", "oids", "_grouped", "_oid_set", "_unique_oids")

    def __init__(self, pids: Sequence[int], oids: Sequence[int]):
        self.pids = pids
        self.oids = oids
        self._grouped: Optional[Mapping[int, Sequence[int]]] = None
        self._oid_set: Optional[FrozenSet[int]] = None
        self._unique_oids: Optional[Sequence[int]] = None

    @property
    def unique_oids(self) -> Sequence[int]:
        """Distinct OIDs as one sorted flat column (lazy, memoized).

        Shared by every :class:`Hits` view of the term across queries
        — the batched serving path's input column.
        """
        cached = self._unique_oids
        if cached is None:
            cached = self._unique_oids = _unique_oid_column(self.oids)
        return cached

    @property
    def grouped(self) -> Mapping[int, Sequence[int]]:
        cached = self._grouped
        if cached is None:
            cached = self._grouped = _grouped(self.pids, self.oids)
        return cached

    @property
    def oid_set(self) -> FrozenSet[int]:
        cached = self._oid_set
        if cached is None:
            cached = self._oid_set = frozenset(self.oids)
        return cached

    def __len__(self) -> int:
        return len(self.oids)


class FullTextIndex:
    """Token → postings inverted index over a store's string relations.

    Parameters
    ----------
    store:
        The Monet XML instance to index.
    case_sensitive:
        Keep token case (off by default, like most search engines).

    Notes
    -----
    OIDs recorded in postings are the association OIDs: for character
    data that is the ``cdata`` node (so a hit *is* a node of the tree
    and can itself be a meet, as in the paper's "Bob"/"Byte" example);
    for an attribute value it is the element owning the attribute.

    The index records the store ``generation`` it was built against;
    :func:`get_fulltext_index` uses it to rebuild transparently after
    :meth:`~repro.monet.engine.MonetXML.invalidate_caches`.
    """

    def __init__(self, store: MonetXML, case_sensitive: bool = False):
        self.store = store
        self.case_sensitive = case_sensitive
        #: Store generation this index was built against.
        self.generation = getattr(store, "generation", 0)
        self._terms: Dict[str, _TermPostings] = {}
        self._indexed_associations = 0
        self._build()

    def _build(self) -> None:
        global _builds
        _builds += 1
        pending: Dict[str, Tuple[List[int], List[int]]] = {}
        intern = sys.intern
        case_sensitive = self.case_sensitive
        for pid, relation in self.store.string_relations():
            # Postings reference the *element* path of the carrying node
            # so the meet roll-up starts from real tree nodes.
            element_pid = self.store.summary.parent(pid)
            for oid, value in relation:
                self._indexed_associations += 1
                seen: Set[str] = set()
                for token in tokenize(value, case_sensitive):
                    if token in seen:
                        continue
                    seen.add(token)
                    columns = pending.get(token)
                    if columns is None:
                        pending[intern(token)] = columns = ([], [])
                    columns[0].append(element_pid)
                    columns[1].append(oid)
        self._terms = {
            token: _TermPostings(array("q", pids), array("q", oids))
            for token, (pids, oids) in pending.items()
        }

    # -- persistence (the snapshot store's contract) --------------------
    def iter_term_columns(self) -> Iterator[Tuple[str, Sequence[int], Sequence[int]]]:
        """(term, pid column, oid column) per term, in dictionary order.

        The snapshot writer serializes exactly these columns; the
        roll-ups (grouping, distinct-OID sets) are derivable and are
        not part of the on-disk contract.
        """
        for term, entry in self._terms.items():
            yield term, entry.pids, entry.oids

    @classmethod
    def from_term_columns(
        cls,
        store: MonetXML,
        term_columns: Iterable[Tuple[str, Sequence[int], Sequence[int]]],
        *,
        case_sensitive: bool = False,
        indexed_associations: int = 0,
    ) -> "FullTextIndex":
        """Rebind deserialized term columns as a ready index.

        No string relation is scanned and no tokenization runs (the
        build counter stays untouched): the columns — e.g. zero-copy
        memoryview casts over a snapshot buffer — are wrapped as frozen
        postings whose roll-ups materialize lazily on first query.
        """
        self = cls.__new__(cls)
        self.store = store
        self.case_sensitive = case_sensitive
        self.generation = getattr(store, "generation", 0)
        self._indexed_associations = indexed_associations
        self._terms = {
            sys.intern(term): _TermPostings(pids, oids)
            for term, pids, oids in term_columns
        }
        return self

    # -- incremental maintenance ----------------------------------------
    def patched(self, records: Iterable[object]) -> "FullTextIndex":
        """A copy of this index rolled forward over mutation records.

        Put records contribute their ``added_strings`` associations
        (tokenized exactly like a build); delete records prune postings
        by tombstoned OID span.  The receiver is left untouched — the
        copy shares the posting columns of unaffected terms — so racing
        readers can each patch the cached index and install their copy
        without ever observing a half-patched structure.
        """
        clone = FullTextIndex.__new__(FullTextIndex)
        clone.store = self.store
        clone.case_sensitive = self.case_sensitive
        clone.generation = self.generation
        clone._indexed_associations = self._indexed_associations
        clone._terms = dict(self._terms)
        intern = sys.intern
        summary = self.store.summary
        for record in records:
            kind = getattr(record, "kind", None)
            if kind == "put":
                pending: Dict[str, Tuple[List[int], List[int]]] = {}
                for attr_pid, oid, value in record.added_strings:
                    element_pid = summary.parent(attr_pid)
                    clone._indexed_associations += 1
                    seen: Set[str] = set()
                    for token in tokenize(value, clone.case_sensitive):
                        if token in seen:
                            continue
                        seen.add(token)
                        columns = pending.get(token)
                        if columns is None:
                            pending[intern(token)] = columns = ([], [])
                        columns[0].append(element_pid)
                        columns[1].append(oid)
                for token, (pids, oids) in pending.items():
                    entry = clone._terms.get(token)
                    if entry is None:
                        clone._terms[token] = _TermPostings(
                            array("q", pids), array("q", oids)
                        )
                    else:
                        merged_pids = array("q", entry.pids)
                        merged_pids.extend(pids)
                        merged_oids = array("q", entry.oids)
                        merged_oids.extend(oids)
                        clone._terms[token] = _TermPostings(
                            merged_pids, merged_oids
                        )
            elif kind == "delete":
                low, high = record.span
                clone._indexed_associations -= record.removed_associations
                for token, entry in list(clone._terms.items()):
                    if not any(low <= oid <= high for oid in entry.oids):
                        continue
                    kept = [
                        (pid, oid)
                        for pid, oid in zip(entry.pids, entry.oids)
                        if not low <= oid <= high
                    ]
                    if kept:
                        clone._terms[token] = _TermPostings(
                            array("q", (pid for pid, _ in kept)),
                            array("q", (oid for _, oid in kept)),
                        )
                    else:
                        del clone._terms[token]
            else:  # pragma: no cover - journal only holds put/delete
                raise ValueError(f"unknown mutation record {record!r}")
            clone.generation = record.to_generation
        return clone

    # -- statistics ------------------------------------------------------
    @property
    def vocabulary_size(self) -> int:
        return len(self._terms)

    @property
    def indexed_associations(self) -> int:
        return self._indexed_associations

    def vocabulary(self) -> Iterable[str]:
        return self._terms.keys()

    def document_frequency(self, term: str) -> int:
        entry = self._terms.get(normalize(term, self.case_sensitive))
        return 0 if entry is None else len(entry)

    # -- search ------------------------------------------------------------
    def search(self, term: str) -> Hits:
        """All associations whose string contains ``term`` as a token.

        A dictionary look-up plus one :class:`Hits` view over the term —
        no posting copies, no per-posting allocation, and no roll-up
        its consumer does not ask for.
        """
        entry = self._terms.get(normalize(term, self.case_sensitive))
        if entry is None:
            return Hits(term=term, columns=(_EMPTY_COLUMN, _EMPTY_COLUMN))
        return Hits(term=term, entry=entry)

    def search_prefix(self, prefix: str) -> Hits:
        """All associations with a token starting with ``prefix``.

        Linear in vocabulary size; fine for the interactive use-case.
        """
        needle = normalize(prefix, self.case_sensitive)
        matching = [
            entry
            for token, entry in self._terms.items()
            if token.startswith(needle)
        ]
        return Hits(
            term=prefix + "*", columns=self._merge_columns(matching)
        )

    @staticmethod
    def _merge_columns(
        entries: Sequence[_TermPostings],
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Deduplicating union of posting columns, first-seen order.

        Vector tier: one combined-key pass
        (:func:`repro.kernels.postings.union_columns`); python tier:
        the historical seen-set merge loop.  Identical output order.
        """
        if _kernels.available():
            from ..kernels import postings as postings_kernels

            pids, oids = postings_kernels.union_columns(
                (entry.pids, entry.oids) for entry in entries
            )
            return _as_q_column(pids), _as_q_column(oids)
        merged_pids = array("q")
        merged_oids = array("q")
        seen: Set[Tuple[int, int]] = set()
        for entry in entries:
            for pid, oid in zip(entry.pids, entry.oids):
                key = (pid, oid)
                if key not in seen:
                    seen.add(key)
                    merged_pids.append(pid)
                    merged_oids.append(oid)
        return merged_pids, merged_oids

    def search_any(self, terms: Iterable[str]) -> Hits:
        """Union of single-term searches (duplicate postings removed)."""
        label: List[str] = []
        entries: List[_TermPostings] = []
        for term in terms:
            label.append(term)
            entry = self._terms.get(normalize(term, self.case_sensitive))
            if entry is not None:
                entries.append(entry)
        return Hits(term="|".join(label), columns=self._merge_columns(entries))

    def search_conjunctive(self, terms: Iterable[str]) -> Hits:
        """Associations whose string contains *all* the terms.

        This matches "Bob Byte" when searching for Bob *and* Byte — the
        paper's second §3.1 example where the meet is the cdata node
        itself.  The intersection runs as a sorted-array kernel when
        NumPy is importable; either tier emits (pid, oid) ascending.
        """
        term_list = list(terms)
        if not term_list:
            return Hits(term="")
        entries = [
            self._terms.get(normalize(term, self.case_sensitive))
            for term in term_list
        ]
        if any(entry is None for entry in entries):
            return Hits(term="&".join(term_list))
        if _kernels.available():
            from ..kernels import postings as postings_kernels

            pids, oids = postings_kernels.intersect_columns(
                (entry.pids, entry.oids) for entry in entries
            )
            return Hits(
                term="&".join(term_list),
                columns=(_as_q_column(pids), _as_q_column(oids)),
            )
        result = {(pid, oid) for pid, oid in zip(entries[0].pids, entries[0].oids)}
        for entry in entries[1:]:
            result &= {(pid, oid) for pid, oid in zip(entry.pids, entry.oids)}
        ordered = sorted(result)
        return Hits(
            term="&".join(term_list),
            columns=(
                array("q", (pid for pid, _ in ordered)),
                array("q", (oid for _, oid in ordered)),
            ),
        )


# ---------------------------------------------------------------------------
# Per-store cache, keyed on store identity + generation + case mode.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullTextIndexCacheInfo:
    """Counters of the per-store index cache (for tests and benches)."""

    builds: int
    hits: int
    currsize: int
    patches: int = 0


_cache = DerivedCache("fulltext_index")  # store → {case mode: FullTextIndex}
_builds = 0
_hits = 0
_patches = 0

#: Above this tombstone density an invalidated index rebuilds from the
#: (already pruned) relations instead of patching forward — the patch
#: would carry too much dead weight.
REBUILD_DENSITY = 0.25


def get_fulltext_index(
    store: MonetXML, case_sensitive: bool = False
) -> FullTextIndex:
    """The cached :class:`FullTextIndex` of a store, (re)built on demand.

    Kept on the store object (it dies with it) under its ``generation``
    and the case mode: every engine / processor serving the same store
    shares one index, and
    :meth:`~repro.monet.engine.MonetXML.invalidate_caches`
    transparently yields a fresh one on next use.  When the store's
    mutation journal bridges the cached index's generation to the
    current one and tombstone density is below :data:`REBUILD_DENSITY`,
    the index is patched forward (appends add postings, deletes prune
    by OID span) instead of rebuilt.
    """
    global _hits, _patches
    per_store = _cache.get(store)
    if per_store is None:
        per_store = _cache[store] = {}
    cached = per_store.get(case_sensitive)
    if cached is not None and cached.generation == getattr(store, "generation", 0):
        _hits += 1
        return cached
    if cached is not None and getattr(store, "dead_fraction", 1.0) <= REBUILD_DENSITY:
        chain = journal_chain(store, cached.generation)
        if chain is not None:
            index = cached.patched(chain)
            per_store[case_sensitive] = index
            _patches += 1
            return index
    index = FullTextIndex(store, case_sensitive=case_sensitive)
    per_store[case_sensitive] = index
    return index


def seed_fulltext_index(store: MonetXML, index: FullTextIndex) -> None:
    """Install a ready index into the per-store cache without a build.

    The snapshot loader's hook: an index deserialized via
    :meth:`FullTextIndex.from_term_columns` is registered under its
    case mode so every subsequent :func:`get_fulltext_index` call is a
    cache hit.  Neither the build nor the hit counter moves, keeping
    the "zero constructions on warm start" property testable.
    """
    if index.store is not store:
        raise ValueError("cannot seed the cache with an index of another store")
    index.generation = getattr(store, "generation", 0)
    per_store = _cache.get(store)
    if per_store is None:
        per_store = _cache[store] = {}
    per_store[index.case_sensitive] = index


def cached_fulltext_index(
    store: MonetXML, case_sensitive: bool = False
) -> Optional[FullTextIndex]:
    """The cached index if it is current for the store, else ``None``.

    A pure peek — never builds, never patches, moves no counters.  The
    query planner uses it to estimate term fan-out without paying an
    index construction during planning.
    """
    per_store = _cache.get(store)
    if per_store is None:
        return None
    cached = per_store.get(case_sensitive)
    if cached is not None and cached.generation == getattr(store, "generation", 0):
        return cached
    return None


def clear_fulltext_index_cache() -> None:
    """Drop every cached index and reset the counters (test isolation)."""
    global _builds, _hits, _patches
    _cache.clear()
    _builds = 0
    _hits = 0
    _patches = 0


def fulltext_index_cache_info() -> FullTextIndexCacheInfo:
    return FullTextIndexCacheInfo(
        builds=_builds,
        hits=_hits,
        currsize=sum(len(entry) for entry in _cache.values()),
        patches=_patches,
    )
