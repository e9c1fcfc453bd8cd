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
one.  The roll-ups of a term (distinct-OID set, sorted distinct-OID
column) are derived on first use and memoized on the term.
:class:`Posting` and :class:`Hits` remain the public face, but a
:class:`Hits` is a thin *view* over the shared columns: each roll-up
is built only when a caller asks for it (the vector tier asks for the
OID column alone), and individual :class:`Posting` objects are only
materialized when somebody actually iterates ``hits.postings``.

The index of a store is one of its maintained indexes
(:data:`FULLTEXT_INDEXES`, a :class:`~repro.monet.engine.DerivedCache`
keyed on the case mode): built once, patched forward through the
mutation journal (:meth:`FullTextIndex.patched`), carried through
compaction (:meth:`FullTextIndex.carried`) and seeded from a snapshot
(:meth:`FullTextIndex.from_term_columns`).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
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

import numpy as np

from ..kernels import postings as postings_kernels
from ..kernels.lca import sorted_unique
from ..monet.engine import DerivedCache, MonetXML, joined_column
from .tokenizer import normalize, tokenize

__all__ = [
    "Posting",
    "Hits",
    "FullTextIndex",
    "FULLTEXT_INDEXES",
    "get_fulltext_index",
    "cached_fulltext_index",
    "clear_fulltext_index_cache",
    "fulltext_index_cache_info",
]


@dataclass(frozen=True, slots=True)
class Posting:
    """One matching association: its relation (pid) and its OID."""

    pid: int
    oid: int


_EMPTY_COLUMN = array("q")


def _unique_oid_column(oids: Sequence[int]) -> array:
    """Distinct OIDs of a column, ascending, as one flat column.

    A sorted unique over the column viewed at its own item width (an
    int32 snapshot section or an ``array('q')`` alike), returned as
    ``array('q')``: the kernels consume it as int64 without a copy,
    and iterating it must yield plain python ints (``np.int64`` is
    *not* an ``int`` subclass and would fail downstream OID
    validation).
    """
    return _as_q_column(sorted_unique(np.asarray(oids)))


def _as_q_column(np_column) -> array:
    """An ``array('q')`` copy of an integer NumPy column."""
    out = array("q")
    out.frombytes(np_column.astype("int64", copy=False).tobytes())
    return out


class Hits:
    """Result of one term search: the postings the meet operator consumes.

    A view over two parallel (pid, oid) columns.  ``postings`` (the
    historical list-of-:class:`Posting` API), ``oids()`` and
    ``oid_column()`` are all built on first call and
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

    def within(self, span: Tuple[int, int]) -> "Hits":
        """The hits whose OID lies in the half-open ``span`` (a shard's
        range).

        Only index-backed hits are cut: the term's postings once per
        span (:meth:`_TermPostings.within`), so a shard's repeated
        queries of a term share one cut and its roll-ups.
        """
        return Hits(self.term, entry=self._entry.within(span))

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


class _TermPostings:
    """Frozen per-term columns: parallel pid/oid arrays plus roll-ups.

    The roll-ups derive on first use and are memoized on the term, so
    an index (built or loaded) holds only what its queries asked for:
    the vector tier reads ``unique_oids`` alone.
    """

    __slots__ = ("pids", "oids", "_oid_set", "_unique_oids", "_cuts")

    def __init__(self, pids: Sequence[int], oids: Sequence[int]):
        self.pids = pids
        self.oids = oids
        self._oid_set: Optional[FrozenSet[int]] = None
        self._unique_oids: Optional[Sequence[int]] = None
        self._cuts: Optional[Dict[Tuple[int, int], "_TermPostings"]] = None

    def within(self, span: Tuple[int, int]) -> "_TermPostings":
        """The postings whose OID lies in the half-open ``span``
        (memoized per span; racing callers at worst build it twice).

        The sorted distinct-OID column is cut with two binary searches
        and becomes the cut's ``unique_oids``; the posting columns are
        masked to the same range.
        """
        cuts = self._cuts
        if cuts is None:
            cuts = self._cuts = {}
        cut = cuts.get(span)
        if cut is None:
            unique = np.asarray(self.unique_oids)
            start, stop = np.searchsorted(unique, span)
            if start == 0 and stop == len(unique):
                cut = self
            else:
                oids = np.asarray(self.oids)
                keep = (oids >= span[0]) & (oids < span[1])
                cut = _TermPostings(
                    _as_q_column(np.asarray(self.pids)[keep]),
                    _as_q_column(oids[keep]),
                )
                cut._unique_oids = _as_q_column(unique[start:stop])
            cuts[span] = cut
        return cut

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
        pending: Dict[str, Tuple[List[int], List[int]]] = {}
        intern = sys.intern
        case_sensitive = self.case_sensitive
        strings = self.store.string_runs()
        for pid in strings.pids.tolist():
            # Postings reference the *element* path of the carrying node
            # so the meet roll-up starts from real tree nodes.
            element_pid = self.store.summary.parent(pid)
            oids, values = strings.run(pid)
            for oid, value in zip(oids.tolist(), values):
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

        A put's ``added_strings`` are tokenized exactly like a build and
        appended to their terms; a delete's ``removed_strings`` name the
        terms its document had, whose postings inside the tombstoned
        span are masked out.  Only those terms are touched.  The
        receiver is left untouched — the copy shares the posting
        columns of unaffected terms — so racing readers can each patch
        the cached index and install their copy without ever observing
        a half-patched structure.
        """
        clone = self._with_terms(self.store, dict(self._terms))
        terms = clone._terms
        summary = self.store.summary
        for record in records:
            kind = getattr(record, "kind", None)
            if kind == "put":
                pending: Dict[str, Tuple[List[int], List[int]]] = {}
                for attr_pid, oid, value in record.added_strings:
                    element_pid = summary.parent(attr_pid)
                    for token in self._tokens(value):
                        columns = pending.get(token)
                        if columns is None:
                            pending[token] = columns = ([], [])
                        columns[0].append(element_pid)
                        columns[1].append(oid)
                clone._indexed_associations += len(record.added_strings)
                for token, (pids, oids) in pending.items():
                    entry = terms.get(token)
                    if entry is not None:
                        pids = np.concatenate([np.asarray(entry.pids), pids])
                        oids = np.concatenate([np.asarray(entry.oids), oids])
                    terms[token] = _TermPostings(
                        _as_q_column(np.asarray(pids)),
                        _as_q_column(np.asarray(oids)),
                    )
            elif kind == "delete":
                low, high = record.span
                touched: Set[str] = set()
                for _attr_pid, _oid, value in record.removed_strings:
                    touched.update(self._tokens(value))
                clone._indexed_associations -= len(record.removed_strings)
                for token in touched:
                    entry = terms.get(token)
                    if entry is None:
                        continue
                    oids = np.asarray(entry.oids)
                    keep = (oids < low) | (oids > high)
                    if keep.all():
                        continue
                    if keep.any():
                        terms[token] = _TermPostings(
                            _as_q_column(np.asarray(entry.pids)[keep]),
                            _as_q_column(oids[keep]),
                        )
                    else:
                        del terms[token]
            else:  # pragma: no cover - journal only holds put/delete
                raise ValueError(f"unknown mutation record {record!r}")
            clone.generation = record.to_generation
        return clone

    def carried(
        self, store: MonetXML, renumbered: Callable[[np.ndarray], np.ndarray]
    ) -> "FullTextIndex":
        """This index carried over to ``store``, the compaction of its own.

        Every posting OID goes through ``renumbered`` (compaction's
        monotone OID map) in one pass over the concatenated columns,
        whose pids are copied alongside: the carried index holds no
        view of the old store's bundle.  The term dictionary stays as
        it is and nothing is re-tokenized.
        """
        entries = list(self._terms.values())
        stops = np.cumsum([0] + [len(entry) for entry in entries]).tolist()
        pids = memoryview(joined_column(entry.pids for entry in entries))
        oids = memoryview(
            renumbered(joined_column(entry.oids for entry in entries))
        )
        return self._with_terms(
            store,
            {
                term: _TermPostings(pids[start:stop], oids[start:stop])
                for term, start, stop in zip(self._terms, stops, stops[1:])
            },
        )

    def _with_terms(
        self, store: MonetXML, terms: Dict[str, "_TermPostings"]
    ) -> "FullTextIndex":
        """An index of ``store`` like this one, over ``terms``."""
        clone = FullTextIndex.__new__(FullTextIndex)
        clone.store = store
        clone.case_sensitive = self.case_sensitive
        clone.generation = self.generation
        clone._indexed_associations = self._indexed_associations
        clone._terms = terms
        return clone

    def _tokens(self, value: str) -> Iterable[str]:
        """The distinct (interned) tokens of one association value, in
        first-occurrence order like a build's."""
        intern = sys.intern
        return dict.fromkeys(
            intern(token) for token in tokenize(value, self.case_sensitive)
        )

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
        return self._search_tokens(prefix + "*", str.startswith, prefix)

    def search_suffix(self, suffix: str) -> Hits:
        """All associations with a token ending with ``suffix``
        (linear in vocabulary size, like :meth:`search_prefix`)."""
        return self._search_tokens("*" + suffix, str.endswith, suffix)

    def _search_tokens(
        self, label: str, matches: Callable[[str, str], bool], part: str
    ) -> Hits:
        """Union of the postings of every token that ``matches`` ``part``."""
        needle = normalize(part, self.case_sensitive)
        matching = [
            entry
            for token, entry in self._terms.items()
            if matches(token, needle)
        ]
        return Hits(term=label, columns=self._merge_columns(matching))

    @staticmethod
    def _merge_columns(
        entries: Sequence[_TermPostings],
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Deduplicating union of posting columns, first-seen order: one
        combined-key pass (:func:`repro.kernels.postings.union_columns`).
        """
        pids, oids = postings_kernels.union_columns(
            (entry.pids, entry.oids) for entry in entries
        )
        return _as_q_column(pids), _as_q_column(oids)


# ---------------------------------------------------------------------------
# The per-store registry (repro.monet.engine.DerivedCache), keyed on the
# case mode.
# ---------------------------------------------------------------------------

#: The full-text indexes of every store, one per case mode.
FULLTEXT_INDEXES = DerivedCache(
    "fulltext", FullTextIndex, key_of=lambda index: index.case_sensitive
)


def get_fulltext_index(
    store: MonetXML, case_sensitive: bool = False
) -> FullTextIndex:
    """The current :class:`FullTextIndex` of a store in one case mode,
    built on first use."""
    return FULLTEXT_INDEXES.get(store, case_sensitive)


def cached_fulltext_index(
    store: MonetXML, case_sensitive: bool = False
) -> Optional[FullTextIndex]:
    """The index if it is current, else ``None`` — never builds (the
    planner's fan-out estimate)."""
    return FULLTEXT_INDEXES.peek(store, case_sensitive)


clear_fulltext_index_cache = FULLTEXT_INDEXES.clear
fulltext_index_cache_info = FULLTEXT_INDEXES.info
