"""Substring and scan-based search complementing the inverted index.

`contains` in the paper's query language ("$o contains 'Bit'") is a
containment test on character data.  The inverted index only speeds
that test up; :func:`term_shape` says when it may, and
:meth:`SearchEngine.find` is the one place that applies the rule —
for a whole store or for one shard's OID range of it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..kernels.postings import intersect_columns
from ..monet.engine import MonetXML
from .index import FullTextIndex, Hits, Posting, get_fulltext_index
from .tokenizer import tokenize

__all__ = ["SearchEngine", "contains", "term_shape"]

Span = Tuple[int, int]

#: :func:`term_shape`'s three answers.
TOKEN, PHRASE, SCAN = "token", "phrase", "scan"

#: Characters whose lower case breaks the match between a folded
#: substring and the folded tokens around it: İ lowers to two
#: characters, the second (U+0307) a mark that is not alphanumeric yet
#: sits inside the folded token, and capital sigma lowers to σ or ς
#: depending on its neighbours.  No other code point lowers to more
#: than one character or changes whether it is alphanumeric.
_FOLD_UNSAFE = frozenset("\u0130\u0307\u03a3\u03c3\u03c2")


def contains(value: str, needle: str, case_sensitive: bool = False) -> bool:
    """Plain substring containment with optional case folding."""
    if case_sensitive:
        return needle in value
    return needle.lower() in value.lower()


def term_shape(term: str, case_sensitive: bool = False) -> str:
    """How :meth:`SearchEngine.find` resolves ``term`` — a pure function
    of the text that builds no index (the planner reads it too).

    * ``token``: one alphanumeric word, nothing around it (" Bit " is a
      substring, not a token).  The index's hits, when it has any;
      otherwise a substring scan, so partial words ("Hac") keep the
      paper's ``contains`` behaviour.
    * ``phrase``: several words.  The index narrows the candidates to
      the associations holding every word — the first may be the tail
      and the last the head of a longer word — and a substring test
      confirms them, so the answer equals the scan's.
    * ``scan``: anything else, and a phrase whose case folding the
      tokens cannot follow (:data:`_FOLD_UNSAFE`).
    """
    tokens = tokenize(term, case_sensitive)
    if len(tokens) == 1 and all(ch.isalnum() for ch in term):
        return TOKEN
    if len(tokens) > 1 and (case_sensitive or _FOLD_UNSAFE.isdisjoint(term)):
        return PHRASE
    return SCAN


class SearchEngine:
    """Façade bundling token search and substring scans over one store."""

    def __init__(
        self,
        store: MonetXML,
        index: Optional[FullTextIndex] = None,
        case_sensitive: bool = False,
    ):
        self.store = store
        self.case_sensitive = case_sensitive
        #: An explicitly supplied index is pinned; otherwise the
        #: generation-keyed per-store cache provides (and refreshes) it.
        self._pinned_index = index

    @property
    def index(self) -> FullTextIndex:
        """The full-text index, kept fresh across store invalidations.

        Engines sharing one store share one index build; after
        :meth:`~repro.monet.engine.MonetXML.invalidate_caches` the next
        access transparently serves a rebuilt index.
        """
        if self._pinned_index is not None:
            return self._pinned_index
        return get_fulltext_index(self.store, self.case_sensitive)

    def find(self, term: str, span: Optional[Span] = None) -> Hits:
        """The hits of ``term`` under :func:`term_shape`'s rule, cut to
        ``span`` (a shard's half-open OID range) when one is given.

        Whether a token's index hits stand is decided against the
        store's whole index, never against the range: every shard of
        one store then takes the branch the whole store takes.
        """
        shape = term_shape(term, self.case_sensitive)
        if shape == TOKEN:
            hits = self.index.search(term)
            if not hits:
                return self.scan(term, span)
            return hits if span is None else hits.within(span)
        if shape == PHRASE:
            return self._phrase(term, span)
        return self.scan(term, span)

    def _phrase(self, term: str, span: Optional[Span]) -> Hits:
        """A multi-word term: index prefilter, then substring confirm.

        A value holding the term holds its inner words as whole
        tokens; its first word ends a token (is one, when the term
        starts with a separator) and its last word starts one (is one,
        when the term ends with a separator).
        """
        index = self.index
        first, *inner, last = tokenize(term, self.case_sensitive)
        groups = [index.search(token) for token in inner]
        groups.append(
            index.search_suffix(first)
            if term[0].isalnum()
            else index.search(first)
        )
        groups.append(
            index.search_prefix(last)
            if term[-1].isalnum()
            else index.search(last)
        )
        if not all(groups):
            return Hits(term=term)
        pids, oids = intersect_columns(group.columns for group in groups)
        if span is not None:
            inside = (oids >= span[0]) & (oids < span[1])
            pids, oids = pids[inside], oids[inside]
        return Hits(
            term=term,
            postings=[
                posting
                for posting in map(Posting, pids.tolist(), oids.tolist())
                if any(
                    contains(value, term, self.case_sensitive)
                    for value in self._values_of(posting)
                )
            ],
        )

    def _values_of(self, posting: Posting) -> List[str]:
        """String values of the association behind a posting."""
        summary = self.store.summary
        strings = self.store.string_runs()
        values: List[str] = []
        for attr_pid in summary.children(posting.pid):
            if summary.is_attribute(attr_pid):
                values.extend(strings.tails_of(attr_pid, posting.oid))
        return values

    def scan(self, needle: str, span: Optional[Span] = None) -> Hits:
        """Full scan over the string runs: substring containment.

        The slow path — used for punctuation-bearing or partial-word
        needles that token search cannot answer.  One pass over the
        string columns in pid order; with ``span`` (a shard's half-open
        OID range) only the rows whose OID lies inside it are read.
        """
        strings = self.store.string_runs()
        heads, tails = np.asarray(strings.heads), strings.tails
        rows = range(len(tails))
        if span is not None:
            inside = (heads >= span[0]) & (heads < span[1])
            rows = np.flatnonzero(inside).tolist()
        matched = [
            row
            for row in rows
            if contains(tails[row], needle, self.case_sensitive)
        ]
        pids = np.searchsorted(strings.offsets, matched, side="right") - 1
        parent = self.store.summary.parent
        return Hits(
            term=needle,
            postings=[
                Posting(parent(pid), oid)
                for pid, oid in zip(pids.tolist(), heads[matched].tolist())
            ],
        )
