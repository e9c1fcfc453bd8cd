"""Substring and scan-based search complementing the inverted index.

`contains` in the paper's query language ("$o contains 'Bit'") is a
containment test on character data.  The inverted index resolves the
common token-shaped case in O(1); this module adds the general
substring semantics via a scan of the string runs, plus helpers shared by the
query executor.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..monet.engine import MonetXML
from .index import FullTextIndex, Hits, Posting, get_fulltext_index
from .tokenizer import tokenize

__all__ = ["SearchEngine", "contains"]


def contains(value: str, needle: str, case_sensitive: bool = False) -> bool:
    """Plain substring containment with optional case folding."""
    if case_sensitive:
        return needle in value
    return needle.lower() in value.lower()


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

    def find(self, term: str) -> Hits:
        """Token-shaped terms use the index; others fall back to a scan.

        A term is token-shaped when tokenizing it yields exactly the
        term itself — then index semantics and substring-token semantics
        agree on whole-token matches.  A token-shaped term that misses
        the index entirely is retried as a substring scan, so partial
        words ("Hac") keep the paper's ``contains`` behaviour.
        """
        tokens = tokenize(term, self.case_sensitive)
        if len(tokens) == 1 and self._is_whole_token(term):
            hits = self.index.search(term)
            if hits:
                return hits
            return self.scan(term)
        if len(tokens) > 1:
            # Multi-word terms ("Bob Byte"): all tokens in one association.
            hits = self.index.search_conjunctive(tokens)
            return Hits(term=term, postings=self._confirm_substring(term, hits))
        return self.scan(term)

    def _is_whole_token(self, term: str) -> bool:
        return all(ch.isalnum() for ch in term.strip())

    def _confirm_substring(self, term: str, hits: Hits) -> List[Posting]:
        """Filter token-conjunction candidates to true substring matches."""
        confirmed: List[Posting] = []
        for posting in hits.postings:
            if any(
                contains(value, term, self.case_sensitive)
                for value in self._values_of(posting)
            ):
                confirmed.append(posting)
        return confirmed

    def _values_of(self, posting: Posting) -> List[str]:
        """String values of the association behind a posting."""
        summary = self.store.summary
        strings = self.store.string_runs()
        values: List[str] = []
        for attr_pid in summary.children(posting.pid):
            if summary.is_attribute(attr_pid):
                values.extend(strings.tails_of(attr_pid, posting.oid))
        return values

    def scan(
        self, needle: str, span: Optional[Tuple[int, int]] = None
    ) -> Hits:
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
