"""Substring and scan-based search complementing the inverted index.

`contains` in the paper's query language ("$o contains 'Bit'") is a
containment test on character data.  The inverted index resolves the
common token-shaped case in O(1); this module adds the general
substring semantics via a relation scan, plus helpers shared by the
query executor.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

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
        values: List[str] = []
        for attr_pid in self.store.summary.children(posting.pid):
            if not self.store.summary.is_attribute(attr_pid):
                continue
            relation = self.store.strings.get(attr_pid)
            if relation is not None:
                values.extend(relation.find_all(posting.oid))
        return values

    def scan(
        self, needle: str, span: Optional[Tuple[int, int]] = None
    ) -> Hits:
        """Full scan over all string relations: substring containment.

        The slow path — used for punctuation-bearing or partial-word
        needles that token search cannot answer.  With ``span`` (a
        shard's half-open OID range) rows owned outside it are skipped:
        each relation's rows are in OID order, so two bisections bound
        the ones read.
        """
        postings: List[Posting] = []
        for pid, relation in self.store.string_relations():
            element_pid = self.store.summary.parent(pid)
            rows = relation
            if span is not None:
                heads = relation.heads
                start, stop = (bisect_left(heads, bound) for bound in span)
                rows = zip(heads[start:stop], relation.tails[start:stop])
            for oid, value in rows:
                if contains(value, needle, self.case_sensitive):
                    postings.append(Posting(element_pid, oid))
        return Hits(term=needle, postings=postings)
