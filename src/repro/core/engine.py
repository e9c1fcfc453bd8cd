"""The end-to-end nearest-concept query engine (the paper's headline).

``NearestConceptEngine`` wires the pipeline the paper demonstrates:

    full-text search per term  →  tagged inputs (term, OID)
    →  general meet roll-up (Fig. 5)  →  meet_X restriction (§4)
    →  join-count ranking (§4)

so that a user "familiar with the content but unaware of tags and
hierarchies" can write::

    engine = NearestConceptEngine(store)
    for concept in engine.nearest_concepts("Bit", "1999"):
        print(concept.path, concept.oid)

and get back the ``article`` node — the re-formulated intro query of
§3.2.  Inputs are tagged with their search term so that two terms
matching one association surface that node itself (the paper's
"Bob Byte" example).  ``require_all_terms=True`` keeps only concepts
covering every term — the conjunctive reading of the §5 case study
("publications containing *both* ICDE and the year"), which eliminates
the paper's "two false positives".

The engine also exposes the lower-level operators (pairwise, set-wise,
distance-bounded) under one roof.

Execution is delegated to a pluggable :class:`~repro.core.backends.MeetBackend`:
``backend="steered"`` (default) runs the paper's path-steered walks
with their join-count traces; ``backend="vector"`` answers every meet
from a per-store Euler-RMQ index (built once, cached on the store's
generation) with NumPy batch kernels — the right choice for query
volumes, and what the
batched entry points (:meth:`NearestConceptEngine.meet_many`,
:meth:`NearestConceptEngine.nearest_concepts_batch`) are designed
around.  Both backends return identical answer sets; ranking is
backend-independent because join counts are recomputed from depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..datamodel.paths import Path
from ..fulltext.index import FullTextIndex, Hits
from ..fulltext.search import SearchEngine
from ..monet.engine import MonetXML
from ..monet.reassembly import object_text, reassemble_subtree
from .backends import (
    SNAPSHOT_DEFAULT_BACKEND,
    BackendSpec,
    MeetBackend,
    resolve_backend,
    select_meets,
)
from .meet_general import GeneralMeet, TaggedMeet
from .meet_pair import PairMeet
from .meet_sets import SetMeet
from .restrictions import PathLike, resolve_pids
from .result_cache import (
    CacheSpec,
    ResultCache,
    ResultCacheInfo,
    resolve_result_cache,
)

__all__ = ["NearestConcept", "NearestConceptEngine"]


@dataclass(frozen=True, slots=True)
class NearestConcept:
    """One ranked answer of a nearest-concept query."""

    oid: int
    path: Path
    origins: Tuple[int, ...]
    terms: Tuple[str, ...]
    joins: int
    spread: int
    depth: int

    @property
    def tag(self) -> str:
        """The result *type* the user did not have to specify."""
        return self.path.last.label if len(self.path) else ""

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Lower-is-better ranking key (§4 heuristics)."""
        return (self.joins, self.spread, -self.depth, self.oid)


class NearestConceptEngine:
    """Schema-oblivious keyword querying over one Monet XML store."""

    def __init__(
        self,
        store: MonetXML,
        index: Optional[FullTextIndex] = None,
        case_sensitive: bool = False,
        thesaurus=None,
        broaden_below: int = 1,
        backend: BackendSpec = None,
        cache: CacheSpec = None,
    ):
        """``thesaurus`` (a :class:`repro.fulltext.thesaurus.Thesaurus`)
        enables the §4 broadening: terms whose plain search returns
        fewer than ``broaden_below`` hits are expanded with synonyms.

        ``backend`` selects the meet execution strategy: ``"steered"``
        (default), ``"vector"``, or a ready
        :class:`~repro.core.backends.MeetBackend` instance.

        ``cache`` enables the serving-layer result cache: ``True``
        (default capacity), a capacity, or a shared
        :class:`~repro.core.result_cache.ResultCache`.  Keys embed the
        store generation, so invalidated stores never serve stale
        answers; see :meth:`cache_info` for hit/miss statistics.
        """
        self.store = store
        self.backend: MeetBackend = resolve_backend(store, backend)
        self.search = SearchEngine(store, index=index, case_sensitive=case_sensitive)
        self.result_cache: Optional[ResultCache] = resolve_result_cache(cache)
        self.thesaurus = thesaurus
        self._broadener = None
        if thesaurus is not None:
            from ..fulltext.thesaurus import BroadeningSearch

            self._broadener = BroadeningSearch(
                self.search, thesaurus, min_hits=broaden_below
            )

    @classmethod
    def from_snapshot(cls, snapshot, **options) -> "NearestConceptEngine":
        """An engine over a loaded snapshot bundle — warm from query one.

        ``snapshot`` is a :class:`repro.snapshot.codec.Snapshot`: its
        loader has already seeded the generation-keyed LCA and
        full-text caches, so this engine's first query performs zero
        index constructions.  Defaults follow the bundle (the
        ``vector`` backend — the seeded index is already paid for —
        and the bundled case mode); any keyword accepted by the
        constructor overrides.
        """
        options.setdefault("backend", SNAPSHOT_DEFAULT_BACKEND)
        options.setdefault(
            "case_sensitive", snapshot.fulltext_index.case_sensitive
        )
        return cls(snapshot.store, **options)

    @property
    def index(self) -> FullTextIndex:
        """The full-text index (shared per store, fresh per generation)."""
        return self.search.index

    def cache_info(self) -> Optional[ResultCacheInfo]:
        """Result-cache counters, or ``None`` when caching is off."""
        if self.result_cache is None:
            return None
        return self.result_cache.cache_info()

    # -- primitive operators --------------------------------------------
    def meet(self, oid1: int, oid2: int) -> PairMeet:
        """Pairwise meet with distance (Fig. 3)."""
        return self.backend.meet(oid1, oid2)

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        """Distance-bounded pairwise meet (§4); ``None`` beyond k."""
        return self.backend.meet_within(oid1, oid2, k)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        """Batched pairwise meets — one backend, many pairs.

        On the vector backend the Euler-RMQ index is built (or
        fetched from cache) once and every pair is answered in O(1);
        the steered backend degrades gracefully to a loop of Fig. 3
        walks.
        """
        return self.backend.meet_many(pairs)

    def meet_of_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        """Set-wise minimal meets of two homogeneous OID sets (Fig. 4)."""
        return self.backend.meet_sets(left, right)

    def meet_of_relations(
        self, relations: Dict[int, List[int]]
    ) -> List[GeneralMeet]:
        """General n-ary meet over typed relations (Fig. 5)."""
        return self.backend.meet_general(relations)

    # -- the full pipeline -----------------------------------------------
    def term_hits(self, term: str) -> Hits:
        """Full-text hits of one term (token or substring semantics).

        With a thesaurus configured, scarce hits are broadened by
        synonyms; the hits still carry the user's term downstream.
        """
        if self._broadener is not None:
            hits, _used = self._broadener.find(term)
            return hits
        return self.search.find(term)

    def nearest_concepts(
        self,
        *terms: str,
        exclude_paths: Iterable[PathLike] = (),
        exclude_root: bool = False,
        require_all_terms: bool = False,
        within: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> List[NearestConcept]:
        """Rank the nearest concepts relating the given terms.

        Parameters
        ----------
        terms:
            Two or more search strings (one full-text search each).
        exclude_paths:
            ``meet_X`` exclusion set (paths, strings or pids), §4.
        exclude_root:
            Shortcut adding the document-root path to the exclusion
            set — the configuration of the §5 case study.
        require_all_terms:
            Keep only concepts whose origins cover every term
            (conjunctive extension; off = faithful Fig. 5 behaviour,
            including its occasional same-term false positives).
        within:
            Keep only concepts whose total join count is ≤ ``within``
            (the §4 k-restriction generalized to sets).
        limit:
            Truncate the ranked list.
        """
        if len(terms) < 2:
            raise ValueError("nearest_concepts needs at least two terms")
        excluded: Set[int] = resolve_pids(self.store, exclude_paths)
        if exclude_root:
            excluded.add(self.store.pid_of(self.store.root_oid))

        cache = self.result_cache
        key = None
        if cache is not None:
            # Normalized query: term order and duplicates provably do
            # not change the answer (inputs are tagged sets and the
            # ranking key is term-independent), so they normalize away.
            # Spelling/case stay verbatim — result tags carry them.
            # The engine configuration that changes answers (case mode,
            # thesaurus broadening) is part of the key, so one cache
            # can safely be shared across differently tuned engines;
            # keying the thesaurus *object* keeps it alive alongside
            # its entries (identity is its only equality).
            cache.sync_generation(self.store.generation)
            key = (
                self.store.generation,
                self.search.case_sensitive,
                self.thesaurus,
                None if self._broadener is None else self._broadener.min_hits,
                tuple(sorted(set(terms))),
                frozenset(excluded),
                require_all_terms,
                within,
                limit,
            )
            cached = cache.get(key)
            if cached is not None:
                return list(cached)

        # Duplicate terms dedupe here exactly as duplicate (term, OID)
        # pairs dedupe inside the roll-up.
        results = self.backend.meet_term_hits(
            (term, self.term_hits(term)) for term in dict.fromkeys(terms)
        )
        chosen, _ = select_meets(
            self.store,
            results,
            excluded=excluded,
            wanted=set(terms) if require_all_terms else None,
            within=within,
            limit=limit,
        )
        # Only the winners are annotated (paths, sorted term tuples).
        concepts = [self._annotate(results[i]) for i in chosen]
        if cache is not None:
            cache.put(key, tuple(concepts))
        return concepts

    def nearest_concepts_batch(
        self,
        queries: Iterable[Sequence[str]],
        **options,
    ) -> List[List[NearestConcept]]:
        """Evaluate many term-tuples against one store and one backend.

        ``options`` are forwarded to :meth:`nearest_concepts`.  The
        point of the batched entry is amortization: the full-text
        index, the search engine and (on the vector backend) the
        Euler-RMQ LCA index are all built once and shared by every
        query, so evaluating thousands of hit-pair roll-ups costs one
        preprocessing pass instead of thousands of parent re-walks.
        """
        return [self.nearest_concepts(*terms, **options) for terms in queries]

    def _annotate(self, result: TaggedMeet) -> NearestConcept:
        origins = tuple(sorted(result.origins))
        meet_depth = self.store.depth_of(result.oid)
        joins = sum(self.store.depth_of(oid) - meet_depth for oid in origins)
        return NearestConcept(
            oid=result.oid,
            path=self.store.path_of(result.oid),
            origins=origins,
            terms=tuple(sorted(str(tag) for tag in result.tags)),
            joins=joins,
            # Spread counts *live* nodes between the outermost origins,
            # so ranking is identical before and after deletes open
            # tombstone gaps in the OID space (== plain OID distance on
            # an unmutated store).
            spread=self.store.live_distance(origins[0], origins[-1]),
            depth=meet_depth,
        )

    # -- presentation helpers ---------------------------------------------
    def snippet(self, concept: Union[NearestConcept, int], width: int = 120) -> str:
        """Character data under a concept, truncated — for display."""
        oid = concept.oid if isinstance(concept, NearestConcept) else concept
        text = object_text(self.store, oid)
        return text if len(text) <= width else text[: width - 1] + "…"

    def to_xml(self, concept: Union[NearestConcept, int], indent: int = 2) -> str:
        """Serialize the concept's subtree — "displaying and browsing"."""
        from ..datamodel.serializer import serialize_node

        oid = concept.oid if isinstance(concept, NearestConcept) else concept
        return serialize_node(reassemble_subtree(self.store, oid), indent=indent)
