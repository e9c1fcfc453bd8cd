"""Pluggable meet backends — the engine's structural-query seam.

Every operator of the paper reduces to "find the lowest common
ancestor(s) of some hit nodes, plus distances".  This module makes
*how* that happens a pluggable choice between two backends:

* :class:`SteeredBackend` — the paper, verbatim: per-query
  ``parent()`` walks steered by the ⪯ prefix order on π (Fig. 3), the
  set-wise relational loop (Fig. 4) and the schema-driven bottom-up
  roll-up (Fig. 5).  Zero preprocessing; the join count *is* the
  distance, so traces stay meaningful.  This is the default and the
  reference semantics every differential suite compares against.

* :class:`VectorBackend` — a per-store Euler-tour range-minimum index
  (:mod:`repro.core.lca_index`) built once and cached, with every
  batched operation as NumPy whole-array passes (:mod:`repro.kernels`).
  Set-wise and n-ary meets run the *same bottom-up roll-up contract*
  as Figs. 4/5, but over the **auxiliary (virtual) tree** spanned by
  the hit nodes and the LCAs of Euler-order neighbours — independent
  of tree depth and of the path-summary size.  Answer sets are
  identical to the steered operators (the auxiliary tree is exactly
  the subgraph where input chains can converge); only the emission
  *order* differs, and every consumer re-ranks.

Choosing: for one ad-hoc query the steered walk wins — no index
build, and you get the paper's join-count trace for free.  For query
*volumes* (servers, benchmarks, ranking thousands of hit pairs) the
vector backend amortizes one O(n) build into O(1) queries; see
``benchmarks/bench_backends.py`` for the crossover.

The seam is threaded everywhere structural queries happen: the module
functions (``meet2``, ``meet_sets``, ``meet_general``, ``graph_meet``,
``bounded_meet2``, ``distance``) accept ``backend=``, the
:class:`~repro.core.engine.NearestConceptEngine` takes
``backend="steered"|"vector"`` and exposes the batched
``meet_many`` / ``nearest_concepts_batch`` APIs, and the CLI exposes
``--backend``.

What follows a roll-up — drop the shard's stand-in root, the
``meet_X`` restriction, the all-terms filter, the ``within`` bound and
the §4 top-k — is :func:`select_meets`, the one routine the engine, the
shard service and the query processor all rank through.  A backend
hands it a ``Sequence[TaggedMeet]``: a plain list (the steered walks)
is filtered element by element with §4 keys from :func:`rank_keys`; a
:class:`TaggedBatch` keeps the candidates as columns — meet OIDs, a
flat pair column, an ``(n, 4)`` key matrix — and is filtered by masks
and cut by a partition, so only the winners ever become
:class:`TaggedMeet` objects.  Only :func:`select_meets` knows the
difference.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    TYPE_CHECKING,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from ..kernels import rollup
from ..kernels.lca import get_kernels, sorted_unique
from ..monet.engine import MonetXML
from .lca_index import LcaIndex, get_lca_index
from .meet_general import (
    GeneralMeet,
    TaggedMeet,
    Token,
    _as_oid_tokens,
    meet_general,
    meet_tagged,
)
from .meet_pair import PairMeet, meet2_traced
from .meet_sets import SetMeet, _common_pid, meet_sets

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fulltext.index import Hits

__all__ = [
    "MeetBackend",
    "SteeredBackend",
    "VectorBackend",
    "BACKEND_NAMES",
    "SNAPSHOT_DEFAULT_BACKEND",
    "BackendSpec",
    "TaggedBatch",
    "rank_keys",
    "select_meets",
    "meet_oids",
    "resolve_backend",
    "kernel_tier",
]

#: CLI / engine spellings of the built-in backends.
BACKEND_NAMES: Tuple[str, ...] = ("steered", "vector")

#: What snapshot serving defaults to: it answers from the bundle's
#: seeded LCA index without a rebuild.
SNAPSHOT_DEFAULT_BACKEND = "vector"

BackendSpec = Union[str, "MeetBackend", None]


@runtime_checkable
class MeetBackend(Protocol):
    """What a meet implementation must provide to plug into the engine.

    Implementations must agree on answer *sets* (meet OIDs, origin
    coverage, distances); they may differ in emission order and in
    which execution traces they can produce.
    """

    name: str
    store: MonetXML

    def meet(self, oid1: int, oid2: int) -> PairMeet:
        """Pairwise meet with distance (Fig. 3 / Def. 6)."""
        ...

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        """The §4 k-meet: ``None`` when d(o₁,o₂) > k."""
        ...

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        """Batched pairwise meets — the ranking hot path."""
        ...

    def distance(self, oid1: int, oid2: int) -> int:
        """Tree distance d(o₁,o₂) in edges."""
        ...

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        """Set-wise minimal meets of two homogeneous sets (Fig. 4)."""
        ...

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        """General n-ary meet over typed relations (Fig. 5)."""
        ...

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> Sequence[TaggedMeet]:
        """Roll-up over (token, OID) pairs; meets cover ≥ 2 tokens."""
        ...

    def meet_term_hits(
        self, term_hits: Iterable[Tuple[Token, Hits]]
    ) -> Sequence[TaggedMeet]:
        """:meth:`meet_tagged` over whole per-term full-text hits."""
        ...


class SteeredBackend:
    """The paper's path-steered walks — no preprocessing, traceable.

    Join counts reported by :class:`~repro.core.meet_pair.PairMeet`
    come from the actual Fig. 3 walk, so the paper's "number of joins
    = distance = ranking signal" reading holds literally.
    """

    name = "steered"

    def __init__(self, store: MonetXML):
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SteeredBackend {self.store!r}>"

    def meet(self, oid1: int, oid2: int) -> PairMeet:
        return meet2_traced(self.store, oid1, oid2)

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        from .restrictions import bounded_meet2

        return bounded_meet2(self.store, oid1, oid2, k)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        store = self.store
        return [meet2_traced(store, oid1, oid2) for oid1, oid2 in pairs]

    def distance(self, oid1: int, oid2: int) -> int:
        return meet2_traced(self.store, oid1, oid2).joins

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        return meet_sets(self.store, left, right)

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        return meet_general(self.store, relations)

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        return meet_tagged(self.store, tagged)

    def meet_term_hits(self, term_hits) -> List[TaggedMeet]:
        """Flatten the hits to (term, OID) pairs, then roll up."""
        return self.meet_tagged(
            [(term, oid) for term, hits in term_hits for oid in hits.oids()]
        )


class _PairList(list):
    """Pair table of a ``meet_tagged`` roll-up: the interned pair list."""

    __slots__ = ()

    def token_slots(self):
        """``(token → slot, slot per pair)``, slots in first-seen order."""
        slot_of: Dict[Token, int] = {}
        slots = np.fromiter(
            (slot_of.setdefault(token, len(slot_of)) for token, _ in self),
            dtype=np.int64,
            count=len(self),
        )
        return slot_of, slots


class _TermPairs:
    """Pair table of a term-hits roll-up: index → ``(term, OID)``.

    Stands in for the python pair list :meth:`VectorBackend.meet_tagged`
    interns: pair ``i`` lives in the column whose offset range covers
    ``i``.  Built O(#terms); each lookup is one bisect plus one array
    read, so only the pairs a consumer actually touches (the winners'
    token sets, a shard's residue) ever become python objects.
    """

    __slots__ = ("_terms", "_columns", "_offsets")

    def __init__(self, terms, columns):
        self._terms = terms
        self._columns = columns
        offsets = [0]
        for column in columns:
            offsets.append(offsets[-1] + len(column))
        self._offsets = offsets

    def __getitem__(self, index):
        slot = bisect_right(self._offsets, index) - 1
        return (
            self._terms[slot],
            int(self._columns[slot][index - self._offsets[slot]]),
        )

    def token_slots(self):
        """``(term → slot, slot per pair)``: one run per term column."""
        return (
            {term: slot for slot, term in enumerate(self._terms)},
            np.repeat(
                np.arange(len(self._terms)), np.diff(self._offsets)
            ),
        )


class TaggedBatch:
    """A lazy ``Sequence[TaggedMeet]`` that stays in columns.

    The vector roll-up's result in flat-array form: :attr:`oids` is the
    meet OID per emitted group, and one flat pair-index column cut by
    group bounds says which input pairs each meet covers.  Filtering,
    the §4 keys and the top-k (:meth:`select`, reached through
    :func:`select_meets`) are masks and sorts over those columns, so
    the candidates a request ranks are never python objects; indexing
    materializes one real :class:`TaggedMeet` (equal to the steered
    backend's element), which a top-k consumer does for the winners
    only.
    """

    __slots__ = (
        "_backend", "_pairs", "_pair_oids", "oids", "_group_pairs",
        "_bounds", "_rank_keys",
    )

    def __init__(self, backend, pairs, pair_oids, oids=None,
                 group_pairs=None, bounds=None):
        if oids is None:
            oids = group_pairs = np.empty(0, dtype=np.int64)
            bounds = np.zeros(1, dtype=np.int64)
        self._backend = backend
        self._pairs = pairs
        self._pair_oids = pair_oids
        #: The meet OID per emitted group, in emission order.
        self.oids = oids
        # Group ``i`` covers the pairs group_pairs[bounds[i]:bounds[i+1]].
        self._group_pairs = group_pairs
        self._bounds = bounds
        self._rank_keys = None

    def __len__(self) -> int:
        return len(self.oids)

    def __iter__(self) -> Iterator[TaggedMeet]:
        for position in range(len(self.oids)):
            yield self[position]

    def __eq__(self, other):
        if isinstance(other, (list, TaggedBatch)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __getitem__(self, position: int) -> TaggedMeet:
        pairs = self._pairs
        covered = self._group_pairs[
            self._bounds[position]:self._bounds[position + 1]
        ]
        return TaggedMeet(
            oid=int(self.oids[position]),
            tokens=frozenset(pairs[index] for index in covered.tolist()),
        )

    @property
    def rank_keys(self):
        """``(joins, spread, -depth, oid)`` per meet, an ``(n, 4)`` matrix.

        Row for row :func:`rank_keys` of the materialized meets, but
        computed with whole-array passes over the roll-up's columns —
        on first use, so a caller that neither ranks nor bounds on the
        join count never pays for it.
        """
        keys = self._rank_keys
        if keys is None:
            keys = self._rank_keys = self._compute_rank_keys()
        return keys

    def _compute_rank_keys(self):
        group_count = len(self.oids)
        rows = np.empty((group_count, 4), dtype=np.int64)
        if not group_count:
            return rows
        kernels = self._backend.kernels
        base = kernels.base
        # Distinct origin OIDs per meet: one combined (group, OID) key,
        # uniqued — groups stay contiguous and the origins inside a
        # group come out sorted ascending.
        group_of = np.repeat(
            np.arange(group_count, dtype=np.int64), np.diff(self._bounds)
        )
        span = np.int64(len(kernels.first))
        origin_keys = sorted_unique(
            group_of * span + (self._pair_oids[self._group_pairs] - base)
        )
        origin_slots = origin_keys % span  # OID - base
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(origin_keys // span)) + 1)
        )
        ends = np.concatenate((starts[1:], [len(origin_keys)]))

        # A node's depth is its tour depth — the length of its path,
        # which is what the summary stores per pid.
        depth, first = kernels.depth, kernels.first
        meet_depths = depth[first[self.oids - base]]
        origin_depths = depth[first[origin_slots]]
        joins = np.add.reduceat(origin_depths, starts, dtype=np.int64)
        joins -= meet_depths * (ends - starts)

        # Spread = live distance between the outermost origins (§4),
        # which sit at the group edges.  With tombstones, the dead
        # nodes below each endpoint are subtracted via the store's
        # prefix table (live_position), read fresh: a delete adds
        # tombstones without touching any column cached here.
        lows = origin_slots[starts] + base
        highs = origin_slots[ends - 1] + base
        tomb_starts, dead_prefix = self._backend.store.tombstone_table()
        if tomb_starts:
            tomb = np.asarray(tomb_starts, dtype=np.int64)
            dead = np.asarray(dead_prefix, dtype=np.int64)
            highs = highs - dead[np.searchsorted(tomb, highs, side="right")]
            lows = lows - dead[np.searchsorted(tomb, lows, side="right")]

        rows[:, 0] = joins
        rows[:, 1] = highs - lows
        rows[:, 2] = -meet_depths
        rows[:, 3] = self.oids
        return rows

    def uncovered(self, keep) -> List[Tuple[Token, int]]:
        """The input pairs no meet under the ``keep`` mask covers.

        One boolean mask over the flat pair column; only the uncovered
        pairs become python objects.
        """
        covered = np.zeros(len(self._pair_oids), dtype=bool)
        covered[
            self._group_pairs[np.repeat(keep, np.diff(self._bounds))]
        ] = True
        pairs = self._pairs
        return [pairs[index] for index in np.flatnonzero(~covered).tolist()]

    def _covers(self, wanted: AbstractSet[Token]):
        """Mask of the meets whose tags include every ``wanted`` token."""
        slot_of, pair_slots = self._pairs.token_slots()
        covers = np.ones(len(self.oids), dtype=bool)
        group_slots = pair_slots[self._group_pairs]
        starts = self._bounds[:-1]
        for token in wanted:
            slot = slot_of.get(token)
            if slot is None:
                covers[:] = False
                break
            covers &= np.logical_or.reduceat(group_slots == slot, starts)
        return covers

    def select(self, *, drop_oid, excluded, wanted, within, limit, ranked):
        """:func:`select_meets` over the columns: masks, then top-k.

        The winners come from ``np.partition`` on the join count plus
        an exact ``np.lexsort`` of the rows tied with or better than
        the cut; the key ends in the OID, a strict total order, so that
        equals sorting everything and truncating.
        """
        keep = np.ones(len(self.oids), dtype=bool)
        residue = None
        if drop_oid is not None:
            keep = self.oids != drop_oid
            residue = self.uncovered(keep)
        if excluded and len(keep):  # an empty batch never binds the index
            kernels = self._backend.kernels
            pids = kernels.pids()[self.oids - kernels.base]
            keep &= ~np.isin(
                pids, np.fromiter(excluded, np.int64, len(excluded))
            )
        if wanted is not None:
            keep &= self._covers(wanted)
        if within is not None:
            keep &= self.rank_keys[:, 0] <= within
        chosen = np.flatnonzero(keep)
        if ranked:
            if limit is not None and limit < len(chosen):
                if limit <= 0:
                    return [], residue
                joins = self.rank_keys[chosen, 0]
                cut = np.partition(joins, limit - 1)[limit - 1]
                chosen = chosen[joins <= cut]
            # lexsort's last key is the primary one: joins first.
            order = np.lexsort(self.rank_keys[chosen].T[::-1])
            chosen = chosen[order[:limit]]
        return chosen.tolist(), residue


def rank_keys(
    store: MonetXML, results: Iterable[TaggedMeet]
) -> List[Tuple[int, int, int, int]]:
    """The §4 sort key ``(joins, spread, -depth, oid)`` of each meet.

    Equal to :meth:`NearestConcept.sort_key` of the annotated meet,
    without the annotation: summary depths and the live spread between
    the outermost origins.  The python counterpart (and test oracle) of
    :attr:`TaggedBatch.rank_keys`.
    """
    pid_of = store.pid_of
    depth_of_pid = store.summary.depth
    spread_of = store.live_distance
    keys = []
    for result in results:
        origins = result.origins
        meet_depth = depth_of_pid(pid_of(result.oid))
        joins = -meet_depth * len(origins)
        for oid in origins:
            joins += depth_of_pid(pid_of(oid))
        keys.append(
            (
                joins,
                spread_of(min(origins), max(origins)),
                -meet_depth,
                result.oid,
            )
        )
    return keys


def meet_oids(results: Sequence[TaggedMeet]) -> List[int]:
    """The meet OID per result, without materializing a batch's meets."""
    if isinstance(results, TaggedBatch):
        return results.oids.tolist()
    return [result.oid for result in results]


def select_meets(
    store: MonetXML,
    results: Sequence[TaggedMeet],
    *,
    pairs: Iterable[Tuple[Token, int]] = (),
    drop_oid: Optional[int] = None,
    excluded: AbstractSet[int] = frozenset(),
    wanted: Optional[AbstractSet[Token]] = None,
    within: Optional[int] = None,
    limit: Optional[int] = None,
    ranked: bool = True,
) -> Tuple[List[int], Optional[List[Tuple[Token, int]]]]:
    """Filter and rank one roll-up result: ``(chosen indexes, residue)``.

    The pipeline's last two stages — the §4 ``meet_X`` restriction and
    join-count ranking — for the engine, the shard service and the
    query processor alike.  In order:

    1. The meet at ``drop_oid`` (a shard's stand-in root) goes, and the
       **residue** — the input pairs no remaining meet covers, i.e.
       what the monolithic roll-up would deliver to the document root —
       is taken before any further filtering (``None`` without
       ``drop_oid``).  ``pairs``, the roll-up's input, is consumed only
       when ``results`` is not a :class:`TaggedBatch`.
    2. Meets on an ``excluded`` pid go, then meets whose tags do not
       cover ``wanted``, then meets with more than ``within`` joins.
    3. With ``ranked`` the survivors come back in §4 order, cut to
       ``limit`` (a strict total order, so top-k selection equals
       sort-then-truncate); without it, in emission order.

    One branch per input kind.  A :class:`TaggedBatch` (the vector
    backend) does all of this on its columns (:meth:`TaggedBatch.select`)
    and no candidate becomes a python object.  A list (the python
    backends, and the oracle the batch is tested against) is filtered
    element-wise, with keys from :func:`rank_keys` — over the
    survivors, and only when ``within`` or ``ranked`` needs them.
    """
    if isinstance(results, TaggedBatch):
        return results.select(
            drop_oid=drop_oid, excluded=excluded, wanted=wanted,
            within=within, limit=limit, ranked=ranked,
        )
    kept: Sequence[int] = range(len(results))
    residue = None
    if drop_oid is not None:
        kept = [i for i in kept if results[i].oid != drop_oid]
        covered = set().union(*(results[i].tokens for i in kept))
        residue = [
            pair for pair in dict.fromkeys(pairs) if pair not in covered
        ]
    if excluded:
        pid_of = store.pid_of
        kept = [i for i in kept if pid_of(results[i].oid) not in excluded]
    if wanted is not None:
        kept = [i for i in kept if results[i].tags >= wanted]
    if within is not None or ranked:
        keys = dict(zip(kept, rank_keys(store, (results[i] for i in kept))))
        if within is not None:
            kept = [i for i in kept if keys[i][0] <= within]
        if ranked and limit is not None and limit < len(kept):
            kept = heapq.nsmallest(limit, kept, key=keys.__getitem__)
        elif ranked:
            kept = sorted(kept, key=keys.__getitem__)
    return list(kept), residue


class VectorBackend:
    """Euler-RMQ-indexed meets as NumPy batch kernels.

    Pairwise meets and distances are O(1) over the per-store
    :class:`~repro.core.lca_index.LcaIndex`; the batched operations
    (``meet_many``, the Fig. 4/5 roll-ups) run as whole-array passes
    over zero-copy views of the index columns (:mod:`repro.kernels`)
    instead of python-level per-element loops.

    The index is fetched through the per-store cache on every
    operation, which keeps one index per store current: after a live
    write it is rolled forward from the mutation journal (the tour and
    its derived table grow at the tail), and only a store the journal
    cannot bridge — a new store object, a bare
    :meth:`MonetXML.invalidate_caches` — gets a newly built one.
    """

    name = "vector"

    def __init__(self, store: MonetXML):
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VectorBackend {self.store!r}>"

    @property
    def index(self) -> LcaIndex:
        return get_lca_index(self.store)

    @property
    def kernels(self):
        """The memoized batch kernels of the current-generation index."""
        return get_kernels(self.index)

    # -- pairwise --------------------------------------------------------
    # Equal OIDs short-circuit before any index look-up, mirroring the
    # steered walks (which answer o == o without touching the store).
    def meet(self, oid1: int, oid2: int) -> PairMeet:
        if oid1 == oid2:
            return PairMeet(oid1, 0)
        return PairMeet(*self.index.lca_with_distance(oid1, oid2))

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        if k < 0:
            return None
        meet = self.meet(oid1, oid2)
        return None if meet.joins > k else meet

    def distance(self, oid1: int, oid2: int) -> int:
        return self.index.distance(oid1, oid2)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        materialized = list(pairs)
        if not materialized:
            return []
        table = np.asarray(materialized, dtype=np.int64).reshape(-1, 2)
        left, right = table[:, 0], table[:, 1]
        meets = left.copy()
        distances = np.zeros(len(meets), dtype=np.int64)
        # Equal pairs answer without index validation, like meet().
        unequal = left != right
        if unequal.any():
            meets[unequal], distances[unequal] = self.kernels.lca_many(
                left[unequal], right[unequal]
            )
        return [
            PairMeet(meet, distance)
            for meet, distance in zip(meets.tolist(), distances.tolist())
        ]

    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> "TaggedBatch":
        """Fig. 5 as level-wise array passes over the auxiliary tree.

        Every distinct (token, OID) input pair is interned to an index;
        from there propagation is
        :func:`repro.kernels.rollup.rollup_tagged`.
        """
        pairs = _PairList(dict.fromkeys(
            (token, oid) for token, oid in tagged
        ))
        pair_oids = np.fromiter(
            (oid for _, oid in pairs), dtype=np.int64, count=len(pairs)
        )
        return self._roll_up(pairs, pair_oids)

    def meet_term_hits(self, term_hits) -> "TaggedBatch":
        """:meth:`meet_tagged` with whole postings columns as input.

        Each term contributes its cached distinct-OID column
        (:meth:`repro.fulltext.index.Hits.oid_column`) — no python pair
        list is ever built.
        """
        terms: List[Token] = []
        columns: List[np.ndarray] = []
        for term, hits in term_hits:
            column = np.asarray(hits.oid_column(), dtype=np.int64)
            if len(column):
                terms.append(term)
                columns.append(column)
        pair_oids = (
            np.concatenate(columns) if columns else np.empty(0, np.int64)
        )
        return self._roll_up(_TermPairs(terms, columns), pair_oids)

    def _roll_up(self, pairs, pair_oids) -> "TaggedBatch":
        if len(pair_oids):
            order, emitted, group_pairs, boundaries = rollup.rollup_tagged(
                self.kernels, pair_oids
            )
            if len(emitted):
                return TaggedBatch(
                    self,
                    pairs,
                    pair_oids,
                    order[emitted],
                    group_pairs,
                    np.concatenate(([0], boundaries, [len(group_pairs)])),
                )
        return TaggedBatch(self, pairs, pair_oids)

    def meet_general(
        self, relations: Mapping[Hashable, Iterable[int]]
    ) -> List[GeneralMeet]:
        return [
            GeneralMeet(oid=meet.oid, origins=meet.origins)
            for meet in self.meet_tagged(_as_oid_tokens(relations))
        ]

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        """Fig. 4 over the auxiliary tree: a node is a meet exactly when
        both sides reach it (:func:`repro.kernels.rollup.rollup_sets`)."""
        left_set, right_set = set(left), set(right)
        # Same homogeneity contract (and error message) as Fig. 4.
        _common_pid(self.store, left_set, "left")
        _common_pid(self.store, right_set, "right")
        if not left_set or not right_set:
            return []
        inputs = np.fromiter(
            sorted(left_set | right_set),
            dtype=np.int64,
            count=len(left_set | right_set),
        )
        in_left = np.isin(
            inputs,
            np.fromiter(left_set, dtype=np.int64, count=len(left_set)),
        )
        in_right = np.isin(
            inputs,
            np.fromiter(right_set, dtype=np.int64, count=len(right_set)),
        )
        order, emitted, origin_indexes, boundaries = rollup.rollup_sets(
            self.kernels, inputs, in_left, in_right
        )
        order_list = order.tolist()
        input_list = inputs.tolist()
        origins = origin_indexes.tolist()
        left_flags = in_left[origin_indexes].tolist()
        right_flags = in_right[origin_indexes].tolist()
        bounds = boundaries.tolist()
        meets: List[SetMeet] = []
        for position, start, end in zip(
            emitted.tolist(), [0, *bounds], [*bounds, len(origins)]
        ):
            meets.append(
                SetMeet(
                    oid=order_list[position],
                    left_origins=tuple(
                        input_list[i]
                        for i, flag in zip(
                            origins[start:end], left_flags[start:end]
                        )
                        if flag
                    ),
                    right_origins=tuple(
                        input_list[i]
                        for i, flag in zip(
                            origins[start:end], right_flags[start:end]
                        )
                        if flag
                    ),
                )
            )
        return meets


def kernel_tier(backend_name: Optional[str]) -> str:
    """The kernel tier a backend serves from, as ``/v1/stats`` reports
    it: the NumPy kernels for ``vector``, python walks otherwise."""
    return "vector" if backend_name == "vector" else "python"


def resolve_backend(store: MonetXML, spec: BackendSpec = None) -> "MeetBackend":
    """Normalize a backend spec: name, instance, or ``None`` (steered).

    An instance is returned as-is when it is bound to ``store``;
    binding it to a different store is almost certainly a bug and
    raises.
    """
    if spec is None or spec == "steered":
        return SteeredBackend(store)
    if spec == "vector":
        return VectorBackend(store)
    if isinstance(spec, str):
        raise ValueError(
            f"unknown meet backend {spec!r}; expected one of {BACKEND_NAMES}"
        )
    if getattr(spec, "store", None) is not store:
        raise ValueError(
            "backend instance is bound to a different store (or has no "
            "store attribute; MeetBackend implementations must carry one)"
        )
    return spec
