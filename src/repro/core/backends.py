"""Pluggable meet backends — the engine's structural-query seam.

Every operator of the paper reduces to "find the lowest common
ancestor(s) of some hit nodes, plus distances".  This module makes
*how* that happens a pluggable choice:

* :class:`SteeredBackend` — the paper, verbatim: per-query
  ``parent()`` walks steered by the ⪯ prefix order on π (Fig. 3), the
  set-wise relational loop (Fig. 4) and the schema-driven bottom-up
  roll-up (Fig. 5).  Zero preprocessing; the join count *is* the
  distance, so traces stay meaningful.  This is the default and the
  reference semantics.

* :class:`IndexedBackend` — a per-store Euler-tour + sparse-table
  index (:mod:`repro.core.lca_index`) built once and cached, giving
  O(1) pairwise meets and distances.  Set-wise and n-ary meets run the
  *same bottom-up roll-up contract* as Figs. 4/5, but over the
  **auxiliary (virtual) tree** spanned by the hit nodes and the LCAs
  of Euler-order neighbours — O(m log m) in the number of hits m,
  independent of tree depth and of the path-summary size.  Answer
  sets are provably identical to the steered operators (the auxiliary
  tree is exactly the subgraph where input chains can converge); only
  the emission *order* differs, and every consumer re-ranks.

* :class:`VectorBackend` — the indexed backend with its batched
  operations as NumPy whole-array passes (:mod:`repro.kernels`).

Choosing: for one ad-hoc query the steered walk wins — no index
build, and you get the paper's join-count trace for free.  For query
*volumes* (servers, benchmarks, ranking thousands of hit pairs) the
indexed backend amortizes one O(n log n) build into O(1) queries; see
``benchmarks/bench_backends.py`` for the crossover.

The seam is threaded everywhere structural queries happen: the module
functions (``meet2``, ``meet_sets``, ``meet_general``, ``graph_meet``,
``bounded_meet2``, ``distance``) accept ``backend=``, the
:class:`~repro.core.engine.NearestConceptEngine` takes
``backend="steered"|"indexed"|"vector"`` and exposes the batched
``meet_many`` / ``nearest_concepts_batch`` APIs, and the CLI exposes
``--backend``.

What follows a roll-up — drop the shard's stand-in root, the
``meet_X`` restriction, the all-terms filter, the ``within`` bound and
the §4 top-k — is :func:`select_meets`, the one routine the engine, the
shard service and the query processor all rank through.  A backend
hands it a ``Sequence[TaggedMeet]``: a plain list gets its §4 keys
from :func:`rank_keys` when a caller ranks or bounds on them, a
:class:`TaggedBatch` arrives with the keys and its flat pair columns
already computed array-wise, and only :func:`select_meets` knows the
difference.
"""

from __future__ import annotations

import heapq
import warnings
from bisect import bisect_right
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
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
    "IndexedBackend",
    "VectorBackend",
    "BACKEND_NAMES",
    "BackendSpec",
    "TaggedBatch",
    "rank_keys",
    "select_meets",
    "meet_oids",
    "resolve_backend",
    "snapshot_default_backend",
]

#: CLI / engine spellings of the built-in backends.
BACKEND_NAMES: Tuple[str, ...] = ("steered", "indexed", "vector")

BackendSpec = Union[str, "MeetBackend", None]


def _decode_bits(mask: int, items: Sequence) -> Iterator:
    """The items whose interned bit is set, in bit (= intern) order."""
    while mask:
        low = mask & -mask
        yield items[low.bit_length() - 1]
        mask ^= low


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


def _meet_term_hits_as_pairs(self, term_hits):
    """The python backends' ``meet_term_hits``: flatten, then roll up."""
    return self.meet_tagged(
        [(term, oid) for term, hits in term_hits for oid in hits.oids()]
    )


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

    meet_term_hits = _meet_term_hits_as_pairs


class IndexedBackend:
    """Euler-RMQ-indexed meets: O(1) pairs, auxiliary-tree roll-ups.

    The underlying :class:`~repro.core.lca_index.LcaIndex` is fetched
    through the per-store cache on every operation, which keeps one
    index per store current: after a live write it is rolled forward
    from the mutation journal (the tour and sparse table grow at the
    tail), and only a store the journal cannot bridge — a new store
    object, a bare :meth:`MonetXML.invalidate_caches` — gets a newly
    built one.
    """

    name = "indexed"

    def __init__(self, store: MonetXML):
        self.store = store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IndexedBackend {self.store!r}>"

    @property
    def index(self) -> LcaIndex:
        return get_lca_index(self.store)

    # -- pairwise --------------------------------------------------------
    # Equal OIDs short-circuit before any index look-up, mirroring the
    # steered walks (which answer o == o without touching the store).
    def meet(self, oid1: int, oid2: int) -> PairMeet:
        if oid1 == oid2:
            return PairMeet(oid1, 0)
        meet, distance = self.index.lca_with_distance(oid1, oid2)
        return PairMeet(meet, distance)

    def meet_within(self, oid1: int, oid2: int, k: int) -> Optional[PairMeet]:
        if k < 0:
            return None
        if oid1 == oid2:
            return PairMeet(oid1, 0)
        meet, distance = self.index.lca_with_distance(oid1, oid2)
        if distance > k:
            return None
        return PairMeet(meet, distance)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        lca_with_distance = self.index.lca_with_distance
        return [
            PairMeet(oid1, 0)
            if oid1 == oid2
            else PairMeet(*lca_with_distance(oid1, oid2))
            for oid1, oid2 in pairs
        ]

    def distance(self, oid1: int, oid2: int) -> int:
        return self.index.distance(oid1, oid2)

    # -- auxiliary-tree roll-up ------------------------------------------
    def meet_tagged(
        self, tagged: Iterable[Tuple[Token, int]]
    ) -> List[TaggedMeet]:
        """Fig. 5's propagation over flat arrays with interned token-sets.

        Every distinct (token, OID) input pair is interned to an integer
        index; the roll-up then runs over the auxiliary tree in array
        form (:meth:`~repro.core.lca_index.LcaIndex.auxiliary_tree_arrays`)
        propagating plain ints instead of per-OID ``set`` objects.

        The key structural fact: a node accumulating ≥ 2 pairs is
        emitted as a meet and *stops propagating* (minimality, Fig. 5),
        so everything that travels upward is a **singleton** — one
        integer slot per auxiliary node suffices, and each propagation
        step is O(1).  (A width-``m`` bitmask would make each step
        O(m/64): a Python int's cost follows its highest set bit, not
        its popcount.)  Multi-pair token sets exist only at emission
        nodes, exactly where the output must materialize them anyway.
        """
        pair_index: Dict[Tuple[Token, int], int] = {}
        pairs: List[Tuple[Token, int]] = []
        by_oid: Dict[int, Union[int, List[int]]] = {}
        for token, oid in tagged:
            pair = (token, oid)
            index = pair_index.get(pair)
            if index is None:
                pair_index[pair] = index = len(pairs)
                pairs.append(pair)
                current = by_oid.get(oid)
                if current is None:
                    by_oid[oid] = index
                elif isinstance(current, list):
                    current.append(index)
                else:
                    by_oid[oid] = [current, index]
        if not by_oid:
            return []
        order, parent_index = self.index.auxiliary_tree_arrays(by_oid)
        single: List[int] = [-1] * len(order)  # the lone pending pair
        multi: Dict[int, List[int]] = {}       # ≥ 2 pending pairs (meets)
        for position, oid in enumerate(order):
            entry = by_oid.get(oid)
            if entry is None:
                continue
            if isinstance(entry, list):
                multi[position] = entry
            else:
                single[position] = entry
        # Reverse pre-order visits every auxiliary node after all of
        # its auxiliary descendants — the roll-up order of Fig. 5.
        meets: List[TaggedMeet] = []
        for position in range(len(order) - 1, -1, -1):
            accumulated = multi.get(position)
            if accumulated is not None:
                # Emitted meets do not propagate (minimality, Fig. 5).
                meets.append(
                    TaggedMeet(
                        oid=order[position],
                        tokens=frozenset(pairs[i] for i in accumulated),
                    )
                )
                continue
            index = single[position]
            if index < 0:
                continue
            above = parent_index[position]
            if above < 0:
                continue
            pending = single[above]
            if pending < 0:
                grown = multi.get(above)
                if grown is not None:
                    grown.append(index)
                else:
                    single[above] = index
            else:
                multi[above] = [pending, index]
                single[above] = -1
        return meets

    meet_term_hits = _meet_term_hits_as_pairs

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
        """Fig. 4 over the auxiliary tree, with one bit per input OID.

        Two parallel mask arrays (left-origin bits, right-origin bits)
        replace the per-node pair-of-sets; a node is a meet exactly
        when both masks are non-zero, and the origin tuples are decoded
        only for emitted meets.
        """
        left_set, right_set = set(left), set(right)
        # Same homogeneity contract (and error message) as Fig. 4.
        _common_pid(self.store, left_set, "left")
        _common_pid(self.store, right_set, "right")
        if not left_set or not right_set:
            return []
        inputs = sorted(left_set | right_set)
        oid_bit = {oid: 1 << position for position, oid in enumerate(inputs)}
        order, parent_index = self.index.auxiliary_tree_arrays(inputs)
        left_masks = [0] * len(order)
        right_masks = [0] * len(order)
        position_of = {oid: position for position, oid in enumerate(order)}
        for oid in left_set:
            left_masks[position_of[oid]] = oid_bit[oid]
        for oid in right_set:
            right_masks[position_of[oid]] = oid_bit[oid]
        meets: List[SetMeet] = []
        for position in range(len(order) - 1, -1, -1):
            lefts = left_masks[position]
            rights = right_masks[position]
            if lefts and rights:
                meets.append(
                    SetMeet(
                        oid=order[position],
                        left_origins=tuple(_decode_bits(lefts, inputs)),
                        right_origins=tuple(_decode_bits(rights, inputs)),
                    )
                )
                continue
            above = parent_index[position]
            if above >= 0 and (lefts or rights):
                left_masks[above] |= lefts
                right_masks[above] |= rights
        return meets


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


class TaggedBatch:
    """A lazy ``Sequence[TaggedMeet]`` with precomputed ranking keys.

    The vector roll-up's result, kept in flat-array form: indexing
    materializes one real :class:`TaggedMeet` (so any element compares
    equal to the python backends' output), while :attr:`rank_keys`
    carries the §4 sort key per meet, computed array-wise by
    :meth:`VectorBackend._rank_key_rows`.  :func:`select_meets` filters
    and ranks on :attr:`oids`, :attr:`rank_keys` and the pair columns,
    so a top-k consumer only ever touches the winners — the losers'
    token frozensets are never built.
    """

    __slots__ = (
        "_pairs", "_pair_count", "oids", "_group_pairs", "_starts",
        "_ends", "rank_keys",
    )

    def __init__(self, pairs, pair_count, oids=(), group_pairs=(),
                 starts=(), ends=(), rank_keys=()):
        self._pairs = pairs
        self._pair_count = pair_count
        #: The meet OID per emitted group, in emission order.
        self.oids: Sequence[int] = oids
        self._group_pairs = group_pairs
        self._starts = starts
        self._ends = ends
        #: ``(joins, spread, -depth, oid)`` per meet — exactly
        #: :func:`rank_keys`, index-aligned.
        self.rank_keys: Sequence[Tuple[int, int, int, int]] = rank_keys

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

    def _pairs_of(self, position: int) -> List[int]:
        return self._group_pairs[
            self._starts[position]:self._ends[position]
        ].tolist()

    def __getitem__(self, position: int) -> TaggedMeet:
        pairs = self._pairs
        return TaggedMeet(
            oid=self.oids[position],
            tokens=frozenset(
                pairs[index] for index in self._pairs_of(position)
            ),
        )

    def tags(self, position: int) -> FrozenSet[Token]:
        """``self[position].tags`` without building the meet."""
        pairs = self._pairs
        return frozenset(
            pairs[index][0] for index in self._pairs_of(position)
        )

    def uncovered(self, kept: List[int]) -> List[Tuple[Token, int]]:
        """The input pairs no meet at the ``kept`` positions covers.

        One boolean mask over the flat pair column; only the uncovered
        pairs become python objects.
        """
        import numpy as np

        covered = np.zeros(self._pair_count, dtype=bool)
        if len(kept):
            keep = np.zeros(len(self.oids), dtype=bool)
            keep[kept] = True
            lengths = np.subtract(self._ends, self._starts)
            covered[self._group_pairs[np.repeat(keep, lengths)]] = True
        pairs = self._pairs
        return [pairs[index] for index in np.nonzero(~covered)[0].tolist()]


def rank_keys(
    store: MonetXML, results: Iterable[TaggedMeet]
) -> List[Tuple[int, int, int, int]]:
    """The §4 sort key ``(joins, spread, -depth, oid)`` of each meet.

    Equal to :meth:`NearestConcept.sort_key` of the annotated meet,
    without the annotation: summary depths and the live spread between
    the outermost origins.  The python counterpart (and test oracle) of
    :meth:`VectorBackend._rank_key_rows`.
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
        return results.oids
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

    Keys are read off a :class:`TaggedBatch` and computed by
    :func:`rank_keys` otherwise — over the survivors, and only when
    ``within`` or ``ranked`` needs them.
    """
    batch = isinstance(results, TaggedBatch)
    oids = meet_oids(results)
    kept: Sequence[int] = range(len(oids))
    residue = None
    if drop_oid is not None:
        kept = [i for i in kept if oids[i] != drop_oid]
        if batch:
            residue = results.uncovered(kept)
        else:
            covered = set().union(*(results[i].tokens for i in kept))
            residue = [
                pair for pair in dict.fromkeys(pairs) if pair not in covered
            ]
    if excluded:
        pid_of = store.pid_of
        kept = [i for i in kept if pid_of(oids[i]) not in excluded]
    if wanted is not None:
        tags = results.tags if batch else (lambda i: results[i].tags)
        kept = [i for i in kept if tags(i) >= wanted]
    if within is not None or ranked:
        if batch:
            keys = results.rank_keys
        else:
            keys = dict(
                zip(kept, rank_keys(store, (results[i] for i in kept)))
            )
        if within is not None:
            kept = [i for i in kept if keys[i][0] <= within]
        if ranked and limit is not None and limit < len(kept):
            kept = heapq.nsmallest(limit, kept, key=keys.__getitem__)
        elif ranked:
            kept = sorted(kept, key=keys.__getitem__)
    return list(kept), residue


class VectorBackend(IndexedBackend):
    """NumPy batch kernels over the same Euler-RMQ columns.

    Identical answer sets, ranking keys and emission order as
    :class:`IndexedBackend` — the differential suite holds them
    byte-identical — but every batched operation (``meet_many``, the
    Fig. 4/5 roll-ups) runs as whole-array passes over zero-copy
    ``int64`` views of the index columns (:mod:`repro.kernels`)
    instead of python-level per-element loops.  Only instantiate via
    :func:`resolve_backend`, which degrades a ``"vector"`` request to
    :class:`IndexedBackend` (with a warning) when NumPy is missing; scalar
    operations (``meet``, ``distance``) inherit the O(1) python
    kernels, which beat a one-element array round-trip.
    """

    name = "vector"

    @property
    def kernels(self):
        """The memoized batch kernels of the current-generation index."""
        from ..kernels.lca import get_kernels

        return get_kernels(self.index)

    def meet_many(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> List[PairMeet]:
        import numpy as np

        materialized = list(pairs)
        if not materialized:
            return []
        table = np.asarray(materialized, dtype=np.int64).reshape(-1, 2)
        left, right = table[:, 0], table[:, 1]
        meets = left.copy()
        distances = np.zeros(len(meets), dtype=np.int64)
        # Equal pairs answer without index validation, like the
        # scalar short-circuit in IndexedBackend.meet_many.
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

        The (token, OID) pairs are interned exactly like the python
        roll-up; from there propagation is
        :func:`repro.kernels.rollup.rollup_tagged`.
        """
        import numpy as np

        pairs: List[Tuple[Token, int]] = list(dict.fromkeys(
            (token, oid) for token, oid in tagged
        ))
        if not pairs:
            return TaggedBatch((), 0)
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
        import numpy as np

        terms: List[Token] = []
        columns: List[np.ndarray] = []
        for term, hits in term_hits:
            column = np.asarray(hits.oid_column(), dtype=np.int64)
            if len(column):
                terms.append(term)
                columns.append(column)
        if not columns:
            return TaggedBatch((), 0)
        pair_oids = columns[0] if len(columns) == 1 else np.concatenate(columns)
        return self._roll_up(_TermPairs(terms, columns), pair_oids)

    def _roll_up(self, pairs, pair_oids) -> "TaggedBatch":
        import numpy as np

        from ..kernels.rollup import rollup_tagged

        order, emitted, group_pairs, boundaries = rollup_tagged(
            self.kernels, pair_oids
        )
        if not len(emitted):
            return TaggedBatch(pairs, len(pair_oids))
        keys = self._rank_key_rows(order, emitted, pair_oids, group_pairs,
                                   boundaries)
        return TaggedBatch(
            pairs,
            len(pair_oids),
            order[emitted].tolist(),
            group_pairs,
            np.concatenate(([0], boundaries)).tolist(),
            np.concatenate((boundaries, [len(group_pairs)])).tolist(),
            keys,
        )

    def _rank_key_rows(self, order, emitted, pair_oids, group_pairs,
                       boundaries) -> List[Tuple[int, int, int, int]]:
        """The engine's §4 sort keys for every emitted meet, array-wise.

        Byte-identical to :func:`rank_keys` —
        ``(joins, spread, -depth, oid)`` with summary depths and
        live-node spreads — but computed with five whole-array passes
        while the roll-up's flat arrays are still in hand, instead of
        one python loop per meet over its origin frozenset.
        """
        import numpy as np

        from ..kernels.lca import sorted_unique

        store = self.store
        first = store.first_oid
        pid_column, depth_by_pid = self._rank_columns()

        # Distinct origin OIDs per emitted meet: one combined
        # (group, OID) key, uniqued — groups stay contiguous and the
        # origins inside a group come out sorted ascending.
        group_count = len(emitted)
        lengths = np.diff(
            np.concatenate(([0], boundaries, [len(group_pairs)]))
        )
        group_of = np.repeat(
            np.arange(group_count, dtype=np.int64), lengths
        )
        span = np.int64(store.node_count)
        origin_keys = sorted_unique(
            group_of * span + (pair_oids[group_pairs] - first)
        )
        origin_groups = origin_keys // span
        origin_oids = origin_keys % span  # still OID - first_oid
        starts = np.concatenate(
            ([0], np.nonzero(np.diff(origin_groups))[0] + 1)
        )
        counts = np.diff(np.concatenate((starts, [len(origin_keys)])))

        meet_oids = order[emitted]
        meet_depths = depth_by_pid[pid_column[meet_oids - first]]
        origin_depths = depth_by_pid[pid_column[origin_oids]]
        joins = np.add.reduceat(origin_depths, starts) - meet_depths * counts

        # Spread = live distance between the outermost origins (§4);
        # origins are sorted within a group, so they sit at the group
        # edges.  With tombstones, dead nodes below each endpoint are
        # subtracted via the store's prefix table (live_position).
        lows = origin_oids[starts] + first
        highs = origin_oids[starts + counts - 1] + first
        tomb_starts, dead_prefix = store.tombstone_table()
        if tomb_starts:
            tomb = np.asarray(tomb_starts, dtype=np.int64)
            dead = np.asarray(dead_prefix, dtype=np.int64)
            spreads = (
                highs - dead[np.searchsorted(tomb, highs, side="right")]
            ) - (lows - dead[np.searchsorted(tomb, lows, side="right")])
        else:
            spreads = highs - lows

        rows = np.empty((group_count, 4), dtype=np.int64)
        rows[:, 0] = joins
        rows[:, 1] = spreads
        rows[:, 2] = -meet_depths
        rows[:, 3] = meet_oids
        return list(map(tuple, rows.tolist()))

    def _rank_columns(self):
        """(pid column, depth-by-pid) as int64 arrays, generation-keyed.

        The store's dense pid column is a plain python list; copying it
        into an array once per generation keeps the per-query key pass
        free of per-element conversions.  Tombstones are *not* cached
        here — deletes may add them without touching these columns —
        so :meth:`_rank_key_rows` reads the prefix table fresh.
        """
        import numpy as np

        store = self.store
        cached = getattr(self, "_rank_columns_cache", None)
        if cached is not None and cached[0] == store.generation:
            return cached[1], cached[2]
        pid_column = np.asarray(store.dense_columns()[0], dtype=np.int64)
        summary = store.summary
        depth_by_pid = np.fromiter(
            (summary.depth(pid) for pid in range(len(summary))),
            dtype=np.int64,
            count=len(summary),
        )
        self._rank_columns_cache = (store.generation, pid_column, depth_by_pid)
        return pid_column, depth_by_pid

    def meet_sets(
        self, left: Iterable[int], right: Iterable[int]
    ) -> List[SetMeet]:
        import numpy as np

        from ..kernels.rollup import rollup_sets

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
        order, emitted, origin_indexes, boundaries = rollup_sets(
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


def snapshot_default_backend() -> str:
    """The backend snapshot serving defaults to.

    ``vector`` when the NumPy kernels are importable, else ``indexed``
    — both answer from the bundle's seeded LCA index without a
    rebuild, and the vector tier is answer-identical, so preferring it
    whenever it can run is free.
    """
    from .. import kernels

    return "vector" if kernels.available() else "indexed"


#: Set once the vector → indexed degradation has been reported.
_degradation_warned = False


def resolve_backend(store: MonetXML, spec: BackendSpec = None) -> "MeetBackend":
    """Normalize a backend spec: name, instance, or ``None`` (steered).

    ``"vector"`` degrades to :class:`IndexedBackend` when NumPy is not
    importable or ``REPRO_KERNELS`` forces the python tier — the
    kernels are an optional extra, and both backends are
    answer-identical — with one :class:`RuntimeWarning` per process
    naming the requested and the served tier.  An instance is returned
    as-is when it is bound to ``store``; binding it to a different
    store is almost certainly a bug and raises.
    """
    global _degradation_warned
    if spec is None:
        return SteeredBackend(store)
    if isinstance(spec, str):
        if spec == "steered":
            return SteeredBackend(store)
        if spec == "indexed":
            return IndexedBackend(store)
        if spec == "vector":
            from .. import kernels

            if kernels.available():
                return VectorBackend(store)
            if not _degradation_warned:
                _degradation_warned = True
                warnings.warn(
                    "meet backend 'vector' requested but the NumPy kernels "
                    "are unavailable; serving 'indexed' on the python tier",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return IndexedBackend(store)
        raise ValueError(
            f"unknown meet backend {spec!r}; expected one of {BACKEND_NAMES}"
        )
    if getattr(spec, "store", None) is not store:
        raise ValueError(
            "backend instance is bound to a different store (or has no "
            "store attribute; MeetBackend implementations must carry one)"
        )
    return spec
