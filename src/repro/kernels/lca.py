"""Batched pre-order RMQ LCA and auxiliary-tree kernels.

:class:`LcaKernels` binds an :class:`~repro.core.lca_index.LcaIndex`'s
depth column (one slot per OID, ``oid − first_oid``) and the store's
parent column, derives a range-minimum structure over the depths with
whole-array passes, and answers *batches* of LCA/distance queries and
whole auxiliary-tree constructions without a python-level loop per
element.  Stores are in document pre-order, so for slots ``u < v``

    lca(u, v) = parent[argmin depth over (u, v]]

— every node strictly after ``u`` up to ``v`` lies below the meet, and
the shallowest of them is a child of it.  A tombstoned slot holds
:data:`DEAD`, which never wins a minimum.

The range-minimum structure is a **sampled sparse table**: levels
0‥4 (windows of 1‥16 slots) for every slot as one-byte offsets, and the
levels from 4 up only at every 16th slot.  A range shorter than 32
slots is the textbook two-window query on the dense levels; a longer
one is its two 16-slot end windows plus the textbook query over the
16-aligned interior on the sampled levels — about 8 bytes per node
where the full table took 4·log₂(n).  It is derived when the kernels
bind and never persisted.

Two vectorization facts carry the module:

* a range-minimum batch needs no grouping by window size: every range
  reads two windows of its own level off the dense table rows (its
  16-slot end windows when it spans 32 slots or more), and the long
  ranges add the two sampled windows over their block-aligned
  interior: flat ``take`` gathers and elementwise depth compares;
* for a candidate set closed under pairwise LCA and sorted by OID
  (pre-order), the auxiliary-tree parent of ``c_i`` is exactly
  ``lca(c_{i-1}, c_i)`` — so the classic stack walk over the sorted
  candidates becomes one more batched RMQ plus a dense slot map that
  turns parent slots into positions.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..datamodel.errors import UnknownOIDError

__all__ = [
    "LcaKernels", "get_kernels", "sorted_unique", "BLOCK", "DENSE_LEVELS",
    "DEAD",
]

#: Slots between two samples of the upper table levels.
BLOCK = 16
#: Table levels kept for every slot: windows of 1‥``BLOCK``.
DENSE_LEVELS = 5
#: The depth of a tombstoned slot: deeper than any node, so it never
#: wins a range minimum that holds a live node.
DEAD = np.iinfo(np.int32).max

_INT64 = np.int64

#: Per range length − 1, clipped to 2·BLOCK − 1 (= "long"): the dense
#: table level whose two windows cover the range (or are its ends) …
_LEVELS = (
    np.minimum(np.frexp(np.arange(1, 2 * BLOCK + 1))[1], DENSE_LEVELS) - 1
).astype(np.intp)
#: … and the start of the right one, relative to the range's end.
_BACK = 1 - (1 << _LEVELS)
_SHIFT = BLOCK.bit_length() - 1


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort + neighbour compare.

    For the small-to-medium integer batches the kernels see, sorting
    beats NumPy's hash-table unique kernel by several times — and the
    callers all want the sorted order anyway.
    """
    values = np.sort(values)
    if len(values) < 2:
        return values
    keep = np.empty(len(values), dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def regrown(view: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``view`` regrown to ``shape``: old cells kept, new cells zero.

    The result is a corner view of an owned, contiguous backing array
    (its ``.base``) allocated with half as much room again along the
    last axis, so a run of tail appends copies the old cells O(1) times
    amortized.  A read-only view over an mmap'd snapshot (or any array
    without spare room) pays its one copy here.  Cells past the used
    corner are never written, so they stay zero until they are used.
    """
    backing = view.base
    if not (
        isinstance(backing, np.ndarray)
        and backing.flags.writeable
        and all(have >= want for have, want in zip(backing.shape, shape))
    ):
        backing = np.zeros(
            (*shape[:-1], shape[-1] + shape[-1] // 2), dtype=view.dtype
        )
        backing[tuple(slice(used) for used in view.shape)] = view
    return backing[tuple(slice(want) for want in shape)]


def _caught_up(copy: np.ndarray, column) -> np.ndarray:
    """``copy`` of a store column that only grows at its tail, extended
    to the column's length (the old cells are not re-read; a view would
    pin the column's buffer against the store's next append)."""
    known = len(copy)
    if known < len(column):
        copy = regrown(copy, (len(column),))
        copy[known:] = column[known:]
    return copy


class LcaKernels:
    """Vector views + batch kernels bound to one :class:`LcaIndex`.

    Instances are cached per index (:func:`get_kernels`), and an index
    lives across writes (:meth:`LcaIndex.patched`), so the table
    derivation is paid once per store; after a write :meth:`follow`
    refills the cells whose windows meet the written slots.
    """

    __slots__ = (
        "store", "base", "depth", "near", "far", "_near_rows", "_pids",
        "_parents",
    )

    def __init__(self, index):
        self.store = index.store
        self.base = int(index.store.first_oid)
        self.depth = index.depths
        self._pids = np.empty(0, dtype=np.int32)
        self._parents = _caught_up(
            np.empty(0, dtype=np.int32), self.store.dense_columns()[1]
        )
        self.near = np.empty((DENSE_LEVELS, 0), dtype=np.uint8)
        self.far = np.empty((0, 0), dtype=np.int32)
        self._refill(0, len(self.depth))

    def pids(self) -> np.ndarray:
        """The store's dense OID → pid column as an int32 array: a put
        extends it and nothing else changes it (a compaction makes a new
        store, hence new kernels), so the copy made on first use is
        caught up at the tail."""
        self._pids = _caught_up(self._pids, self.store.dense_columns()[0])
        return self._pids

    def _refill(self, low: int, high: int) -> None:
        """Fill the table cells whose window meets the slots ``[low, high)``.

        Two matrices, rows right-padded: ``near[k, i]`` is the offset
        from ``i`` of the leftmost minimum of ``depth[i : i + 2**k]``
        (one byte; ``k < DENSE_LEVELS``), and ``far[r, j]`` the slot of
        the leftmost minimum of the ``2**r`` blocks starting at
        ``j * BLOCK``.  Each row is recomputed from the row below, one
        pass over the cells that can see a changed slot: from empty
        rows over the whole column that is the derivation, after a put
        it is the new tail, after a delete the tombstoned span.
        """
        depth = self.depth
        length = len(depth)
        blocks = length // BLOCK
        self.near = near = regrown(self.near, (DENSE_LEVELS, length))
        self.far = far = regrown(
            self.far, (blocks.bit_length(), max(blocks, 1))
        )
        for level in range(1, DENSE_LEVELS):
            half = 1 << (level - 1)
            start, stop = max(low - 2 * half + 1, 0), min(
                high, length - 2 * half + 1
            )
            if start >= stop:
                continue
            left = near[level - 1, start:stop]
            right = near[level - 1, start + half : stop + half] + half
            here = np.arange(start, stop)
            near[level, start:stop] = np.where(
                depth[here + left] <= depth[here + right], left, right
            )
        first_block, end_block = low // BLOCK, -(-high // BLOCK)
        for rank in range(len(far)):
            span = 1 << rank
            start = max(first_block - span + 1, 0)
            stop = min(end_block, blocks - span + 1)
            if start >= stop:
                continue
            if rank == 0:
                here = np.arange(start * BLOCK, stop * BLOCK, BLOCK)
                far[0, start:stop] = here + near[-1, here]
            else:
                half = span // 2
                left = far[rank - 1, start:stop]
                right = far[rank - 1, start + half : stop + half]
                far[rank, start:stop] = np.where(
                    depth[left] <= depth[right], left, right
                )
        # Flat offset of each level's row in the near backing array.
        self._near_rows = _LEVELS * near.base.shape[1]

    def follow(
        self, depths: np.ndarray, changed: Iterable[Tuple[int, int]]
    ) -> None:
        """Catch up with an index that was just rolled forward.

        ``depths`` is the index's column and ``changed`` the slot
        ranges ``[low, high)`` its roll-forward wrote: a put's new tail,
        a delete's tombstoned span.  Only the table cells whose windows
        meet them are refilled — O(Δ) per write.  The kernels hold the
        store, never the index, so the two form no reference cycle.
        """
        self.depth = depths
        self._parents = _caught_up(
            self._parents, self.store.dense_columns()[1]
        )
        for low, high in changed:
            self._refill(low, high)

    # -- primitives ------------------------------------------------------
    def slots(self, oids: np.ndarray) -> np.ndarray:
        """``oid − base`` of a batch of OIDs, validated.

        Out-of-span OIDs and tombstoned OIDs (:data:`DEAD` depth) raise
        :class:`UnknownOIDError` naming the first offender.
        """
        oids = np.asarray(oids, dtype=_INT64)
        slots = oids - self.base
        bad = (slots < 0) | (slots >= len(self.depth))
        if not bad.any():
            bad = self.depth[slots] == DEAD
            if not bad.any():
                return slots
        raise UnknownOIDError(int(oids[int(bad.argmax())]))

    def rmq_positions(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Slot of the min-depth entry in each ``[low, high]``.

        Leftmost on ties: the candidates are compared left to right —
        each is the leftmost minimum of its window, and the windows
        before it cover a prefix of the range — and a later window only
        wins when strictly shallower.
        """
        depth = self.depth
        near = self.near.base.reshape(-1)
        clipped = np.minimum(high - low, 2 * BLOCK - 1)
        rows = self._near_rows.take(clipped)
        start = high + _BACK.take(clipped)
        left = low + near.take(rows + low)
        right = start + near.take(rows + start)
        long = np.flatnonzero(clipped == 2 * BLOCK - 1)
        if len(long):
            head = (low.take(long) + (BLOCK - 1)) >> _SHIFT
            tail = (high.take(long) + 1) >> _SHIFT
            rank = (np.frexp(tail - head)[1] - 1).astype(np.intp)
            far = self.far.base.reshape(-1)
            rows = rank * self.far.base.shape[1]
            inner_left = far.take(rows + head)
            inner_right = far.take(rows + tail - (1 << rank))
            inner = np.where(
                depth.take(inner_left) <= depth.take(inner_right),
                inner_left,
                inner_right,
            )
            outer = left.take(long)
            left[long] = np.where(
                depth.take(outer) <= depth.take(inner), outer, inner
            )
        return np.where(depth.take(left) <= depth.take(right), left, right)

    def meet_slots(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """``lca`` slots of live slot pairs with ``low < high``."""
        shallowest = self.rmq_positions(low + 1, high)
        return self._parents.take(shallowest) - self.base

    # -- batched LCA -----------------------------------------------------
    def lca_many(
        self, oids_a: np.ndarray, oids_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(meet OIDs, distances) for parallel OID arrays — one pass."""
        slots_a = self.slots(oids_a)
        slots_b = self.slots(oids_b)
        low = np.minimum(slots_a, slots_b)
        high = np.maximum(slots_a, slots_b)
        # An equal pair is its own meet: its empty range reads the
        # one-slot window at ``high`` and is overwritten below.
        meets = self.meet_slots(np.minimum(low, high - 1), high)
        same = low == high
        meets[same] = low[same]
        depth = self.depth
        distances = (
            depth.take(slots_a) + depth.take(slots_b)
            - 2 * depth.take(meets).astype(_INT64)
        )
        return meets + self.base, distances

    # -- auxiliary (virtual) tree ---------------------------------------
    def auxiliary_tree(
        self, oids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The virtual tree spanned by ``oids`` and their mutual LCAs.

        Candidates are the inputs plus the LCAs of pre-order
        neighbours; that set is closed under LCA and is exactly where
        ≥ 2 input ancestor chains can first converge, so the Fig. 4/5
        roll-ups restricted to it emit the same meets as the full
        instance tree, at a cost independent of tree size and depth.

        Returns ``(order, slots, parent_index, positions)``: the
        candidate OIDs in pre-order, their slots, each candidate's
        parent *position* (−1 at the root), and the position of each
        input OID.  Candidate-set closure under LCA makes
        ``parent(c_i) = lca(c_{i-1}, c_i)``, so parents come from one
        more batched RMQ instead of a python stack walk, and one dense
        slot → position map places both the parents and the inputs.
        """
        input_slots = self.slots(oids)
        slots = sorted_unique(input_slots)
        if len(slots) > 1:
            slots = sorted_unique(
                np.concatenate([slots, self.meet_slots(slots[:-1], slots[1:])])
            )
        position = np.empty(len(self.depth), dtype=np.int32)
        position[slots] = np.arange(len(slots), dtype=np.int32)
        parent_index = np.full(len(slots), -1, dtype=_INT64)
        if len(slots) > 1:
            parent_index[1:] = position.take(
                self.meet_slots(slots[:-1], slots[1:])
            )
        return (
            slots + self.base, slots, parent_index, position.take(input_slots)
        )


def get_kernels(index) -> LcaKernels:
    """The memoized :class:`LcaKernels` of an index (built on first use)."""
    kernels = index._vector_kernels
    if kernels is None:
        kernels = LcaKernels(index)
        index._vector_kernels = kernels
    return kernels
