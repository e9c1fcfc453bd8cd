"""Batched Euler-RMQ LCA and auxiliary-tree kernels.

:class:`LcaKernels` binds zero-copy views over an
:class:`~repro.core.lca_index.LcaIndex`'s four flat columns, derives
the index's range-minimum structure from the depth column with
whole-array passes, and answers *batches* of LCA/distance queries and
whole auxiliary-tree constructions without a python-level loop per
element.

The range-minimum structure is a **sampled sparse table**: levels
0‥4 (windows of 1‥16 tour steps) for every position as one-byte
offsets, and the levels from 4 up only at every 16th position.  A range
shorter than 32 steps is the textbook two-window query on the dense
levels; a longer one is its two 16-step end windows plus the textbook
query over the 16-aligned interior on the sampled levels — about 6
bytes per tour step where the full table took 8·log₂(tour).  It is
derived when the kernels bind and never persisted.

Two vectorization facts carry the module:

* a range-minimum batch needs no grouping by window size: every range
  reads two windows of its own level off the dense table rows (its
  16-step end windows when it spans 32 tour steps or more), and the
  long ranges — a minority, Euler-order neighbours are close — add the
  two sampled windows over their block-aligned interior: flat ``take``
  gathers and elementwise depth compares throughout;
* for a candidate set closed under pairwise LCA and sorted in
  pre-order, the auxiliary-tree parent of ``c_i`` is exactly
  ``lca(c_{i-1}, c_i)`` — so the classic stack walk over the sorted
  candidates becomes one more batched RMQ plus a ``searchsorted`` to
  turn parent OIDs into positions.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Tuple

import numpy as np

from ..datamodel.errors import UnknownOIDError

__all__ = ["LcaKernels", "get_kernels", "sorted_unique", "BLOCK", "DENSE_LEVELS"]

#: Tour positions between two samples of the upper table levels.
BLOCK = 16
#: Table levels kept for every tour position: windows of 1‥``BLOCK``.
DENSE_LEVELS = 5

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


def _bound(column) -> np.ndarray:
    """An index column as an array of its own item width: a snapshot
    ``memoryview`` is viewed in place (the pages stay the mmap's), an
    ``array`` the index owns is copied — a view would pin its buffer
    against the index's next append."""
    view = np.asarray(column)
    return view.copy() if isinstance(column, array) else view


def _regrown(view: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``view`` regrown to ``shape``: old cells kept, new cells unset.

    The result is a corner view of an owned, contiguous backing array
    (its ``.base``) allocated with half as much room again along the
    last axis, so a run of tail appends copies the old cells O(1) times
    amortized.  A read-only view over an mmap'd snapshot (or any array
    without spare room) pays its one copy here.
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


class LcaKernels:
    """Vector views + batch kernels bound to one :class:`LcaIndex`.

    Instances are cached per index (:func:`get_kernels`), and an index
    lives across writes (:meth:`LcaIndex.roll_forward`), so the view
    binding and the table derivation are paid once per store; after a
    write :meth:`follow` extends the arrays at the tail.
    """

    __slots__ = (
        "index", "base", "tour", "depth", "first", "last",
        "near", "far", "_near_rows", "_pids",
    )

    def __init__(self, index):
        self.index = index
        self.base = int(index.store.first_oid)
        for name, column in index.columns().items():
            setattr(self, name, _bound(column))
        self.near = np.empty((DENSE_LEVELS, 0), dtype=np.uint8)
        self.far = np.empty((0, 0), dtype=np.int32)
        self._extend_table(0)
        self._pids = np.empty(0, dtype=np.int32)

    def pids(self) -> np.ndarray:
        """The store's dense OID → pid column as an int32 array.

        A put extends the store's column and nothing else changes it (a
        delete only adds tombstones; a compaction makes a new store,
        hence new kernels), so the copy made on first use is caught up
        at the tail — a view would pin the column against that append.
        """
        column = self.index.store.dense_columns()[0]
        known = len(self._pids)
        if known < len(column):
            grown = _regrown(self._pids, (len(column),))
            grown[known:] = column[known:]
            self._pids = grown
        return self._pids

    def _extend_table(self, old: int) -> None:
        """Fill the table cells a depth column grown from ``old`` adds.

        Two matrices, rows right-padded: ``near[k, i]`` is the offset
        from ``i`` of the leftmost minimum of ``depth[i : i + 2**k]``
        (one byte; ``k < DENSE_LEVELS``), and ``far[r, j]`` the position
        of the leftmost minimum of the ``2**r`` blocks starting at
        ``j * BLOCK``.  A row's cells from the last window that fitted
        the old column to the last that fits now come from the row
        below, one pass each — from empty rows that is the whole
        derivation, after a put it is the tail.
        """
        depth = self.depth
        length = len(depth)
        blocks = length // BLOCK
        self.near = near = _regrown(self.near, (DENSE_LEVELS, length))
        self.far = far = _regrown(
            self.far, (blocks.bit_length(), max(blocks, 1))
        )
        for level in range(1, DENSE_LEVELS):
            half = 1 << (level - 1)
            start, stop = max(old - 2 * half + 1, 0), length - 2 * half + 1
            if start >= stop:
                continue
            left = near[level - 1, start:stop]
            right = near[level - 1, start + half : stop + half] + half
            here = np.arange(start, stop)
            near[level, start:stop] = np.where(
                depth[here + left] <= depth[here + right], left, right
            )
        for rank in range(len(far)):
            span = 1 << rank
            start, stop = max(old // BLOCK - span + 1, 0), blocks - span + 1
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

    def follow(self, dropped: Iterable[Tuple[int, int]]) -> None:
        """Catch up with an index that was just rolled forward.

        The index only ever appends — tour steps, dense first/last
        slots and the table cells of the windows that now fit — so
        every array is regrown in place and only its tail is read out
        of the index's columns: O(Δ) conversions per write, no pass
        over the old cells.  ``dropped`` names the OID spans deletes
        tombstoned; the root's ``last`` is the one old slot a put moves.
        """
        columns = self.index.columns()
        old_length = len(self.tour)
        for name, column in columns.items():
            old = getattr(self, name)
            grown = _regrown(old, (len(column),))
            grown[len(old):] = column[len(old):]
            setattr(self, name, grown)
        for low, high in dropped:
            self.first[low - self.base : high - self.base + 1] = -1
            self.last[low - self.base : high - self.base + 1] = -1
        root = int(self.tour[0]) - self.base
        self.last[root] = columns["last"][root]
        self._extend_table(old_length)

    # -- primitives ------------------------------------------------------
    def first_positions(self, oids: np.ndarray) -> np.ndarray:
        """First Euler positions of a batch of OIDs, validated.

        Out-of-span OIDs and tombstoned OIDs (``-1`` in the dense
        first column) raise :class:`UnknownOIDError` naming the first
        offender, matching the scalar kernels' contract.
        """
        oids = np.asarray(oids, dtype=_INT64)
        slots = oids - self.base
        bad = (slots < 0) | (slots >= len(self.first))
        if bad.any():
            raise UnknownOIDError(int(oids[int(bad.argmax())]))
        firsts = self.first[slots]
        dead = firsts < 0
        if dead.any():
            raise UnknownOIDError(int(oids[int(dead.argmax())]))
        return firsts

    def rmq_positions(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Position of the min-depth tour entry in each ``[low, high]``.

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

    # -- batched LCA -----------------------------------------------------
    def lca_many(
        self, oids_a: np.ndarray, oids_b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(meet OIDs, distances) for parallel OID arrays — one pass."""
        first_a = self.first_positions(oids_a)
        first_b = self.first_positions(oids_b)
        low = np.minimum(first_a, first_b)
        high = np.maximum(first_a, first_b)
        positions = self.rmq_positions(low, high)
        depth = self.depth
        distances = depth[first_a] + depth[first_b] - 2 * depth[positions]
        return self.tour[positions], distances

    # -- auxiliary (virtual) tree ---------------------------------------
    def auxiliary_tree(
        self, oids: np.ndarray, firsts: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The virtual tree spanned by ``oids`` and their mutual LCAs.

        Candidates are the inputs plus the LCAs of Euler-order
        neighbours; that set is closed under LCA and is exactly where
        ≥ 2 input ancestor chains can first converge, so the Fig. 4/5
        roll-ups restricted to it emit the same meets as the full
        instance tree, at a cost independent of tree size and depth.

        Returns ``(order, order_firsts, parent_index)``: the candidate
        OIDs in pre-order, their first Euler positions, and each
        candidate's parent *position* (−1 at the root).  Candidate-set closure under LCA
        makes ``parent(c_i) = lca(c_{i-1}, c_i)``, so parents come
        from one more batched RMQ instead of a python stack walk.
        A caller that already holds ``first_positions(oids)`` passes
        it as ``firsts``.
        """
        if firsts is None:
            firsts = self.first_positions(oids)
        input_firsts = sorted_unique(firsts)
        if len(input_firsts) > 1:
            neighbour_pos = self.rmq_positions(input_firsts[:-1], input_firsts[1:])
            neighbour_firsts = self.first[self.tour[neighbour_pos] - self.base]
            order_firsts = sorted_unique(
                np.concatenate([input_firsts, neighbour_firsts])
            )
        else:
            order_firsts = input_firsts
        order = self.tour[order_firsts]
        parent_index = np.full(len(order), -1, dtype=_INT64)
        if len(order_firsts) > 1:
            parent_pos = self.rmq_positions(order_firsts[:-1], order_firsts[1:])
            parent_firsts = self.first[self.tour[parent_pos] - self.base]
            parent_index[1:] = np.searchsorted(order_firsts, parent_firsts)
        return order, order_firsts, parent_index


def get_kernels(index) -> LcaKernels:
    """The memoized :class:`LcaKernels` of an index (built on first use)."""
    kernels = index._vector_kernels
    if kernels is None:
        kernels = LcaKernels(index)
        index._vector_kernels = kernels
    return kernels
