"""Batched Euler-RMQ LCA and auxiliary-tree kernels (NumPy tier).

This module is only imported once :func:`repro.kernels.available` has
confirmed NumPy; it binds zero-copy ``int64`` views over an
:class:`~repro.core.lca_index.LcaIndex`'s flat columns (the Euler
tour, its depths, the dense first/last columns and the sparse-table
rows) and answers *batches* of LCA/distance queries and whole
auxiliary-tree constructions without a python-level loop per element.

Two vectorization facts carry the module:

* the sparse-table RMQ groups naturally by the block exponent ``k``:
  a batch of (low, high) ranges decomposes into at most ``log₂ tour``
  groups, each answered by two fancy-indexed row gathers and one
  elementwise depth compare;
* for a candidate set closed under pairwise LCA and sorted in
  pre-order, the auxiliary-tree parent of ``c_i`` is exactly
  ``lca(c_{i-1}, c_i)`` — so the stack walk of
  :meth:`LcaIndex.auxiliary_tree_arrays` becomes one more batched RMQ
  plus a ``searchsorted`` to turn parent OIDs into positions.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..datamodel.errors import UnknownOIDError

__all__ = ["LcaKernels", "get_kernels", "sorted_unique", "tree_depths"]

_INT64 = np.int64


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` by sort + neighbour compare.

    For the small-to-medium int64 batches the kernels see, sorting
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


def _as_int64(column) -> np.ndarray:
    """A zero-copy ``int64`` view of a flat column where possible.

    Mmap'd snapshot memoryviews go through the buffer protocol;
    python lists (built or rolled-forward indexes) and ``range``
    (sparse-table row 0) fall back to a copy.
    """
    if isinstance(column, np.ndarray):
        return column if column.dtype == _INT64 else column.astype(_INT64)
    try:
        return np.frombuffer(column, dtype=_INT64)
    except (TypeError, ValueError, BufferError):
        return np.asarray(column, dtype=_INT64)


def _regrown(view: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``view`` regrown to ``shape``: old cells kept, new cells unset.

    The result is a corner view of an owned backing array allocated
    with half as much room again along the last axis, so a run of tail
    appends copies the old cells O(1) times amortized.  A read-only
    view over an mmap'd snapshot (or any array without spare room)
    pays its one copy here.
    """
    backing = view.base
    if not (
        isinstance(backing, np.ndarray)
        and backing.flags.writeable
        and all(have >= want for have, want in zip(backing.shape, shape))
    ):
        backing = np.zeros(
            (*shape[:-1], shape[-1] + shape[-1] // 2), dtype=_INT64
        )
        backing[tuple(slice(used) for used in view.shape)] = view
    return backing[tuple(slice(want) for want in shape)]


def tree_depths(parent_index: np.ndarray) -> np.ndarray:
    """Depth of every node given parent *positions* (−1 at roots).

    Pointer doubling: roots self-loop contributing zero, so after
    O(log depth) rounds of ``depth += depth[jump]; jump = jump[jump]``
    every chain has collapsed.  Whole-array gathers only — no
    sequential python walk.
    """
    size = len(parent_index)
    depth = (parent_index >= 0).astype(_INT64)
    jump = np.where(parent_index >= 0, parent_index, np.arange(size))
    while True:
        advanced = depth + depth[jump]
        if np.array_equal(advanced, depth):
            return depth
        depth = advanced
        jump = jump[jump]


class LcaKernels:
    """Vector views + batch kernels bound to one :class:`LcaIndex`.

    Instances are cached per index (:func:`get_kernels`), and an index
    lives across writes (:meth:`LcaIndex.roll_forward`), so the view
    binding — and the one-time densification of a freshly built
    index's first/last dicts — is paid once per store; after a write
    :meth:`follow` extends the arrays at the tail.
    """

    __slots__ = (
        "index",
        "base",
        "tour",
        "depth",
        "first",
        "last",
        "log",
        "table",
        "_pids",
    )

    def __init__(self, index):
        columns = index.kernel_columns()
        self.index = index
        self.base = int(columns["base"])
        self.tour = _as_int64(columns["tour"])
        self.depth = _as_int64(columns["depth"])
        self.first = _as_int64(columns["first"])
        self.last = _as_int64(columns["last"])
        self.log = _as_int64(columns["log"])
        # The sparse-table rows consolidated into one (log, tour)
        # matrix (row k right-padded; the pad is never gathered), so a
        # whole RMQ batch is two 2-D fancy indexes with no python loop
        # over exponents.
        rows = [_as_int64(row) for row in columns["table"]]
        width = len(rows[0]) if rows else 0
        table = np.zeros((max(len(rows), 1), width), dtype=_INT64)
        for exponent, row in enumerate(rows):
            table[exponent, : len(row)] = row
        self.table = table
        self._pids = np.empty(0, dtype=_INT64)

    def pids(self) -> np.ndarray:
        """The store's dense OID → pid column as an array.

        The store keeps it as a python list that a put extends and
        nothing else changes (a delete only adds tombstones; a
        compaction makes a new store, hence new kernels), so the copy
        made on first use is caught up at the tail.
        """
        column = self.index.store.dense_columns()[0]
        known = len(self._pids)
        if known < len(column):
            grown = _regrown(self._pids, (len(column),))
            grown[known:] = column[known:]
            self._pids = grown
        return self._pids

    def follow(self, dropped: Iterable[Tuple[int, int]]) -> None:
        """Catch up with an index that was just rolled forward.

        The index only ever appends — tour steps, log entries, dense
        first/last slots and the cells each sparse-table row gains at
        its end — so every array is regrown in place and only its tail
        is read out of the index's columns: O(Δ log n) conversions per
        write, no pass over the old cells.  ``dropped`` names the OID
        spans deletes tombstoned; the root's ``last`` is the one old
        slot a put moves.
        """
        columns = self.index.kernel_columns()
        for name in ("tour", "depth", "log", "first", "last"):
            old = getattr(self, name)
            column = columns[name]
            grown = _regrown(old, (len(column),))
            grown[len(old):] = column[len(old):]
            setattr(self, name, grown)
        for low, high in dropped:
            self.first[low - self.base : high - self.base + 1] = -1
            self.last[low - self.base : high - self.base + 1] = -1
        root = int(self.tour[0]) - self.base
        self.last[root] = columns["last"][root]
        rows = columns["table"]
        old_width = self.table.shape[1]
        table = _regrown(self.table, (len(rows), len(self.tour)))
        for exponent, row in enumerate(rows):
            start = max(old_width - (1 << exponent) + 1, 0)
            table[exponent, start : len(row)] = row[start:]
        self.table = table

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

        Each query reads its sparse-table exponent ``k`` and gathers
        the two covering blocks straight out of the consolidated table
        matrix; ties break to the left entry exactly like the scalar
        RMQ.
        """
        exponents = self.log[high - low + 1]
        depth = self.depth
        left = self.table[exponents, low]
        right = self.table[
            exponents, high - (np.int64(1) << exponents) + 1
        ]
        return np.where(depth[left] <= depth[right], left, right)

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

    def lca_pairs(self, pairs: Iterable[Tuple[int, int]]) -> List[int]:
        """Batched LCA over an iterable of pairs, as plain python ints."""
        materialized = pairs if isinstance(pairs, np.ndarray) else list(pairs)
        if len(materialized) == 0:
            return []
        table = np.asarray(materialized, dtype=_INT64).reshape(-1, 2)
        meets, _ = self.lca_many(table[:, 0], table[:, 1])
        return meets.tolist()

    # -- auxiliary (virtual) tree ---------------------------------------
    def auxiliary_tree(
        self, oids: np.ndarray, firsts: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`LcaIndex.auxiliary_tree_arrays`.

        Returns ``(order, order_firsts, parent_index)``: the candidate
        OIDs (inputs plus LCAs of pre-order neighbours) in pre-order,
        their first Euler positions, and each candidate's parent
        *position* (−1 at the root).  Candidate-set closure under LCA
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
