"""Relation families as pid-grouped flat columns (Definition 4).

The Monet transform gives one binary relation per path.  Stored one
after the other in pid order, those relations are one pair of flat
columns cut into *runs*: the relation of ``pid`` is the run
``heads[offsets[pid]:offsets[pid + 1]]`` beside the same slice of
``tails``.  A store keeps its string associations this way
(:class:`Runs`) and derives the ``edges`` family from its dense OID
columns (:func:`dense_edges`); every reader of a relation reads its
run.

Rows keep OID order inside every run: stores are pre-order and writes
append at the OID tail, so a stable pid sort of rows in OID order is
the whole grouping, and an OID's rows in a run are found by bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "Runs",
    "group_runs",
    "group_rows",
    "dense_edges",
]


class Runs(NamedTuple):
    """One relation family as pid-grouped flat columns.

    ``pids`` lists, ascending, the pids whose run is not empty — the
    family's keys; ``offsets`` has one more entry than the pid bound.
    ``heads`` is an integer column (a NumPy array or an int32 snapshot
    view), ``tails`` an integer column or a list of strings.  Runs are
    never changed in place: every write builds new ones.
    """

    pids: np.ndarray
    offsets: np.ndarray
    heads: Sequence
    tails: Sequence

    def lengths(self) -> np.ndarray:
        """Rows per pid of :attr:`pids`."""
        return np.diff(self.offsets)[self.pids]

    def run(self, pid: int) -> Tuple[Sequence, Sequence]:
        """The (heads, tails) run of ``pid`` as two slices, empty for a
        pid past the family's bound."""
        if not 0 <= pid < len(self.offsets) - 1:
            return self.heads[:0], self.tails[:0]
        start, stop = int(self.offsets[pid]), int(self.offsets[pid + 1])
        return self.heads[start:stop], self.tails[start:stop]

    def tails_of(self, pid: int, head: int) -> Sequence:
        """The tails of ``head``'s rows in the run of ``pid``: one
        bisection over the run's OID-ordered heads."""
        heads, tails = self.run(pid)
        start = bisect_left(heads, head)
        return tails[start : bisect_right(heads, head, start)]

    def where(self, keep: np.ndarray) -> "Runs":
        """The rows for which the boolean column ``keep`` holds."""
        row_pids = np.repeat(
            np.arange(len(self.offsets) - 1), np.diff(self.offsets)
        )
        return group_runs(
            np.bincount(row_pids[keep], minlength=len(self.offsets) - 1),
            np.asarray(self.heads)[keep],
            list(compress(self.tails, keep.tolist())),
        )

    def with_rows(
        self, pids: Sequence[int], heads: Sequence[int], tails: Sequence
    ) -> "Runs":
        """These runs plus rows ``(pid, head, tail)``, each appended at
        the end of its pid's run, in the given order within a pid."""
        if not len(pids):
            return self
        pids = np.asarray(pids, dtype=np.int64)
        order = np.argsort(pids, kind="stable")
        pids = pids[order]
        bound = len(self.offsets) - 1
        at = self.offsets[np.minimum(pids + 1, bound)]
        counts = np.bincount(pids, minlength=bound)
        counts[:bound] += np.diff(self.offsets)
        order = order.tolist()
        return group_runs(
            counts,
            np.insert(np.asarray(self.heads), at, np.asarray(heads)[order]),
            _spliced(self.tails, at.tolist(), [tails[i] for i in order]),
        )


def _spliced(column: Sequence, at: List[int], values: List) -> List:
    """``column`` with ``values[i]`` inserted before position ``at[i]``
    (``at`` ascending)."""
    spliced: List = []
    start = 0
    for position, value in zip(at, values):
        spliced += column[start:position]
        spliced.append(value)
        start = position
    spliced += column[start:]
    return spliced


def group_runs(counts: np.ndarray, heads: Sequence, tails: Sequence) -> Runs:
    """The runs of pid-grouped columns holding ``counts[pid]`` rows per
    pid."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Runs(np.flatnonzero(counts), offsets, heads, tails)


def group_rows(pids: Sequence[int], heads: Sequence[int], tails: List) -> Runs:
    """Rows ``(pid, head, tail)`` grouped by pid with one stable sort, so
    every run keeps the rows' order."""
    pids = np.asarray(pids, dtype=np.int64)
    order = np.argsort(pids, kind="stable")
    return group_runs(
        np.bincount(pids),
        np.asarray(heads, dtype=np.int32)[order],
        [tails[i] for i in order.tolist()],
    )


def dense_edges(
    pids: Sequence[int], parents: Sequence[int], first_oid: int
) -> Runs:
    """The ``edges`` family of a store, derived from its dense columns.

    Rows ``(parent OID, child OID)`` grouped by the child's pid over
    every node whose parent is set (the root and tombstones have none),
    rows in OID order: one bincount and one stable argsort over columns
    whose pids name paths and whose parents lie inside the store.
    Child OIDs are int64, since a leaf's OID sits in no int32 column.
    """
    pids, parents = np.asarray(pids), np.asarray(parents)
    slots = np.flatnonzero(parents >= 0)
    order = slots[np.argsort(pids[slots], kind="stable")]
    return group_runs(
        np.bincount(pids[slots]), parents[order], order + first_oid
    )
