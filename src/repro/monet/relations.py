"""Relation families as pid-grouped flat columns (Definition 4).

The Monet transform gives one binary relation per path.  Stored one
after the other in pid order, those relations are one pair of flat
columns cut into *runs*: the relation of ``pid`` is the run
``heads[offsets[pid]:offsets[pid + 1]]`` beside the same slice of
``tails``.  A store keeps its string associations this way
(:class:`Runs`) and derives the ``edges`` and ``ranks`` families from
its dense OID columns (:class:`DenseRegrouping`); each family reads as
a ``pid → BAT`` mapping (:class:`LazyRelationFamily`) whose BATs are
per-pid *views*, built on first access for the paper's operators.

Rows keep OID order inside every run: stores are pre-order and writes
append at the OID tail, so a stable pid sort of rows in OID order is
the whole grouping.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import compress
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bat import BAT

__all__ = [
    "Runs",
    "group_runs",
    "group_rows",
    "DenseRegrouping",
    "LazyRelationFamily",
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
        """The (heads, tails) run of ``pid`` as two slices."""
        start, stop = int(self.offsets[pid]), int(self.offsets[pid + 1])
        return self.heads[start:stop], self.tails[start:stop]

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


class DenseRegrouping:
    """The ``edges`` and ``ranks`` families of a store, derived.

    Both are the dense columns regrouped by pid over the live nodes
    (every node whose parent is set, plus the root), rows in OID order.
    One stable pid order of the live OID slots serves both: ``ranks``
    is ``(order + first_oid, rank[order])`` and ``edges`` is
    ``(parent[order], order + first_oid)`` without the root — OIDs as
    int64, since a leaf's OID sits in no int32 column.  It is computed
    on the first access of either family (a bincount and a stable
    argsort) over columns whose pids name paths and whose parents lie
    inside the store.
    """

    def __init__(
        self, columns: Sequence[Sequence[int]], first_oid: int, root_index: int
    ):
        self._columns = columns
        self._first_oid = first_oid
        self._root_index = root_index
        self._order = None

    def _ordered(self):
        """(rows per pid, live OID slots in stable pid order)."""
        if self._order is None:
            pids = np.asarray(self._columns[0])
            live = np.asarray(self._columns[1]) >= 0
            live[self._root_index] = True
            slots = np.flatnonzero(live)
            self._order = (
                np.bincount(pids[slots]),
                slots[np.argsort(pids[slots], kind="stable")],
            )
        return self._order

    def ranks(self) -> Runs:
        counts, order = self._ordered()
        return group_runs(
            counts,
            order + self._first_oid,
            np.asarray(self._columns[2])[order],
        )

    def edges(self) -> Runs:
        counts, order = self._ordered()
        root = self._root_index
        counts = counts.copy()
        counts[self._columns[0][root]] -= 1
        order = order[order != root]
        return group_runs(
            counts,
            np.asarray(self._columns[1])[order],
            order + self._first_oid,
        )


class LazyRelationFamily(Mapping):
    """pid → BAT over pid-grouped flat columns, materialized on access.

    A store carries one relation per path — tens of thousands of tiny
    BATs — but a query touches only the handful its hit paths name.
    The family is its :class:`Runs`, obtained from ``runs`` on first use
    (deriving ``edges``/``ranks`` costs a sort, and the nearest-concept
    path never asks), and each BAT is built, then memoized, on first
    access.  Read-only: a write gives the store new families.
    """

    __slots__ = ("_derive", "_runs", "_cache")

    def __init__(self, runs: Callable[[], Runs]):
        self._derive = runs
        self._runs: Optional[Runs] = None
        self._cache: Dict[int, BAT] = {}

    def _bound(self) -> Runs:
        """The family's runs, derived on first use."""
        runs = self._runs
        if runs is None:
            # Racing first readers may both derive; each publishes a
            # whole Runs, so none sees a half-built one.
            runs = self._runs = self._derive()
        return runs

    def _span(self, pid: object) -> Optional[Tuple[int, int]]:
        offsets = self._bound().offsets
        try:
            pid = operator.index(pid)
        except TypeError:
            return None
        if not 0 < pid < len(offsets) - 1:
            return None
        start, stop = int(offsets[pid]), int(offsets[pid + 1])
        return (start, stop) if start < stop else None

    def __getitem__(self, pid: int) -> BAT:
        cached = self._cache.get(pid)
        if cached is not None:
            return cached
        span = self._span(pid)
        if span is None:
            raise KeyError(pid)  # the Mapping contract
        runs = self._bound()
        heads = runs.heads[span[0] : span[1]]
        tails = runs.tails[span[0] : span[1]]
        relation = BAT.from_columns(
            heads.tolist(),
            tails if isinstance(tails, list) else tails.tolist(),
            copy=False,
        )
        self._cache[pid] = relation
        return relation

    def __iter__(self):
        return iter(self._bound().pids.tolist())

    def __len__(self) -> int:
        return len(self._bound().pids)

    def __contains__(self, pid: object) -> bool:
        return self._span(pid) is not None
