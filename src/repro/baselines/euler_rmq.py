"""Euler-tour + sparse-table RMQ LCA, the classic offline answer to
the LCA problem the paper cites as refs. [4, 5].

The served index (:mod:`repro.core.lca_index`) reads the same answers
off one depth column in OID order, since every store is in pre-order;
this textbook construction — a python walk of the 2n − 1 step tour and
a full sparse table over its depths, sharing no code with the served
index — is kept as an oracle and ablation baseline.  Tombstoned nodes
are not on the tour and raise
:class:`~repro.datamodel.errors.UnknownOIDError`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..datamodel.errors import UnknownOIDError
from ..monet.engine import MonetXML

__all__ = ["EulerTourLCA"]


class EulerTourLCA:
    """O(1) LCA and distance after an Euler tour of the store."""

    def __init__(self, store: MonetXML):
        children: Dict[int, List[int]] = {}  # in OID (= document) order
        for oid, parent in enumerate(store.dense_columns()[1], store.first_oid):
            if parent >= 0:
                children.setdefault(parent, []).append(oid)
        self._tour: List[int] = []
        self._depths: List[int] = []
        self._first: Dict[int, int] = {}
        stack: List[Tuple[int, int, int]] = [(store.root_oid, 1, 0)]
        while stack:
            oid, depth, cursor = stack.pop()
            self._first.setdefault(oid, len(self._tour))
            self._tour.append(oid)
            self._depths.append(depth)
            below = children.get(oid, ())
            if cursor < len(below):
                stack.append((oid, depth, cursor + 1))
                stack.append((below[cursor], depth + 1, 0))
        # table[k][i]: tour position of the leftmost minimum depth in
        # the window of 2**k steps starting at i.
        self._table = [list(range(len(self._tour)))]
        span = 1
        while 2 * span <= len(self._tour):
            row = self._table[-1]
            self._table.append([
                left if self._depths[left] <= self._depths[right] else right
                for left, right in zip(row, row[span:])
            ])
            span *= 2

    @property
    def tour_length(self) -> int:
        return len(self._tour)

    def _position(self, oid: int) -> int:
        position = self._first.get(oid)
        if position is None:
            raise UnknownOIDError(oid)
        return position

    def lca_with_distance(self, oid1: int, oid2: int) -> Tuple[int, int]:
        low, high = sorted((self._position(oid1), self._position(oid2)))
        level = (high - low + 1).bit_length() - 1
        left = self._table[level][low]
        right = self._table[level][high - (1 << level) + 1]
        meet = left if self._depths[left] <= self._depths[right] else right
        depths = self._depths
        distance = depths[low] + depths[high] - 2 * depths[meet]
        return self._tour[meet], distance

    def lca(self, oid1: int, oid2: int) -> int:
        return self.lca_with_distance(oid1, oid2)[0]

    def distance(self, oid1: int, oid2: int) -> int:
        return self.lca_with_distance(oid1, oid2)[1]
