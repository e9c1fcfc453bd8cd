"""Vectorized postings set algebra for the full-text index (NumPy tier).

Postings are parallel (pid, oid) integer columns — ``array('q')`` in a
built index, int32 snapshot sections in a loaded one — bound here at
their own width.  The python implementations of conjunctive /
disjunctive search materialize python tuple sets per term; here the
same operations run over a combined int64 ``pid * stride + oid`` key
column (the stride exceeds every OID, so key order *is* lexicographic
(pid, oid) order and the decode is exact):

* :func:`intersect_columns` — sorted-array intersection
  (``np.intersect1d`` over per-term unique keys), emitting (pid, oid)
  ascending exactly like ``sorted(set & set & ...)``;
* :func:`union_columns` — first-seen-order deduplicating union
  (``np.unique(..., return_index=True)`` then an index sort), matching
  the python loop's insertion order;
* :func:`group_boundaries` — pid group starts over a sorted pid
  column via ``searchsorted``/``diff``, for by-pid regrouping.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["intersect_columns", "union_columns", "group_boundaries"]

_INT64 = np.int64

_EMPTY = np.empty(0, dtype=_INT64)


def _stride(columns: Sequence[Tuple[np.ndarray, np.ndarray]]) -> int:
    """A combined-key stride exceeding every OID in the columns."""
    highest = 0
    for _, oids in columns:
        if len(oids):
            highest = max(highest, int(oids.max()))
    return highest + 1


def _as_column_pairs(
    columns,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    # Zero-copy through the buffer protocol, at each column's own item
    # width (``array('q')``, int32 snapshot views).
    return [(np.asarray(pids), np.asarray(oids)) for pids, oids in columns]


def _keys(pids: np.ndarray, oids: np.ndarray, stride: int) -> np.ndarray:
    """The combined key column, int64 whatever the columns' width."""
    return pids.astype(_INT64, copy=False) * stride + oids


def intersect_columns(columns) -> Tuple[np.ndarray, np.ndarray]:
    """(pid, oid) pairs present in *every* column, ascending.

    ``columns`` is an iterable of (pid column, oid column) pairs, one
    per term.  Equivalent to intersecting python tuple-sets and
    sorting, without materializing a tuple per posting.
    """
    pairs = _as_column_pairs(columns)
    if not pairs:
        return _EMPTY, _EMPTY
    stride = _stride(pairs)
    keys = np.unique(_keys(*pairs[0], stride))
    for pids, oids in pairs[1:]:
        if not len(keys):
            break
        keys = np.intersect1d(
            keys, np.unique(_keys(pids, oids, stride)), assume_unique=True
        )
    return keys // stride, keys % stride


def union_columns(columns) -> Tuple[np.ndarray, np.ndarray]:
    """(pid, oid) pairs of any column, deduplicated, first-seen order.

    Matches the python merge loop exactly: a posting appears at the
    position of its first occurrence across the concatenated columns.
    """
    pairs = _as_column_pairs(columns)
    pairs = [(pids, oids) for pids, oids in pairs if len(oids)]
    if not pairs:
        return _EMPTY, _EMPTY
    stride = _stride(pairs)
    all_pids = np.concatenate([pids for pids, _ in pairs])
    all_oids = np.concatenate([oids for _, oids in pairs])
    _, first_seen = np.unique(
        _keys(all_pids, all_oids, stride), return_index=True
    )
    order = np.sort(first_seen)
    return all_pids[order], all_oids[order]


def group_boundaries(sorted_pids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct pids, group start offsets) of a sorted pid column."""
    pids = np.asarray(sorted_pids)
    if not len(pids):
        return _EMPTY, _EMPTY
    starts = np.concatenate(([0], np.nonzero(np.diff(pids))[0] + 1))
    return pids[starts], starts
