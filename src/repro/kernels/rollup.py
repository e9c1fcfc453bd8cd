"""Vectorized Fig. 4/5 roll-ups over the auxiliary tree.

Read as walks, the roll-ups visit the auxiliary tree in reverse
pre-order, one node at a time.  Both are really level-wise dataflow on
the auxiliary tree — a node's state depends only on its (strictly
deeper) auxiliary children — so they vectorize as a handful of
whole-array passes per *level* (tree depth, not node count, bounds the
python-level loop).  The levels are the candidates' *document*
depths, one gather from the depth column by slot: an auxiliary child is
strictly deeper in the document than its auxiliary parent, so a
deepest-first pass over them visits children before parents without
ever computing depths inside the auxiliary tree.

* tagged roll-up (Fig. 5): a node accumulating ≥ 2 (token, OID) pairs
  emits and stops propagating, so everything travelling upward is a
  singleton.  ``count`` is an integer column, the pending singleton an
  index column, and each level is one boolean mask, one
  ``np.add.at`` scatter and one assignment scatter;
* set roll-up (Fig. 4): a node emits when both sides reach it; counts
  propagate like above, and origin sets are recovered afterwards by
  assigning every input to its nearest emitting ancestor-or-self
  (one top-down pass), avoiding per-node set unions entirely.

Both kernels emit in reverse pre-order over auxiliary positions, and
their origin/token sets equal the steered walks' exactly — the
differential suites hold the answers byte-identical.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .lca import LcaKernels

__all__ = ["rollup_tagged", "rollup_sets"]

_INT64 = np.int64


def _depth_key(depth: np.ndarray) -> np.ndarray:
    """``depth`` as the narrowest sort key that holds it.

    NumPy's stable ``argsort`` is a radix sort on 16-bit integers and a
    merge sort on wider ones (over ten times slower on the few thousand
    candidates of a request); the order is the same either way.
    """
    if depth.max(initial=0) < 1 << 15:
        return depth.astype(np.int16)
    return depth


def _levels(depth: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Positions grouped by depth, shallowest level first.

    Returns ``(by_depth, bounds)``: level ``k`` is
    ``by_depth[bounds[k]:bounds[k + 1]]``.
    """
    by_depth = np.argsort(_depth_key(depth), kind="stable")
    cuts = np.flatnonzero(np.diff(depth[by_depth])) + 1
    return by_depth, [0, *cuts.tolist(), len(depth)]


def rollup_tagged(
    kernels: LcaKernels, pair_oids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Fig. 5 roll-up over one flat (token, OID)-pair OID column.

    ``pair_oids[i]`` is the OID of distinct pair ``i`` (token identity
    is irrelevant to propagation — only pair multiplicity per node
    matters).  Returns ``(order, emitted_positions, group_pairs,
    boundaries)``: the auxiliary pre-order OIDs, the emitting
    positions in reverse pre-order, one flat column of covered pair
    indexes, and the start offsets splitting it per emitting position
    — flat + boundaries instead of ``np.split`` so no per-group
    subarray is ever created.
    """
    order, slots, parent_index, pair_positions = kernels.auxiliary_tree(
        pair_oids
    )
    size = len(order)
    own_count = np.bincount(pair_positions, minlength=size)
    count = own_count.astype(_INT64)
    # The lone pending pair per position; positions holding ≥ 2 own
    # pairs emit regardless, so their clobbered slot is never read.
    pending = np.full(size, -1, dtype=_INT64)
    pending[pair_positions] = np.arange(len(pair_oids))

    contribution_targets: List[np.ndarray] = [pair_positions]
    contribution_pairs: List[np.ndarray] = [np.arange(len(pair_oids))]

    # The shallowest level is the auxiliary root alone (every other
    # candidate lies strictly below it): nothing to send to.
    by_depth, bounds = _levels(kernels.depth[slots])
    for level in range(len(bounds) - 2, 0, -1):
        positions = by_depth[bounds[level]:bounds[level + 1]]
        # Exactly the nodes whose accumulated pair is a singleton
        # propagate (emitted nodes stop; empty nodes have nothing).
        senders = positions[count[positions] == 1]
        if not len(senders):
            continue
        targets = parent_index[senders]
        np.add.at(count, targets, 1)
        contribution_targets.append(targets)
        contribution_pairs.append(pending[senders])
        pending[targets] = pending[senders]

    emit_mask = count >= 2
    all_targets = np.concatenate(contribution_targets)
    all_pairs = np.concatenate(contribution_pairs)
    keep = emit_mask[all_targets]
    kept_targets = all_targets[keep]
    if not len(kept_targets):
        empty = np.empty(0, dtype=_INT64)
        return order, empty, empty, empty
    # A pair reaches any given target at most once, so one combined
    # key sorts by target and keeps groups contiguous in a single
    # pass; reversing the ascending keys yields the reverse
    # pre-order emission (pair order within a group is
    # irrelevant — the pairs become a frozenset).
    span = np.int64(len(pair_oids))
    keys = np.sort(kept_targets * span + all_pairs[keep])[::-1]
    group_targets = keys // span
    group_pairs = keys % span
    boundaries = np.nonzero(np.diff(group_targets))[0] + 1
    emitted = group_targets[np.concatenate(([0], boundaries))]
    return order, emitted, group_pairs, boundaries


def rollup_sets(
    kernels: LcaKernels,
    inputs: np.ndarray,
    in_left: np.ndarray,
    in_right: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Fig. 4 set roll-up over sorted distinct input OIDs.

    ``in_left`` / ``in_right`` flag each input's side membership (an
    OID may carry both).  Returns ``(order, emitted_positions,
    origin_indexes, boundaries)``: emitting positions in reverse
    pre-order and one flat column of origin indexes (into ``inputs``)
    split per position by the boundary offsets — within a position the
    indexes ascend.
    """
    order, slots, parent_index, input_positions = kernels.auxiliary_tree(
        inputs
    )
    size = len(order)
    left_count = np.bincount(input_positions[in_left], minlength=size)
    right_count = np.bincount(input_positions[in_right], minlength=size)

    by_depth, bounds = _levels(kernels.depth[slots])
    # Bottom-up: non-emitting nodes forward both side counts upward
    # (level 0 is the auxiliary root alone, which has no parent).
    for level in range(len(bounds) - 2, 0, -1):
        positions = by_depth[bounds[level]:bounds[level + 1]]
        lefts = left_count[positions]
        rights = right_count[positions]
        forwarding = positions[
            ((lefts == 0) | (rights == 0)) & ((lefts + rights) > 0)
        ]
        if not len(forwarding):
            continue
        targets = parent_index[forwarding]
        np.add.at(left_count, targets, left_count[forwarding])
        np.add.at(right_count, targets, right_count[forwarding])

    emit_mask = (left_count > 0) & (right_count > 0)
    # Top-down: every position's nearest emitting ancestor-or-self —
    # exactly where an input's origin bit comes to rest.
    nearest_emitter = np.full(size, -1, dtype=_INT64)
    for level in range(len(bounds) - 1):
        positions = by_depth[bounds[level]:bounds[level + 1]]
        parents = parent_index[positions]
        inherited = np.where(parents >= 0, nearest_emitter[parents], -1)
        nearest_emitter[positions] = np.where(
            emit_mask[positions], positions, inherited
        )

    targets = nearest_emitter[input_positions]
    keep = targets >= 0
    kept_targets = targets[keep]
    if not len(kept_targets):
        empty = np.empty(0, dtype=_INT64)
        return order, empty, empty, empty
    kept_inputs = np.arange(len(inputs), dtype=_INT64)[keep]
    # Input indexes are distinct, so one combined key both sorts by
    # descending target and keeps indexes ascending within a group
    # (the reversal flips targets to reverse pre-order; negating the
    # index part restores its ascending order).
    span = np.int64(len(inputs))
    keys = np.sort(kept_targets * span + (span - 1 - kept_inputs))[::-1]
    group_targets = keys // span
    origin_indexes = span - 1 - keys % span
    boundaries = np.nonzero(np.diff(group_targets))[0] + 1
    emitted = group_targets[np.concatenate(([0], boundaries))]
    return order, emitted, origin_indexes, boundaries
