"""The sampled sparse table against a brute-force leftmost arg-min.

±1 walks × ranges drawn at the level boundaries (lengths 1, 16, 17, 31,
32, 33, ends on and next to multiples of 16, the whole walk), and a
table regrown after appends (:meth:`LcaKernels.follow`) against one
derived from scratch, cell for cell.
"""

import numpy as np
from hypothesis import given, settings

from repro.kernels.lca import LcaKernels

from ..property.strategies import (
    walk_index,
    walks_in_pieces,
    walks_with_ranges,
)


@settings(max_examples=150, deadline=None)
@given(walks_with_ranges())
def test_batch_range_minimum_is_the_leftmost_minimum(case):
    walk, ranges = case
    index = walk_index(walk)
    bounds = np.asarray(ranges, dtype=np.int32)
    positions = LcaKernels(index).rmq_positions(bounds[:, 0], bounds[:, 1])
    expected = [
        low + walk[low : high + 1].index(min(walk[low : high + 1]))
        for low, high in ranges
    ]
    assert positions.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(walks_in_pieces())
def test_followed_table_equals_a_derived_one(case):
    walk, lengths = case
    index = walk_index(walk[: lengths[0]])
    followed = LcaKernels(index)
    for old, new in zip(lengths, lengths[1:]):
        index._tour.extend([0] * (new - old))
        index._depth.extend(walk[old:new])
        index._last[0] = new - 1
        followed.follow([])
    fresh = LcaKernels(walk_index(walk))
    assert np.array_equal(followed.depth, fresh.depth)
    assert np.array_equal(followed.last, fresh.last)
    assert np.array_equal(followed.near, fresh.near)
    assert np.array_equal(followed.far, fresh.far)
