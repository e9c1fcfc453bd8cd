"""The sampled sparse table against a brute-force leftmost arg-min.

±1 walks × ranges drawn at the level boundaries (lengths 1, 16, 17, 31,
32, 33, ends on and next to multiples of 16, the whole walk), and a
table refilled after appends and after tombstoned spans
(:meth:`LcaKernels.follow`) against one derived from scratch, cell for
cell.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.lca import DEAD, LcaKernels

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
    followed = LcaKernels(walk_index(walk[: lengths[0]]))
    for old, new in zip(lengths, lengths[1:]):
        followed.follow(np.asarray(walk[:new], dtype=np.int32), [(old, new)])
    fresh = LcaKernels(walk_index(walk))
    assert np.array_equal(followed.depth, fresh.depth)
    assert np.array_equal(followed.near, fresh.near)
    assert np.array_equal(followed.far, fresh.far)


@settings(max_examples=100, deadline=None)
@given(walks_with_ranges(), st.data())
def test_refilled_span_equals_a_derived_table(case, data):
    """Blanking spans to ``DEAD`` (a delete) refills exactly the cells
    a derivation over the blanked column computes."""
    walk, ranges = case
    followed = LcaKernels(walk_index(walk))
    depths = np.asarray(walk, dtype=np.int32)
    spans = data.draw(st.lists(st.sampled_from(ranges), max_size=3))
    for low, high in spans:
        depths[low : high + 1] = DEAD
        followed.follow(depths, [(low, high + 1)])
    fresh = LcaKernels(walk_index(depths.tolist()))
    assert np.array_equal(followed.near, fresh.near)
    assert np.array_equal(followed.far, fresh.far)
