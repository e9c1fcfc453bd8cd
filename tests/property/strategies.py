"""Hypothesis strategies shared by the property tests.

Documents are generated from a parent-index vector: node i (i ≥ 1)
attaches to a previously created node, which guarantees a valid rooted
tree and gives hypothesis real shrinking power (dropping suffix nodes
yields smaller valid trees).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from hypothesis import strategies as st

from repro.datamodel.document import Document
from repro.datamodel.node import Node
from repro.monet.transform import monet_transform

LABELS = ("a", "b", "c", "d")
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "1999", "icde")


@st.composite
def tree_documents(draw, max_nodes: int = 30, with_text: bool = True):
    """A frozen Document with 1..max_nodes element nodes."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [
        draw(st.integers(min_value=0, max_value=index - 1))
        for index in range(1, size)
    ]
    labels = [draw(st.sampled_from(LABELS)) for _ in range(size)]
    texts: List[Optional[str]] = [None] * size
    if with_text:
        for index in range(size):
            if draw(st.booleans()):
                texts[index] = " ".join(
                    draw(
                        st.lists(
                            st.sampled_from(WORDS), min_size=1, max_size=3
                        )
                    )
                )
    nodes = [Node("root")]
    for index in range(1, size):
        node = Node(labels[index])
        nodes[parents[index - 1]].append(node)
        nodes.append(node)
    for node, text in zip(nodes, texts):
        if text is not None:
            node.text = text
    return Document(nodes[0])


@st.composite
def stores(draw, max_nodes: int = 30, with_text: bool = True):
    """A MonetXML store over a generated document."""
    return monet_transform(draw(tree_documents(max_nodes, with_text)))


@st.composite
def stores_with_oid_pairs(draw, max_nodes: int = 30, max_pairs: int = 5):
    """(store, [(oid1, oid2), …]) with OIDs guaranteed in range."""
    store = draw(stores(max_nodes))
    pairs: List[Tuple[int, int]] = [
        (
            draw(st.integers(store.first_oid, store.last_oid)),
            draw(st.integers(store.first_oid, store.last_oid)),
        )
        for _ in range(draw(st.integers(1, max_pairs)))
    ]
    return store, pairs


@st.composite
def stores_with_oid_sets(draw, max_nodes: int = 30, max_set: int = 6):
    """(store, oid_set) for the n-ary meet properties."""
    store = draw(stores(max_nodes))
    oids = draw(
        st.lists(
            st.integers(store.first_oid, store.last_oid),
            min_size=0,
            max_size=max_set,
        )
    )
    return store, oids


#: Range lengths around the sampled table's level boundaries: the last
#: two-window length is 31, the first four-window length 32.
RMQ_LENGTHS = (1, 2, 15, 16, 17, 31, 32, 33, 47, 48, 64, 65)


@st.composite
def depth_walks(draw, min_steps: int = 0, max_steps: int = 400):
    """A ±1 walk from 1, shaped like a depth column (but free to dip
    below the root: the range minimum never cares).

    The walk reverses with a drawn probability; a high one makes a
    zigzag whose many equal minima are what tests the tie-breaks.
    """
    steps = draw(st.integers(min_steps, max_steps))
    turn = draw(st.sampled_from((0.5, 0.8, 0.95)))
    rng = draw(st.randoms(use_true_random=False))
    walk, step = [1], 1
    for _ in range(steps):
        if rng.random() < turn:
            step = -step
        walk.append(walk[-1] + step)
    return walk


@st.composite
def walk_ranges(draw, size: int, max_ranges: int = 40) -> List[Tuple[int, int]]:
    """Inclusive ``(low, high)`` ranges over ``size`` positions: lengths
    at the level boundaries, both ends on and next to multiples of 16,
    the whole walk, and arbitrary ones."""
    edges = sorted(
        {p for b in range(0, size, 16) for p in (b - 1, b, b + 1) if 0 <= p < size}
    )
    position = st.one_of(st.sampled_from(edges), st.integers(0, size - 1))
    length = st.one_of(st.sampled_from(RMQ_LENGTHS), st.integers(1, size))
    ranges = [(0, size - 1)]
    for low, span, anchor_high in draw(
        st.lists(st.tuples(position, length, st.booleans()), max_size=max_ranges)
    ):
        if anchor_high:  # ``low`` drawn as the range's *end*
            ranges.append((max(low - span + 1, 0), low))
        else:
            ranges.append((low, min(low + span - 1, size - 1)))
    return ranges


def walk_index(walk: List[int]):
    """An :class:`LcaIndex` over a bare depth column (a store stand-in
    with a zero parent column).  The range minimum reads nothing but
    the depths."""
    from array import array
    from types import SimpleNamespace

    import numpy as np

    from repro.core.lca_index import LcaIndex

    parents = array("i", bytes(4 * len(walk)))
    store = SimpleNamespace(
        first_oid=0, generation=0, dense_columns=lambda: (None, parents, None)
    )
    return LcaIndex.from_depths(store, np.asarray(walk, dtype=np.int32))


@st.composite
def walks_with_ranges(draw):
    walk = draw(depth_walks())
    return walk, draw(walk_ranges(len(walk)))


@st.composite
def walks_in_pieces(draw):
    """A walk plus the ascending lengths it is revealed at (last = all)."""
    walk = draw(depth_walks(min_steps=1))
    cuts = draw(st.sets(st.integers(1, len(walk) - 1), max_size=5))
    return walk, [*sorted(cuts), len(walk)]
