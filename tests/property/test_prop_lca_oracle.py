"""Property: the depth-column LCA index against a parent-walk oracle.

Over random trees, deep chains with side branches, stores mutated by
put/replace/delete (the index rolled forward through the journal) and
their compactions (the index carried through the OID map), ``lca``,
``distance``, ``lca_many`` and ``auxiliary_tree`` must equal what
walking parent pointers gives — an oracle that shares no code with the
range-minimum kernels.  A fresh :class:`LcaIndex` over the same store
must agree too, and tombstoned OIDs must stay unknown.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lca_index import (
    LcaIndex,
    clear_lca_index_cache,
    get_lca_index,
)
from repro.datamodel.document import Document
from repro.datamodel.errors import UnknownOIDError
from repro.datamodel.node import Node
from repro.kernels.lca import get_kernels
from repro.monet.mutate import compact_store
from repro.monet.transform import monet_transform
from repro.snapshot.codec import carry_indexes

from .strategies import stores
from .test_prop_lca_index import apply_write, write_steps


@st.composite
def deep_chains(draw, max_depth: int = 400):
    """A chain of ``level`` nodes (the ``TestDeepChain`` shape) with a
    few side branches and a cdata leaf at the bottom."""
    depth = draw(st.integers(1, max_depth))
    branches = draw(st.sets(st.integers(0, depth - 1), max_size=6))
    root = Node("root")
    current = root
    for level in range(depth):
        below = Node("level")
        current.append(below)
        if level in branches:
            side = Node("side")
            side.text = "branch"
            current.append(side)
        current = below
    current.text = "needle bottom"
    return monet_transform(Document(root))


def walk(store, oid1, oid2):
    """(meet, distance) by walking parent pointers."""
    up, steps, node = {}, 0, oid1
    while node is not None:
        up[node] = steps
        node, steps = store.parent_of(node), steps + 1
    steps, node = 0, oid2
    while node not in up:
        node, steps = store.parent_of(node), steps + 1
    return node, up[node] + steps


def walk_auxiliary_tree(store, oids):
    """The inputs plus the meets of OID-order neighbours, each with its
    nearest candidate ancestor found by walking parent pointers."""
    inputs = sorted(set(oids))
    order = sorted(
        set(inputs).union(walk(store, a, b)[0] for a, b in zip(inputs, inputs[1:]))
    )
    position = {oid: index for index, oid in enumerate(order)}
    parents = []
    for oid in order:
        above = store.parent_of(oid)
        while above is not None and above not in position:
            above = store.parent_of(above)
        parents.append(-1 if above is None else position[above])
    return order, parents, [position[oid] for oid in oids]


def assert_matches_walks(store, index, rng):
    live = list(store.iter_live_oids())
    left = [rng.choice(live) for _ in range(12)]
    right = [rng.choice(live) for _ in range(12)]
    expected = [walk(store, a, b) for a, b in zip(left, right)]
    for (oid1, oid2), (meet, distance) in zip(zip(left, right), expected):
        assert index.lca(oid1, oid2) == meet
        assert index.distance(oid1, oid2) == distance
    kernels = get_kernels(index)
    meets, distances = kernels.lca_many(np.asarray(left), np.asarray(right))
    assert list(zip(meets.tolist(), distances.tolist())) == expected
    sample = left[: rng.randint(1, len(left))]
    order, slots, parents, positions = kernels.auxiliary_tree(np.asarray(sample))
    expected_order, expected_parents, expected_positions = walk_auxiliary_tree(
        store, sample
    )
    assert order.tolist() == expected_order
    assert (slots + store.first_oid).tolist() == expected_order
    assert parents.tolist() == expected_parents
    assert positions.tolist() == expected_positions
    for oid in store.iter_oids():
        if not store.is_live(oid):
            with pytest.raises(UnknownOIDError):
                index.lca(oid, store.root_oid)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.one_of(stores(max_nodes=40), deep_chains()),
    st.one_of(st.just([]), write_steps),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_index_answers_like_parent_walks(store, steps, compact, rng):
    clear_lca_index_cache()
    try:
        index = get_lca_index(store)
        get_kernels(index)  # bound before the writes: they follow
        for op, name, xml, _read in steps:
            apply_write(store, op, name, xml)
        if compact:
            compacted, renumbered = compact_store(store)
            if renumbered is not None:
                carry_indexes(store, compacted, renumbered)
            store = compacted
        maintained = get_lca_index(store)
        assert maintained.generation == store.generation
        assert_matches_walks(store, maintained, rng)
        fresh = LcaIndex(store)
        assert np.array_equal(fresh.depths, maintained.depths)
        assert_matches_walks(store, fresh, rng)
    finally:
        clear_lca_index_cache()
