"""The batch LCA kernels against per-pair python oracles.

Property tests: on arbitrary generated trees, ``LcaKernels.lca_many``
must agree pair by pair with the scalar index query and with the
steered Fig. 3 walk, and the vectorized auxiliary tree must reproduce
the classic stack-walk construction over steered meets exactly (same
candidate order, same parent positions).  Unit tests cover the
unknown-OID contract and the scalar index routing through the kernels.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lca_index import LcaIndex
from repro.core.meet_pair import meet2, meet2_traced
from repro.datamodel.errors import UnknownOIDError
from repro.datasets.randomtree import random_document
from repro.kernels.lca import LcaKernels, get_kernels
from repro.monet.transform import monet_transform

from ..property.strategies import stores


@st.composite
def store_and_pairs(draw):
    store = draw(stores(max_nodes=40, with_text=False))
    low = store.first_oid
    high = low + store.node_count - 1
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=low, max_value=high),
                st.integers(min_value=low, max_value=high),
            ),
            min_size=0,
            max_size=50,
        )
    )
    return store, pairs


def _stack_walk(store, oids):
    """The auxiliary tree by the textbook construction: the inputs plus
    the steered meets of pre-order neighbours (OIDs *are* pre-order),
    each candidate's parent the top of the stack of its still-open
    ancestors."""
    inputs = sorted(set(oids))
    candidates = set(inputs).union(
        meet2(store, a, b) for a, b in zip(inputs, inputs[1:])
    )
    order, parents, stack = [], [], []
    for oid in sorted(candidates):
        while stack and not store.is_ancestor(order[stack[-1]], oid):
            stack.pop()
        parents.append(stack[-1] if stack else -1)
        stack.append(len(order))
        order.append(oid)
    return order, parents


class TestLcaMany:
    @settings(max_examples=60, deadline=None)
    @given(store_and_pairs())
    def test_matches_scalar_kernel(self, case):
        store, pairs = case
        index = LcaIndex(store)
        batch = LcaKernels(index)
        table = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        meets, distances = batch.lca_many(table[:, 0], table[:, 1])
        assert len(meets) == len(distances) == len(pairs)
        for (oid1, oid2), meet, dist in zip(
            pairs, meets.tolist(), distances.tolist()
        ):
            traced = meet2_traced(store, oid1, oid2)
            assert meet == index.lca(oid1, oid2) == traced.oid
            assert dist == index.distance(oid1, oid2) == traced.joins

    @settings(max_examples=40, deadline=None)
    @given(stores(max_nodes=40, with_text=False), st.integers(0, 2**32))
    def test_auxiliary_tree_matches_stack_walk(self, store, seed):
        rng = random.Random(seed)
        low = store.first_oid
        high = low + store.node_count - 1
        oids = [rng.randint(low, high) for _ in range(rng.randint(1, 25))]
        batch = LcaKernels(LcaIndex(store))
        order, slots, parent_index, positions = batch.auxiliary_tree(
            np.asarray(oids, dtype=np.int64)
        )
        expected_order, expected_parents = _stack_walk(store, oids)
        assert order.tolist() == expected_order
        assert (slots + store.first_oid).tolist() == expected_order
        assert parent_index.tolist() == expected_parents
        assert order[positions].tolist() == oids

    def test_unknown_oids_raise(self):
        store = monet_transform(random_document(3, nodes=50, max_children=3))
        batch = LcaKernels(LcaIndex(store))
        good = store.first_oid
        for bad in (store.first_oid - 1, store.first_oid + store.node_count):
            with pytest.raises(UnknownOIDError):
                batch.lca_many(
                    np.asarray([good, bad]), np.asarray([good, good])
                )

    def test_index_routes_through_kernels_and_memoizes(self):
        store = monet_transform(random_document(5, nodes=120, max_children=4))
        index = LcaIndex(store)
        pairs = np.asarray([
            (store.first_oid + 3, store.first_oid + 90),
            (store.first_oid, store.first_oid),
        ])
        meets, _ = get_kernels(index).lca_many(pairs[:, 0], pairs[:, 1])
        assert meets.tolist() == [index.lca(a, b) for a, b in pairs.tolist()]
        assert get_kernels(index) is get_kernels(index)
        assert index._vector_kernels is get_kernels(index)
