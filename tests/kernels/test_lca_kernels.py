"""The batch LCA kernels against their per-pair python oracles.

Property tests: on arbitrary generated trees, ``LcaKernels.lca_many``
must agree with the scalar Euler-RMQ kernel pair by pair, and the
vectorized auxiliary tree must reproduce the stack-walk construction
of :meth:`LcaIndex.auxiliary_tree_arrays` exactly (same candidate
order, same parent positions).  Unit tests cover the tier probe, the
env kill-switch and the unknown-OID contract.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.lca_index import LcaIndex
from repro.datamodel.errors import UnknownOIDError
from repro.datasets.randomtree import random_document
from repro.monet.transform import monet_transform

from ..property.strategies import stores

np = pytest.importorskip("numpy")

from repro.kernels.lca import LcaKernels, get_kernels  # noqa: E402


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


class TestLcaMany:
    @settings(max_examples=60, deadline=None)
    @given(store_and_pairs())
    def test_matches_scalar_kernel(self, case):
        store, pairs = case
        index = LcaIndex(store)
        batch = LcaKernels(index)
        if not pairs:
            assert batch.lca_pairs(pairs) == []
            return
        table = np.asarray(pairs, dtype=np.int64)
        meets, distances = batch.lca_many(table[:, 0], table[:, 1])
        for (oid1, oid2), meet, dist in zip(
            pairs, meets.tolist(), distances.tolist()
        ):
            assert meet == index.lca(oid1, oid2)
            assert dist == index.distance(oid1, oid2)

    @settings(max_examples=40, deadline=None)
    @given(stores(max_nodes=40, with_text=False), st.integers(0, 2**32))
    def test_auxiliary_tree_matches_stack_walk(self, store, seed):
        rng = random.Random(seed)
        low = store.first_oid
        high = low + store.node_count - 1
        oids = [rng.randint(low, high) for _ in range(rng.randint(1, 25))]
        index = LcaIndex(store)
        batch = LcaKernels(index)
        order, _firsts, parent_index = batch.auxiliary_tree(
            np.asarray(oids, dtype=np.int64)
        )
        expected_order, expected_parents = index.auxiliary_tree_arrays(oids)
        assert order.tolist() == expected_order
        assert parent_index.tolist() == expected_parents

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
        pairs = [
            (store.first_oid + 3, store.first_oid + 90),
            (store.first_oid, store.first_oid),
        ]
        assert index.lca_many(pairs) == [
            index.lca(a, b) for a, b in pairs
        ]
        assert get_kernels(index) is get_kernels(index)


class TestTierProbe:
    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert kernels.available() is False
        assert kernels.tier() == "python"
        assert kernels.active_tier("vector") == "python"

    def test_tier_when_importable(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert kernels.available() is True
        assert kernels.tier() == "vector"
        assert kernels.numpy() is np
        assert kernels.active_tier("vector") == "vector"
        assert kernels.active_tier("indexed") == "python"
        assert kernels.active_tier("steered") == "python"
        assert kernels.active_tier(None) == "python"
