"""Property tests: the pre-order RMQ index against every independent
oracle, on random trees.

Invariants:

* indexed LCA == naive ancestor-set LCA == the steered ``meet₂`` walk;
* the index's depth-based d(o₁,o₂) == the ``joins`` count reported by
  the traced Fig. 3 walk (the paper's distance = join-count identity);
* the auxiliary-tree roll-up of :class:`VectorBackend` emits exactly
  the meets of the schema-driven Fig. 5 roll-up;
* the generation-keyed cache returns one index per store until the
  store is invalidated;
* an index rolled forward through the mutation journal answers exactly
  like one built from scratch over the mutated store, scalar queries
  and kernels alike, and never rebuilds while the journal bridges its
  generation.

The sampled table's own properties (leftmost minimum against a brute
force scan, a followed table against a derived one) live in
``tests/kernels/test_sampled_rmq.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_lca import naive_lca
from repro.core.backends import SteeredBackend, VectorBackend
from repro.core.lca_index import (
    LcaIndex,
    clear_lca_index_cache,
    get_lca_index,
    lca_index_cache_info,
)
from repro.core.meet_pair import meet2, meet2_traced
from repro.datamodel.errors import UnknownOIDError
from repro.datamodel.parser import parse_document
from repro.datamodel.serializer import serialize_node
from repro.kernels.lca import LcaKernels, get_kernels
from repro.monet.mutate import (
    JOURNAL_LIMIT,
    delete_document,
    put_document,
    replace_document,
)
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot
from repro.snapshot.deltas import DeltaOp, append_delta

from .strategies import (
    stores,
    stores_with_oid_pairs,
    stores_with_oid_sets,
    tree_documents,
)


@settings(max_examples=60, deadline=None)
@given(stores_with_oid_pairs())
def test_indexed_lca_matches_naive_and_steered(store_and_pairs):
    store, pairs = store_and_pairs
    index = LcaIndex(store)
    for oid1, oid2 in pairs:
        expected = meet2(store, oid1, oid2)
        assert index.lca(oid1, oid2) == expected
        assert naive_lca(store, oid1, oid2) == expected


@settings(max_examples=60, deadline=None)
@given(stores_with_oid_pairs())
def test_indexed_distance_equals_traced_joins(store_and_pairs):
    store, pairs = store_and_pairs
    index = LcaIndex(store)
    for oid1, oid2 in pairs:
        traced = meet2_traced(store, oid1, oid2)
        meet, dist = index.lca_with_distance(oid1, oid2)
        assert meet == traced.oid
        assert dist == traced.joins
        assert index.distance(oid1, oid2) == traced.joins


@settings(max_examples=40, deadline=None)
@given(stores_with_oid_pairs())
def test_is_ancestor_agrees_with_parent_walk(store_and_pairs):
    store, pairs = store_and_pairs
    index = LcaIndex(store)
    for oid1, oid2 in pairs:
        assert index.is_ancestor(oid1, oid2) == store.is_ancestor(oid1, oid2)
        assert index.is_ancestor(oid2, oid1) == store.is_ancestor(oid2, oid1)


@settings(max_examples=50, deadline=None)
@given(stores_with_oid_sets(), st.randoms(use_true_random=False))
def test_auxiliary_roll_up_matches_schema_roll_up(store_and_oids, rng):
    store, oids = store_and_oids
    tagged = [(rng.choice("abc"), oid) for oid in oids]
    steered = SteeredBackend(store).meet_tagged(tagged)
    vector = VectorBackend(store).meet_tagged(tagged)
    assert set(vector) == set(steered)


@settings(max_examples=20, deadline=None)
@given(stores())
def test_cache_one_build_per_generation(store):
    clear_lca_index_cache()
    try:
        first = get_lca_index(store)
        again = get_lca_index(store)
        assert again is first
        info = lca_index_cache_info()
        assert info.builds == 1 and info.hits == 1
        store.invalidate_caches()
        rebuilt = get_lca_index(store)
        assert rebuilt is not first
        assert lca_index_cache_info().builds == 2
    finally:
        clear_lca_index_cache()


# ---------------------------------------------------------------------------
# Rolled forward ≡ built from scratch
# ---------------------------------------------------------------------------

def assert_agrees_with_fresh_build(store, rng, samples=12):
    """The cached (rolled-forward) index against ``LcaIndex(store)``."""
    cached = get_lca_index(store)
    assert cached.generation == store.generation
    fresh = LcaIndex(store)
    live = list(store.iter_live_oids())
    dead = [oid for oid in store.iter_oids() if not store.is_live(oid)]
    left = [rng.choice(live) for _ in range(samples)]
    right = [rng.choice(live) for _ in range(samples)]
    for oid1, oid2 in zip(left, right):
        assert cached.lca(oid1, oid2) == fresh.lca(oid1, oid2)
        assert cached.distance(oid1, oid2) == fresh.distance(oid1, oid2)
        assert cached.is_ancestor(oid1, oid2) == fresh.is_ancestor(oid1, oid2)
    for oid in dead:
        with pytest.raises(UnknownOIDError):
            cached.lca(oid, store.root_oid)
    vector, oracle = get_kernels(cached), LcaKernels(fresh)
    a, b = np.asarray(left), np.asarray(right)
    for got, expected in zip(vector.lca_many(a, b), oracle.lca_many(a, b)):
        assert got.tolist() == expected.tolist()
    for got, expected in zip(vector.auxiliary_tree(a), oracle.auxiliary_tree(a)):
        assert got.tolist() == expected.tolist()
    assert np.array_equal(cached.depths, fresh.depths)
    assert np.array_equal(vector.near, oracle.near)
    assert np.array_equal(vector.far, oracle.far)
    for oid in dead:
        with pytest.raises(UnknownOIDError):
            vector.slots(np.asarray([oid]))
        with pytest.raises(UnknownOIDError):
            vector.auxiliary_tree(np.asarray([oid]))


def apply_write(store, op, name, xml):
    """One registry-safe mutation: puts upsert, deletes skip strangers."""
    if op == "delete":
        if name in store.documents:
            delete_document(store, name)
    elif op == "put" and name not in store.documents:
        put_document(store, name, xml)
    else:
        replace_document(store, name, xml)


write_steps = st.lists(
    st.tuples(
        st.sampled_from(("put", "replace", "delete")),
        st.integers(0, 3).map("doc-{}".format),
        tree_documents(max_nodes=8).map(lambda doc: serialize_node(doc.root)),
        st.booleans(),  # read after this write?
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(stores(max_nodes=15), write_steps, st.randoms(use_true_random=False))
def test_rolled_forward_index_equals_fresh_build(store, steps, rng):
    clear_lca_index_cache()
    try:
        index = get_lca_index(store)
        get_kernels(index)  # bound before the writes: they follow
        for op, name, xml, read in steps:
            apply_write(store, op, name, xml)
            if read:
                assert_agrees_with_fresh_build(store, rng)
        assert_agrees_with_fresh_build(store, rng)
        assert get_lca_index(store) is index
        assert lca_index_cache_info().builds == 1
    finally:
        clear_lca_index_cache()


FRAGMENT = "<article key='k'><author>Ann</author><title>On <i>x</i></title></article>"


@pytest.fixture
def library_store():
    """Five top-level documents (seed-0000 … seed-0004) under one root."""
    clear_lca_index_cache()
    yield monet_transform(parse_document(f"<library>{FRAGMENT * 5}</library>"))
    clear_lca_index_cache()


def test_put_then_delete_without_a_read_between(library_store):
    store = library_store
    rng = random.Random(1)
    get_lca_index(store)
    put_document(store, "ghost", FRAGMENT)
    delete_document(store, "ghost")
    put_document(store, "kept", FRAGMENT)
    assert_agrees_with_fresh_build(store, rng)
    replace_document(store, "kept", FRAGMENT)
    replace_document(store, "kept", FRAGMENT)
    assert_agrees_with_fresh_build(store, rng)
    info = lca_index_cache_info()
    assert (info.builds, info.patches) == (1, 2)


def test_evicted_journal_costs_exactly_one_rebuild(library_store):
    store = library_store
    rng = random.Random(2)
    stale = get_lca_index(store)
    for step in range(JOURNAL_LIMIT + 1):  # the first record is evicted
        apply_write(store, "delete" if step % 3 == 2 else "put", "doc", FRAGMENT)
    assert len(store.journal) == JOURNAL_LIMIT
    assert_agrees_with_fresh_build(store, rng)
    assert get_lca_index(store) is not stale
    assert lca_index_cache_info().builds == 2
    put_document(store, "after", FRAGMENT)
    assert_agrees_with_fresh_build(store, rng)
    info = lca_index_cache_info()
    assert (info.builds, info.patches) == (2, 1)


def test_mmapped_snapshot_index_rolls_forward(library_store, tmp_path):
    path = tmp_path / "bib.snap"
    write_snapshot(library_store, path)
    clear_lca_index_cache()
    store = read_snapshot(path, use_mmap=True).store
    rng = random.Random(3)
    index = get_lca_index(store)
    for column in store.dense_columns():  # int32 views over the mapping
        assert isinstance(column, memoryview) and column.format == "i"
    get_kernels(index)  # a parent view over the mmap
    delete_document(store, "seed-0000")
    assert_agrees_with_fresh_build(store, rng)
    put_document(store, "fresh", FRAGMENT)
    assert_agrees_with_fresh_build(store, rng)
    assert get_lca_index(store) is index
    info = lca_index_cache_info()
    assert (info.builds, info.patches) == (0, 2)


def test_bundle_with_pending_deltas_rolls_forward(library_store, tmp_path):
    path = tmp_path / "bib.snap"
    write_snapshot(library_store, path)
    append_delta(path, DeltaOp("put", "late", FRAGMENT))
    append_delta(path, DeltaOp("delete", "seed-0001", None))
    append_delta(path, DeltaOp("replace", "late", FRAGMENT))
    clear_lca_index_cache()
    snapshot = read_snapshot(path, tolerate_torn_tail=True)
    assert snapshot.delta_count == 3
    assert_agrees_with_fresh_build(snapshot.store, random.Random(4))
    assert get_lca_index(snapshot.store) is snapshot.lca_index
    info = lca_index_cache_info()
    assert (info.builds, info.patches) == (0, 1)
