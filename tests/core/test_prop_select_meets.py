"""Property: ``select_meets`` picks the same meets from columns as from lists.

The vector backend hands :func:`repro.core.backends.select_meets` a
:class:`~repro.core.backends.TaggedBatch` and the selection runs on its
columns (masks, a key matrix, partition + lexsort); the python backends
hand it a list and it runs element by element.  On generated stores —
with tombstones from deletes in the middle of the OID range — and for
every on/off combination of ``drop_oid`` / ``excluded`` / ``wanted`` /
``within``, ranked and unranked, with ``limit`` below, at and above the
survivor count, the batch must return exactly the indexes and residue
the list branch returns for ``list(batch)`` and for the indexed
backend's own roll-up, and the same meets as the steered walk.

Under ``REPRO_KERNELS=python`` there is no batch; the suite then holds
the indexed backend's selection to the steered one.
"""

from array import array
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.backends import (
    IndexedBackend,
    SteeredBackend,
    TaggedBatch,
    rank_keys,
    resolve_backend,
    select_meets,
)
from repro.core.engine import NearestConceptEngine
from repro.datamodel.serializer import serialize_node
from repro.datasets import figure1_document
from repro.datasets.randomtree import random_document
from repro.datasets.textpool import TECH_NOUNS
from repro.fulltext.index import Hits
from repro.monet.mutate import (
    delete_document,
    ensure_document_registry,
    put_document,
)
from repro.monet.transform import monet_transform

from ..property.strategies import stores, tree_documents

TOKENS = ("t0", "t1", "t2", "t3")


@st.composite
def selections(draw):
    """A store with tombstones, per-token hit columns and filter values."""
    store = draw(stores(max_nodes=25, with_text=False))
    fragments = draw(
        st.lists(tree_documents(max_nodes=6, with_text=False), max_size=3)
    )
    for index, fragment in enumerate(fragments):
        put_document(store, f"put-{index}", serialize_node(fragment.root))
    names = sorted(ensure_document_registry(store))
    doomed = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    for name in doomed:
        delete_document(store, name)

    live = list(store.iter_live_oids())
    columns = {
        token: sorted(draw(st.lists(st.sampled_from(live), unique=True, max_size=8)))
        for token in TOKENS[: draw(st.integers(2, len(TOKENS)))]
    }
    pids = sorted({store.pid_of(oid) for oid in live})
    filters = {
        "drop_oid": draw(st.sampled_from(live)),
        "excluded": set(draw(st.lists(st.sampled_from(pids), min_size=1))),
        "wanted": set(
            draw(st.lists(st.sampled_from(TOKENS + ("absent",)), max_size=3))
        ),
        "within": draw(st.integers(0, 8)),
    }
    return store, columns, filters


def _filter_combinations(filters):
    """Every on/off combination of the four filters."""
    off = {"drop_oid": None, "excluded": frozenset(), "wanted": None,
           "within": None}
    for switches in product((False, True), repeat=len(filters)):
        yield {
            name: filters[name] if on else off[name]
            for name, on in zip(filters, switches)
        }


def _limits(survivors):
    """Unlimited, nothing, and below / at / above the survivor count."""
    return sorted({0, survivors - 1, survivors, survivors + 1} - {-1}) + [None]


@settings(max_examples=60, deadline=None)
@given(selections())
def test_every_backend_selects_the_same_meets(selection):
    store, columns, filters = selection
    tagged = [(token, oid) for token, column in columns.items() for oid in column]
    steered = SteeredBackend(store).meet_tagged(tagged)
    indexed = IndexedBackend(store).meet_tagged(tagged)
    candidates = {"indexed": indexed}
    if kernels.available():
        vector = resolve_backend(store, "vector")
        batch = vector.meet_tagged(tagged)
        from_hits = vector.meet_term_hits(
            (
                token,
                Hits(token, columns=(
                    array("q", map(store.pid_of, column)), array("q", column)
                )),
            )
            for token, column in columns.items()
        )
        assert isinstance(batch, TaggedBatch)
        assert isinstance(from_hits, TaggedBatch)
        # Same elements in the same emission order, so indexes compare.
        assert list(batch) == indexed == list(from_hits)
        candidates.update(
            tagged_batch=batch, term_hits_batch=from_hits, batch_as_list=list(batch)
        )

    for chosen_filters in _filter_combinations(filters):
        unranked, residue = select_meets(
            store, indexed, pairs=tagged, ranked=False, **chosen_filters
        )
        by_oid = sorted(indexed[index].oid for index in unranked)
        steered_unranked, steered_residue = select_meets(
            store, steered, pairs=tagged, ranked=False, **chosen_filters
        )
        assert sorted(steered[i].oid for i in steered_unranked) == by_oid
        assert steered_residue == residue
        for limit in _limits(len(unranked)):
            ranked, _ = select_meets(
                store, indexed, pairs=tagged, limit=limit, **chosen_filters
            )
            steered_ranked, _ = select_meets(
                store, steered, pairs=tagged, limit=limit, **chosen_filters
            )
            assert [steered[i].oid for i in steered_ranked] == [
                indexed[i].oid for i in ranked
            ]
            for name, results in candidates.items():
                context = (name, chosen_filters, limit)
                assert select_meets(
                    store, results, pairs=tagged, limit=limit, **chosen_filters
                ) == (ranked, residue), context
                assert select_meets(
                    store, results, pairs=tagged, limit=limit, ranked=False,
                    **chosen_filters
                ) == (unranked, residue), context


@pytest.mark.skipif(not kernels.available(), reason="needs the NumPy tier")
@settings(max_examples=40, deadline=None)
@given(selections())
def test_key_ties_break_by_oid(selection):
    """Rows equal on (joins, spread, -depth) come back in OID order."""
    store, columns, _ = selection
    tagged = [(token, oid) for token, column in columns.items() for oid in column]
    batch = resolve_backend(store, "vector").meet_tagged(tagged)
    keys = rank_keys(store, list(batch))
    assert batch.rank_keys.tolist() == [list(key) for key in keys]
    for limit in (None, 1, 2, len(batch)):
        chosen, _ = select_meets(store, batch, limit=limit)
        assert chosen == sorted(range(len(batch)), key=keys.__getitem__)[:limit]


@pytest.mark.skipif(not kernels.available(), reason="needs the NumPy tier")
@pytest.mark.parametrize("limit", [1, 2, 5])
def test_only_the_winners_become_objects(monkeypatch, limit):
    """One top-k request builds at most k meets and no per-candidate tuple."""
    import numpy as np

    store = monet_transform(random_document(7, nodes=800))
    engine = NearestConceptEngine(store, backend="vector")
    terms = TECH_NOUNS[:3]
    unlimited = engine.nearest_concepts(*terms)
    assert len(unlimited) > 10 * limit

    built, batches = [], []
    getitem, select = TaggedBatch.__getitem__, TaggedBatch.select

    def counting_getitem(self, position):
        built.append(position)
        return getitem(self, position)

    def recording_select(self, **options):
        batches.append(self)
        return select(self, **options)

    monkeypatch.setattr(TaggedBatch, "__getitem__", counting_getitem)
    monkeypatch.setattr(TaggedBatch, "select", recording_select)
    answers = engine.nearest_concepts(*terms, limit=limit)

    assert answers == unlimited[:limit]
    assert len(built) == limit
    (batch,) = batches
    assert len(batch) == len(unlimited)
    assert isinstance(batch.rank_keys, np.ndarray)
    assert batch.rank_keys.shape == (len(batch), 4)
    assert isinstance(batch.oids, np.ndarray)


@pytest.mark.skipif(not kernels.available(), reason="needs the NumPy tier")
def test_unranked_unbounded_selection_never_computes_keys():
    """The query processor's ``meet(..)`` path does not pay for §4 keys."""
    store = monet_transform(figure1_document())
    engine = NearestConceptEngine(store, backend="vector")
    tagged = [
        (term, oid)
        for term in ("Bit", "1999")
        for oid in engine.term_hits(term).oids()
    ]
    batch = engine.backend.meet_tagged(tagged)
    _, residue = select_meets(
        store, batch, drop_oid=store.root_oid, excluded={1}, ranked=False
    )
    assert residue is not None and batch._rank_keys is None
    select_meets(store, batch, within=3, ranked=False)
    assert batch._rank_keys is not None
