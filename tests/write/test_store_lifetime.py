"""A store that was indexed can still be freed.

The LCA, full-text and value indexes each point back at their store, so
a cache that holds them must not outlive it: a serving database retires
one whole store per compaction, and every store that stays behind also
slows each full pass of the collector.  The indexes live in
``store.derived`` (:class:`repro.monet.engine.DerivedCache`); store and
indexes go together.
"""

import gc
import weakref

import pytest

from repro import kernels
from repro.core.lca_index import (
    clear_lca_index_cache,
    get_lca_index,
    lca_index_cache_info,
)
from repro.datasets import figure1_document
from repro.fulltext.index import get_fulltext_index
from repro.monet.engine import DerivedCache
from repro.monet.transform import monet_transform
from repro.valueindex import get_value_index

from .harness import DATASETS, open_live, write_source


def test_an_indexed_store_dies_with_its_last_reference():
    store = monet_transform(figure1_document())
    get_lca_index(store)
    get_fulltext_index(store)
    get_value_index(store)
    assert set(store.derived) == {"lca_index", "fulltext_index", "value_index"}
    alive = weakref.ref(store)
    del store
    gc.collect()
    assert alive() is None


@pytest.mark.parametrize("backend", ["indexed", "vector"])
def test_every_compaction_frees_the_store_it_retires(tmp_path, backend):
    if backend == "vector" and not kernels.available():
        pytest.skip("vector tier needs NumPy")
    dataset = DATASETS["dblp"]
    source, _model = write_source(tmp_path, "dblp")
    db = open_live(source, backend=backend)
    retired = []
    try:
        for cycle in range(4):
            db.put("memo", dataset["fragments"][cycle % 2])
            assert db.nearest(*dataset["terms"][0]).answers
            db.query(dataset["queries"][0])
            db.delete("memo")
            db.nearest(*dataset["terms"][0])
            retired.append(weakref.ref(db.store))
            db.compact()
            assert db.store is not retired[-1]()
            db.nearest(*dataset["terms"][0])
        gc.collect()
        assert [store() for store in retired] == [None] * 4
    finally:
        db.close()


def test_clearing_the_cache_reaches_live_stores():
    store = monet_transform(figure1_document())
    clear_lca_index_cache()
    index = get_lca_index(store)
    assert lca_index_cache_info().currsize == 1
    clear_lca_index_cache()
    assert lca_index_cache_info().currsize == 0
    assert "lca_index" not in store.derived
    assert get_lca_index(store) is not index
    assert lca_index_cache_info().builds == 1


def test_objects_without_a_derived_dict_have_no_entry():
    class SummaryOnly:
        summary = None

    cache = DerivedCache("probe")
    assert cache.get(SummaryOnly()) is None
    assert cache.get(SummaryOnly(), 7) == 7
    assert len(cache) == 0 and cache.values() == []
