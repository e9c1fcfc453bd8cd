"""Vector backend differential: byte-identical to the python backends.

The acceptance bar of the kernel tier is *bit-for-bit equivalence*:
across every bundled dataset, monolithic and 2-shard serving, and a
seeded stream of live put/delete/replace mutations, the ``vector``
backend must return exactly the answers — and exactly the ranking
keys — of the ``indexed`` and ``steered`` backends.  A final test
pins the zero-rebuild property: serving a snapshot bundle on the
vector backend performs no LCA index build (the kernels bind views
over the deserialized columns).
"""

import pytest

from repro.core.backends import rank_keys, resolve_backend
from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import (
    clear_lca_index_cache,
    lca_index_cache_info,
)

from ..write.harness import (
    DATASETS,
    NEAREST_OPTIONS,
    MutationFuzzer,
    apply_step,
    live_nearest,
    live_query,
    live_search,
    open_live,
    write_source,
)

np = pytest.importorskip("numpy")

from repro import kernels  # noqa: E402

# The suite proves the *vector tier* equivalent to the python DPs;
# with kernels unavailable (no NumPy / REPRO_KERNELS kill-switch) the
# backend silently degrades to indexed and there is nothing to prove.
pytestmark = pytest.mark.skipif(
    not kernels.available(), reason="NumPy kernels disabled"
)

REFERENCE_BACKENDS = ("steered", "indexed")
SHARD_MODES = (None, 2)


def _assert_same_surfaces(vector_db, reference_db, dataset, context):
    spec = DATASETS[dataset]
    for terms in spec["terms"]:
        for options in NEAREST_OPTIONS:
            expected = live_nearest(reference_db, terms, options)
            actual = live_nearest(vector_db, terms, options)
            assert actual == expected, (
                f"{context}: nearest({terms}, {options}) diverged from "
                f"{reference_db.backend_name}"
            )
        for term in terms:
            assert live_search(vector_db, term) == live_search(
                reference_db, term
            ), f"{context}: search({term!r}) diverged"
    for text in spec["queries"]:
        assert live_query(vector_db, text) == live_query(
            reference_db, text
        ), f"{context}: query {text!r} diverged"


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("shards", SHARD_MODES, ids=lambda s: f"shards={s}")
def test_vector_matches_references_under_mutations(tmp_path, dataset, shards):
    source, model = write_source(tmp_path, dataset)
    vector_db = open_live(source, backend="vector", shards=shards)
    references = {
        name: open_live(source, backend=name, shards=shards)
        for name in REFERENCE_BACKENDS
    }
    try:
        assert vector_db.backend_name == "vector"
        context = f"{dataset}/shards={shards}"
        for name, reference_db in references.items():
            _assert_same_surfaces(
                vector_db, reference_db, dataset, f"{context}/baseline/{name}"
            )
        fuzzer = MutationFuzzer(model, dataset, seed=23)
        for index in range(6):
            step = fuzzer.step()
            # The model tracks mutations once; every database applies
            # the same step so all stay bit-for-bit comparable.
            apply_step(vector_db, model, step)
            for reference_db in references.values():
                op, name, xml = step
                getattr(reference_db, op)(*(n for n in (name, xml) if n))
            for name, reference_db in references.items():
                _assert_same_surfaces(
                    vector_db,
                    reference_db,
                    dataset,
                    f"{context}/step{index}:{step[0]}/{name}",
                )
    finally:
        vector_db.close()
        for reference_db in references.values():
            reference_db.close()


@pytest.mark.parametrize("dataset", list(DATASETS))
def test_ranking_keys_identical(tmp_path, dataset):
    """Not just the ranked answers: the §4 ranking keys themselves."""
    source, model = write_source(tmp_path, dataset)
    store = model.oracle_store()
    engines = {
        name: NearestConceptEngine(store, backend=name)
        for name in ("vector",) + REFERENCE_BACKENDS
    }
    assert engines["vector"].backend.name == "vector"
    for terms in DATASETS[dataset]["terms"]:
        keyed = {}
        for name, engine in engines.items():
            tagged = [
                (term, oid)
                for term in terms
                for oid in engine.term_hits(term).oids()
            ]
            results = engine.backend.meet_tagged(tagged)
            keyed[name] = sorted(rank_keys(store, results))
        for name in REFERENCE_BACKENDS:
            assert keyed["vector"] == keyed[name], (
                f"{dataset}: ranking keys diverged from {name} on {terms}"
            )


@pytest.mark.parametrize("dataset", list(DATASETS))
def test_batch_rank_keys_match_engine(tmp_path, dataset):
    """The TaggedBatch's key matrix == the engine's python keys.

    ``meet_term_hits`` returns a lazy batch whose ``rank_keys`` is an
    ``(n, 4)`` matrix computed array-wise (tour depths, live spreads,
    reduceat joins); its rows must equal the one python key function
    (:func:`repro.core.backends.rank_keys`) row for row and
    index-aligned, and each lazily materialized element must equal the
    eager ``meet_tagged`` output.
    """
    source, model = write_source(tmp_path, dataset)
    store = model.oracle_store()
    engine = NearestConceptEngine(store, backend="vector")
    assert engine.backend.name == "vector"
    for terms in DATASETS[dataset]["terms"]:
        batch = engine.backend.meet_term_hits(
            (term, engine.term_hits(term)) for term in dict.fromkeys(terms)
        )
        results = list(batch)
        assert batch.rank_keys.shape == (len(results), 4)
        assert batch.rank_keys.tolist() == [
            list(key) for key in rank_keys(store, results)
        ]
        tagged = [
            (term, oid)
            for term in dict.fromkeys(terms)
            for oid in engine.term_hits(term).oids()
        ]
        assert results == engine.backend.meet_tagged(tagged)


def test_meet_surfaces_identical(tmp_path):
    """meet_many / meet_sets / distance parity on a real store."""
    import random
    from collections import defaultdict

    source, model = write_source(tmp_path, "dblp")
    store = model.oracle_store()
    vector = resolve_backend(store, "vector")
    indexed = resolve_backend(store, "indexed")
    assert vector.name == "vector"

    rng = random.Random(11)
    low = store.first_oid
    oids = list(range(low, low + store.node_count))
    pairs = [(rng.choice(oids), rng.choice(oids)) for _ in range(400)]
    assert vector.meet_many(pairs) == indexed.meet_many(pairs)
    for oid1, oid2 in pairs[:100]:
        assert vector.distance(oid1, oid2) == indexed.distance(oid1, oid2)

    by_pid = defaultdict(list)
    for oid in oids:
        by_pid[store.pid_of(oid)].append(oid)
    groups = sorted(
        (group for group in by_pid.values() if len(group) >= 4), key=len
    )[-3:]
    for left_group in groups:
        for right_group in groups:
            left = rng.sample(left_group, min(12, len(left_group)))
            right = rng.sample(right_group, min(12, len(right_group)))
            assert vector.meet_sets(left, right) == indexed.meet_sets(
                left, right
            )


def test_snapshot_serving_stays_rebuild_free(tmp_path):
    """The vector tier binds views over the bundle's seeded index."""
    from repro.api import Database
    from repro.datasets import figure1_document
    from repro.monet.transform import monet_transform
    from repro.snapshot import Catalog

    catalog = Catalog(tmp_path / "catalog")
    catalog.build("figure1", monet_transform(figure1_document()))

    clear_lca_index_cache()
    db = Database.open("figure1", catalog=catalog.root)
    try:
        assert db.backend_name == "vector"
        db.warm_up()
        for _ in range(3):
            envelope = db.nearest("Bit", "1999")
            assert envelope.answers
        assert lca_index_cache_info().builds == 0
    finally:
        db.close()
