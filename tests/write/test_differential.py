"""Mutate-vs-rebuild differential acceptance for the live write path.

Every dataset × backend × shard-mode combination applies a scripted
mutation sequence and, after **every** step, asserts that all three
query surfaces (nearest, full-text search, query language) answer
exactly as a store rebuilt from scratch from the surviving documents —
answer sets, ranking order and every OID after the documented
live-position bijection (the identity after ``compact()``).  The
rebuild oracle answers on ``backend``; a monolithic open does too, a
sharded one serves on the kernels (the steered reference is
monolithic only).
"""

import pytest

from repro.api import NearestRequest

from .harness import (
    BACKENDS,
    DATASETS,
    SHARD_MODES,
    MutationFuzzer,
    apply_step,
    assert_equivalent,
    open_live,
    write_source,
)


def _scripted_steps(dataset_name, model):
    """A deterministic sequence hitting put, replace and delete."""
    fragments = DATASETS[dataset_name]["fragments"]
    seeds = model.names()
    steps = [
        ("put", "new-0001", fragments[0]),
        ("put", "new-0002", fragments[-1]),
        ("replace", "new-0001", fragments[1 % len(fragments)]),
        ("delete", "new-0002", None),
    ]
    if len(seeds) > 1:
        steps.append(("delete", seeds[0], None))
        steps.append(("replace", seeds[1], fragments[0]))
    return steps


@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_MODES, ids=lambda s: f"shards={s}")
def test_mutations_match_rebuild(tmp_path, dataset, backend, shards):
    source, model = write_source(tmp_path, dataset)
    db = open_live(
        source, backend=backend if shards is None else None, shards=shards
    )
    try:
        context = f"{dataset}/{backend}/shards={shards}"
        assert_equivalent(db, model, backend, dataset, f"{context}/baseline")
        for index, step in enumerate(_scripted_steps(dataset, model)):
            apply_step(db, model, step)
            assert_equivalent(
                db, model, backend, dataset, f"{context}/step{index}:{step[0]}"
            )
        # compact() folds tombstones: OIDs become *literally* the
        # rebuild oracle's, and answers must not move at all.
        db.compact()
        assert_equivalent(db, model, backend, dataset, f"{context}/compacted")
        assert db.store.dead_count == 0
        assert db.store.node_count == model.oracle_store().node_count
    finally:
        db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_mutation_receipts_and_stats(tmp_path, backend):
    source, model = write_source(tmp_path, "figure1")
    db = open_live(source, backend=backend)
    try:
        fragment = DATASETS["figure1"]["fragments"][0]
        receipt = db.put("memo", fragment)
        assert receipt["op"] == "put" and receipt["name"] == "memo"
        low, high = receipt["span"]
        assert db.documents()["memo"] == [low, high]
        writes = db.stats()["writes"]
        assert writes["mutations"] == 1
        assert writes["documents"] == len(model.names()) + 1
        deleted = db.delete("memo")
        assert deleted["span"] == [low, high]
        assert db.stats()["writes"]["dead_fraction"] > 0
        compacted = db.compact()
        assert compacted["reclaimed"] == high - low + 1
        assert db.stats()["writes"]["dead_fraction"] == 0
    finally:
        db.close()


def test_duplicate_and_unknown_names_reject_cleanly(tmp_path):
    from repro.datamodel.errors import (
        DuplicateDocumentError,
        UnknownDocumentError,
    )

    source, model = write_source(tmp_path, "figure1")
    db = open_live(source, backend="vector")
    try:
        fragment = DATASETS["figure1"]["fragments"][0]
        db.put("memo", fragment)
        model.put("memo", fragment)
        with pytest.raises(DuplicateDocumentError):
            db.put("memo", fragment)
        with pytest.raises(UnknownDocumentError):
            db.delete("ghost")
        # A parse error must leave the collection untouched — even for
        # replace, which validates before deleting, and even when the
        # fragment names new paths before it breaks.
        from repro.datamodel.errors import ReproError

        def state():
            store = db.store
            return (
                [len(column) for column in store.dense_columns()],
                len(store.string_runs().tails),
                len(store.summary),
                dict(store.documents),
                db.generation,
            )

        before = state()
        with pytest.raises(ReproError):
            db.replace("memo", "<broken><unclosed></broken>")
        assert state() == before
        with pytest.raises(ReproError):
            db.put("other", "<novel><fresh>x</fresh><unclosed></novel>")
        with pytest.raises(ReproError):
            db.replace("memo", "<novel><fresh>x</fresh><unclosed></novel>")
        assert state() == before
        assert_equivalent(db, model, "vector", "figure1", "after-rejects")
    finally:
        db.close()


def test_seeded_short_fuzz_all_datasets(tmp_path):
    """A quick 12-step seeded fuzz per dataset, monolithic + sharded."""
    for dataset in DATASETS:
        for shards in (None, 2):
            source, model = write_source(tmp_path, dataset)
            db = open_live(source, backend="vector", shards=shards)
            fuzzer = MutationFuzzer(model, dataset, seed=1234)
            try:
                for index in range(12):
                    step = fuzzer.step()
                    apply_step(db, model, step)
                    assert_equivalent(
                        db,
                        model,
                        "vector",
                        dataset,
                        f"fuzz[seed=1234]/{dataset}/shards={shards}/"
                        f"step{index}:{step[0]}",
                    )
            finally:
                db.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_writes_match_monolithic_before_compaction(tmp_path, backend):
    """Writes keep the OIDs a monolithic database gives: a put lands at
    the OID tail, inside the last shard's range, and a delete leaves its
    tombstones in place.  Nearest and query answers — OIDs, origins and
    the live spread of a root meet across a deleted document — are
    equal before any compaction, against a monolithic open on
    ``backend``."""
    dataset = DATASETS["dblp"]
    source, _model = write_source(tmp_path, "dblp")
    mono = open_live(source, backend=backend)
    sharded = open_live(source, backend=None, shards=2)
    try:
        for db in (mono, sharded):
            db.put("a", "<note><title>zebraword</title></note>")
            db.put("b", "<note><title>filler</title><body>filler</body></note>")
            db.put("c", "<note><title>quokkaword</title></note>")
            db.delete("b")
        requests = [
            NearestRequest(terms=("zebraword", "quokkaword"), snippets=True),
            *(NearestRequest(terms=terms) for terms in dataset["terms"]),
        ]
        for request in requests:
            expected = mono.nearest(request).answers
            assert sharded.nearest(request).answers == expected, request
        [root_meet] = mono.nearest(requests[0]).answers
        assert root_meet["oid"] == mono.store.root_oid
        texts = [
            "select meet($a,$b) from # $a, # $b where $a contains "
            "'zebraword' and $b contains 'quokkaword'",
            "select $a, text($a) from # $a where $a contains 'quokkaword'",
            *dataset["queries"],
        ]
        for text in texts:
            assert sharded.query(text).rows == mono.query(text).rows, text
        assert sharded.store.dead_count == mono.store.dead_count > 0
    finally:
        mono.close()
        sharded.close()
