"""Mutate-vs-rebuild differential acceptance for the live write path.

Every dataset × backend × shard-mode combination applies a scripted
mutation sequence and, after **every** step, asserts that all three
query surfaces (nearest, full-text search, query language) answer
exactly as a store rebuilt from scratch from the surviving documents —
answer sets, ranking order and every OID after the documented
live-position bijection (the identity for sharded serving and after
``compact()``).
"""

import pytest

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
    db = open_live(source, backend=backend, shards=shards)
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
        store = db._base_store if db.sharded is not None else db.store
        assert store.dead_count == 0
        assert store.node_count == model.oracle_store().node_count
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
        # replace, which validates before deleting.
        from repro.datamodel.errors import ReproError

        with pytest.raises(ReproError):
            db.replace("memo", "<broken><unclosed></broken>")
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
