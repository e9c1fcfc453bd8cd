"""Crash injection around the delta log and online compaction.

Every scenario kills the process at a chosen point (by raising from a
monkeypatched primitive, or by physically truncating the bundle the way
an interrupted ``write()`` would) and then proves the recovery
invariant: the collection re-opens and serves **byte-identically** the
acknowledged state — mutations whose delta append completed are there,
anything torn mid-write is dropped, and an interrupted compaction never
loses the previous generation.
"""

import pytest

from repro.api import Database, DatabaseOptions
from repro.datamodel.errors import StorageError
from repro.snapshot import Catalog, DeltaOp, append_delta, read_snapshot
from repro.snapshot.deltas import read_delta_ops
from repro.snapshot.format import SnapshotReader

from .harness import DATASETS, assert_equivalent, write_source

FRAGMENT = DATASETS["figure1"]["fragments"][0]
FRAGMENT2 = DATASETS["figure1"]["fragments"][1]


@pytest.fixture()
def collection(tmp_path):
    """A catalog collection plus its logical model."""
    source, model = write_source(tmp_path, "figure1")
    catalog = Catalog(tmp_path / "catalog", create=True)
    catalog.ingest("docs", source)
    return catalog, model


def _open(catalog, **overrides):
    return Database.open(
        snapshot="docs",
        options=DatabaseOptions(catalog=catalog.root, backend="vector"),
        **overrides,
    )


def _mutate_and_close(catalog, model, ops):
    db = _open(catalog)
    try:
        for op, name, xml in ops:
            if op == "put":
                db.put(name, xml)
                model.put(name, xml)
            elif op == "delete":
                db.delete(name)
                model.delete(name)
            else:
                db.replace(name, xml)
                model.replace(name, xml)
    finally:
        db.close()


def test_deltas_persist_across_reopen(collection):
    catalog, model = collection
    _mutate_and_close(
        catalog,
        model,
        [("put", "memo", FRAGMENT), ("replace", "memo", FRAGMENT2)],
    )
    db = _open(catalog)
    try:
        assert db.stats()["writes"]["pending_deltas"] == 2
        assert_equivalent(db, model, "vector", "figure1", "reopen-replays")
    finally:
        db.close()
    # Compaction folds the delta tail into a fresh dense base …
    catalog.compact("docs")
    assert read_snapshot(catalog.bundle_path("docs")).delta_count == 0
    db = _open(catalog)
    try:
        assert db.stats()["writes"]["pending_deltas"] == 0
        assert_equivalent(db, model, "vector", "figure1", "compacted")
    finally:
        db.close()


def test_torn_delta_tail_is_dropped_not_fatal(collection):
    """Kill mid-append: the unacknowledged tail vanishes on reopen."""
    catalog, model = collection
    _mutate_and_close(catalog, model, [("put", "memo", FRAGMENT)])
    bundle = catalog.bundle_path("docs")
    intact = bundle.stat().st_size

    # The crash: a second append that only half-hits the disk.
    append_delta(bundle, DeltaOp("put", "torn", FRAGMENT2))
    torn = bundle.read_bytes()
    bundle.write_bytes(torn[: intact + (len(torn) - intact) // 2])

    # Strict readers refuse; tolerant readers drop exactly the tail.
    with pytest.raises(StorageError):
        SnapshotReader.open(bundle)
    reader = SnapshotReader.open(bundle, tolerate_torn_tail=True)
    assert reader.torn_tail and reader.valid_size == intact
    assert [op.name for op in read_delta_ops(reader)] == ["memo"]

    # The facade serves the acknowledged prefix byte-identically.
    db = _open(catalog)
    try:
        assert "torn" not in db.documents()
        assert_equivalent(db, model, "vector", "figure1", "post-torn")
        # … and the next durable append reclaims the torn bytes, so
        # strict readers accept the bundle again.
        db.put("after-crash", FRAGMENT2)
        model.put("after-crash", FRAGMENT2)
    finally:
        db.close()
    SnapshotReader.open(bundle)
    db = _open(catalog)
    try:
        assert_equivalent(db, model, "vector", "figure1", "post-reclaim")
    finally:
        db.close()


def test_crash_between_fingerprint_drop_and_delta_append(
    collection, monkeypatch
):
    """Kill after note_mutation, before the delta lands.

    The bundle is unmutated, so serving it is correct; the only loss
    is the warm-start fingerprint — strictly conservative.
    """
    catalog, model = collection
    import repro.api.database as database_module

    def die(path, op, **kwargs):
        raise KeyboardInterrupt("crash before the delta hits the disk")

    monkeypatch.setattr(database_module, "append_delta", die)
    db = _open(catalog)
    with pytest.raises(KeyboardInterrupt):
        db.put("memo", FRAGMENT)
    db.close()
    monkeypatch.undo()

    assert catalog.info("docs").get("mutated") is True
    assert "source_bytes" not in catalog.info("docs")
    db = _open(catalog)
    try:
        assert "memo" not in db.documents()
        assert_equivalent(db, model, "vector", "figure1", "pre-append crash")
    finally:
        db.close()


def test_crash_during_compaction_bundle_write(collection, monkeypatch):
    """Kill inside the compacted bundle write: deltas keep serving."""
    catalog, model = collection
    _mutate_and_close(catalog, model, [("put", "memo", FRAGMENT)])

    import repro.snapshot.catalog as catalog_module

    def die(*args, **kwargs):
        raise KeyboardInterrupt("power loss mid-write")

    monkeypatch.setattr(catalog_module, "write_snapshot", die)
    with pytest.raises(KeyboardInterrupt):
        catalog.compact("docs")
    monkeypatch.undo()

    assert not list(catalog.root.glob("*.tmp")), "temp bundle left behind"
    db = _open(catalog)
    try:
        assert db.stats()["writes"]["pending_deltas"] == 1
        assert_equivalent(db, model, "vector", "figure1", "mid-write crash")
    finally:
        db.close()


def test_crash_between_bundle_replace_and_manifest_flip(
    collection, monkeypatch
):
    """Kill after the compacted bundle landed, before the manifest flip.

    The manifest still describes the previous generation, but the
    bundle on disk is the compacted one — which answers identically by
    construction, so recovery needs no repair step at all.
    """
    catalog, model = collection
    _mutate_and_close(
        catalog,
        model,
        [("put", "memo", FRAGMENT), ("delete", "seed-0000", None)],
    )

    real_write = Catalog._write_manifest

    def die(self, collections):
        raise KeyboardInterrupt("killed before the manifest flip")

    monkeypatch.setattr(Catalog, "_write_manifest", die)
    with pytest.raises(KeyboardInterrupt):
        catalog.compact("docs")
    monkeypatch.setattr(Catalog, "_write_manifest", real_write)

    stale_meta = catalog.info("docs")
    db = _open(catalog)
    try:
        assert db.stats()["writes"]["pending_deltas"] == 0
        assert_equivalent(db, model, "vector", "figure1", "pre-flip crash")
        # A later mutation + compaction completes the interrupted cycle.
        db.put("after", FRAGMENT2)
        model.put("after", FRAGMENT2)
    finally:
        db.close()
    meta = catalog.compact("docs")
    assert meta["generation"] > stale_meta["generation"]
    db = _open(catalog)
    try:
        assert_equivalent(db, model, "vector", "figure1", "recovered")
    finally:
        db.close()


def test_crash_before_flip_of_reshard_compaction(collection, monkeypatch):
    """Kill a shards=N re-balance before the flip: monolithic survives."""
    catalog, model = collection
    _mutate_and_close(catalog, model, [("put", "memo", FRAGMENT)])

    real_write = Catalog._write_manifest

    def die(self, collections):
        raise KeyboardInterrupt("killed before the manifest flip")

    monkeypatch.setattr(Catalog, "_write_manifest", die)
    with pytest.raises(KeyboardInterrupt):
        catalog.compact("docs", shards=2)
    monkeypatch.setattr(Catalog, "_write_manifest", real_write)

    # The manifest still serves the monolithic bundle, deltas intact.
    assert catalog.info("docs").get("shards") is None
    db = _open(catalog)
    try:
        assert_equivalent(db, model, "vector", "figure1", "reshard crash")
    finally:
        db.close()
