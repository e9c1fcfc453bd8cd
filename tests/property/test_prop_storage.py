"""Property tests: snapshot round trip on generated stores."""

import tempfile
from pathlib import Path

from hypothesis import given, settings

from repro.snapshot import read_snapshot, write_snapshot

from .strategies import stores


def bundle_bytes(store) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.snap"
        write_snapshot(store, path)
        return path.read_bytes()


def reloaded(store):
    return read_snapshot(bundle_bytes(store)).store


@settings(max_examples=40, deadline=None)
@given(stores(max_nodes=25))
def test_snapshot_roundtrip_preserves_columns(store):
    clone = reloaded(store)
    assert clone.node_count == store.node_count
    assert clone.root_oid == store.root_oid
    for loaded, built in zip(clone.dense_columns(), store.dense_columns()):
        assert list(loaded) == list(built)
    for oid in store.iter_oids():
        assert clone.path_of(oid) == store.path_of(oid)
        assert clone.attributes_of(oid) == store.attributes_of(oid)


@settings(max_examples=30, deadline=None)
@given(stores(max_nodes=25))
def test_reloaded_store_validates(store):
    reloaded(store).validate()


@settings(max_examples=30, deadline=None)
@given(stores(max_nodes=20))
def test_meet_stable_across_reload(store):
    from repro.core.meet_pair import meet2

    clone = reloaded(store)
    oids = list(store.iter_oids())
    samples = oids[:: max(1, len(oids) // 5)]
    for oid1 in samples:
        for oid2 in samples:
            assert meet2(clone, oid1, oid2) == meet2(store, oid1, oid2)


@settings(max_examples=30, deadline=None)
@given(stores(max_nodes=20))
def test_write_snapshot_is_deterministic(store):
    assert bundle_bytes(store) == bundle_bytes(store)
