"""Round-trip tests for the snapshot codec: store, indexes, warm caches."""

import numpy as np
import pytest

from repro.core.engine import NearestConceptEngine
from repro.core.lca_index import (
    clear_lca_index_cache,
    get_lca_index,
    lca_index_cache_info,
)
from repro.datamodel.errors import StorageError
from repro.datasets import figure1_document
from repro.fulltext.index import (
    clear_fulltext_index_cache,
    fulltext_index_cache_info,
    get_fulltext_index,
)
from repro.kernels.lca import get_kernels
from repro.monet.transform import monet_transform
from repro.snapshot import read_snapshot, write_snapshot

from .test_store_sections import assert_same_families


@pytest.fixture()
def bundle(tmp_path, figure1_store):
    path = tmp_path / "figure1.snap"
    write_snapshot(figure1_store, path)
    return path


class TestStoreRoundTrip:
    def test_columns_survive(self, bundle, figure1_store):
        clone = read_snapshot(bundle).store
        assert clone.node_count == figure1_store.node_count
        assert clone.root_oid == figure1_store.root_oid
        assert clone.first_oid == figure1_store.first_oid
        for oid in figure1_store.iter_oids():
            assert clone.path_of(oid) == figure1_store.path_of(oid)
            assert clone.parent_of(oid) == figure1_store.parent_of(oid)
            assert clone.rank_of(oid) == figure1_store.rank_of(oid)
            assert clone.attributes_of(oid) == figure1_store.attributes_of(oid)

    def test_relations_survive(self, bundle, figure1_store):
        clone = read_snapshot(bundle).store
        assert clone.relation_names() == figure1_store.relation_names()
        assert_same_families(clone, figure1_store)

    def test_loaded_store_validates(self, bundle):
        # The loader skips validate() (checksums guard integrity); the
        # full cross-check must still hold when run explicitly.
        read_snapshot(bundle).store.validate()

    def test_summary_prefix_machinery(self, bundle, figure1_store):
        clone = read_snapshot(bundle).store
        original = figure1_store.summary
        loaded = clone.summary
        assert len(loaded) == len(original)
        for pid in original.pids():
            assert loaded.parent(pid) == original.parent(pid)
            assert loaded.depth(pid) == original.depth(pid)
            assert loaded.label(pid) == original.label(pid)
            assert loaded.is_attribute(pid) == original.is_attribute(pid)
        # Path-keyed lookups trigger the lazy index and still agree.
        for pid in original.pids():
            assert loaded.pid(original.path(pid)) == pid

    def test_intern_new_paths_on_loaded_summary(self, bundle):
        # Interning a path with several missing prefix steps must keep
        # the lazy label/kind columns aligned with the pids (the base
        # intern recurses through the override once per prefix).
        from repro.datamodel.paths import Path

        summary = read_snapshot(bundle).store.summary
        pid = summary.intern(Path.parse("bibliography/wing/office@room"))
        assert str(summary.path(pid)) == "bibliography/wing/office@room"
        assert summary.label(pid) == "room"
        assert summary.is_attribute(pid)
        parent = summary.parent(pid)
        assert summary.label(parent) == "office"
        grandparent = summary.parent(parent)
        assert summary.label(grandparent) == "wing"
        for checked in summary.pids():
            path = summary.path(checked)
            assert summary.label(checked) == path.last.label
            assert summary.is_attribute(checked) == (
                path.last.kind == "@"
            )

    def test_in_memory_buffer_roundtrip(self, figure1_store, tmp_path):
        path = tmp_path / "mem.snap"
        write_snapshot(figure1_store, path)
        snapshot = read_snapshot(path.read_bytes())
        assert snapshot.store.node_count == figure1_store.node_count
        assert snapshot.path is None

    def test_mmap_roundtrip(self, bundle, figure1_store):
        snapshot = read_snapshot(bundle, use_mmap=True)
        assert snapshot.store.node_count == figure1_store.node_count
        engine = snapshot.engine()
        assert engine.nearest_concepts("Bit", "1999")


class TestIndexRoundTrip:
    def test_lca_index_agrees(self, bundle, figure1_store):
        snapshot = read_snapshot(bundle)
        fresh = get_lca_index(figure1_store)
        loaded = snapshot.lca_index
        assert loaded.depths.tolist() == fresh.depths.tolist()
        oids = list(figure1_store.iter_oids())
        for oid1 in oids:
            for oid2 in oids[::3]:
                assert loaded.lca(oid1, oid2) == fresh.lca(oid1, oid2)
                assert loaded.distance(oid1, oid2) == fresh.distance(oid1, oid2)
            assert loaded.depth(oid1) == fresh.depth(oid1)

    def test_auxiliary_tree_agrees(self, bundle, figure1_store):
        snapshot = read_snapshot(bundle)
        fresh = get_kernels(get_lca_index(figure1_store))
        loaded = get_kernels(snapshot.lca_index)
        sample = np.asarray([3, 6, 8, 14, 17])
        for got, expected in zip(
            loaded.auxiliary_tree(sample), fresh.auxiliary_tree(sample)
        ):
            assert got.tolist() == expected.tolist()

    def test_fulltext_index_agrees(self, bundle, figure1_store):
        snapshot = read_snapshot(bundle)
        fresh = get_fulltext_index(figure1_store)
        loaded = snapshot.fulltext_index
        assert sorted(loaded.vocabulary()) == sorted(fresh.vocabulary())
        assert loaded.indexed_associations == fresh.indexed_associations
        for term in ("Bit", "1999", "Bob", "zzz-missing"):
            fresh_hits = fresh.search(term)
            loaded_hits = loaded.search(term)
            assert loaded_hits.oids() == fresh_hits.oids()
            # Column types may differ (array vs memoryview slice);
            # the (pid, oid) *values* must be identical.
            assert [list(column) for column in loaded_hits.columns] == [
                list(column) for column in fresh_hits.columns
            ]
            assert loaded.document_frequency(term) == (
                fresh.document_frequency(term)
            )


class TestWarmStart:
    def test_zero_index_constructions(self, bundle):
        """Acceptance: loading + querying builds no LcaIndex/FullTextIndex."""
        clear_lca_index_cache()
        clear_fulltext_index_cache()
        snapshot = read_snapshot(bundle)
        engine = snapshot.engine()
        concepts = engine.nearest_concepts("Bit", "1999", limit=5)
        assert concepts, "query should find the article"
        assert lca_index_cache_info().builds == 0
        assert fulltext_index_cache_info().builds == 0
        # The caches answered (not bypassed): hits moved.
        assert lca_index_cache_info().hits >= 1
        assert fulltext_index_cache_info().hits >= 1

    def test_seeded_caches_serve_all_consumers(self, bundle):
        clear_lca_index_cache()
        clear_fulltext_index_cache()
        snapshot = read_snapshot(bundle)
        store = snapshot.store
        assert get_lca_index(store) is snapshot.lca_index
        assert get_fulltext_index(store) is snapshot.fulltext_index

    def test_invalidate_caches_discards_seeded_indexes(self, bundle):
        clear_lca_index_cache()
        clear_fulltext_index_cache()
        snapshot = read_snapshot(bundle)
        store = snapshot.store
        store.invalidate_caches()
        assert get_lca_index(store) is not snapshot.lca_index
        assert lca_index_cache_info().builds == 1

    def test_engine_option_overrides(self, bundle):
        snapshot = read_snapshot(bundle)
        engine = snapshot.engine(backend="steered", cache=8)
        assert engine.backend.name == "steered"
        assert engine.nearest_concepts("Bit", "1999")
        assert engine.cache_info() is not None


class TestBundleErrors:
    def test_missing_section(self, figure1_store, tmp_path):
        from repro.snapshot.format import SnapshotReader, SnapshotWriter

        writer = SnapshotWriter()
        writer.add_json("meta", {"node_count": 1})
        path = tmp_path / "partial.snap"
        writer.write(path)
        with pytest.raises(StorageError, match="no section"):
            read_snapshot(path)

    def test_flipped_byte_is_a_checksum_failure(self, bundle, tmp_path):
        from repro.snapshot.format import SnapshotReader

        # A byte in the middle of a payload (a header byte fails framing).
        start, length = SnapshotReader.open(bundle)._sections["strings/values"]
        data = bytearray(bundle.read_bytes())
        data[start + length // 2] ^= 0x40
        corrupt = tmp_path / "corrupt.snap"
        corrupt.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="checksum failure"):
            read_snapshot(corrupt)

    def test_truncated_bundle(self, bundle, tmp_path):
        data = bundle.read_bytes()
        truncated = tmp_path / "truncated.snap"
        truncated.write_bytes(data[: len(data) - 16])
        with pytest.raises(StorageError, match="truncated"):
            read_snapshot(truncated)

    def test_wrong_typed_meta_field(self, bundle, tmp_path):
        # Valid JSON, valid checksums, wrong field type: still a
        # StorageError, never a bare TypeError.
        import json

        from repro.snapshot.format import SnapshotReader, SnapshotWriter

        reader = SnapshotReader.open(bundle)
        meta = reader.json("meta")
        meta["indexed_associations"] = None
        writer = SnapshotWriter()
        writer.add_json("meta", meta)
        for name in reader.section_names():
            if name != "meta":
                writer.add_bytes(name, reader.raw(name))
        corrupt = tmp_path / "wrong-type.snap"
        writer.write(corrupt)
        with pytest.raises(StorageError, match="not an integer"):
            read_snapshot(corrupt)

    def test_cross_endian_bundle_loads(self, figure1_store, tmp_path):
        import sys

        from repro.snapshot.codec import write_snapshot as ws

        foreign = 1 if sys.byteorder == "little" else 0
        path = tmp_path / "foreign.snap"
        ws(figure1_store, path, _writer_byteorder=foreign)
        clone = read_snapshot(path).store
        assert clone.node_count == figure1_store.node_count
        engine = NearestConceptEngine(clone, backend="vector")
        assert engine.nearest_concepts("Bit", "1999")
