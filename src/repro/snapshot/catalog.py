"""A directory of named document collections, each a snapshot bundle.

The multi-document face of the snapshot store: one catalog directory
holds a ``catalog.json`` manifest plus one ``<name>.snap`` bundle per
collection.  The manifest records per-collection metadata — source
file, node count, byte size, a monotonically increasing **generation**
bumped on every rebuild, timestamps — so servers and the CLI can
list, open and refresh collections without touching the bundles.

Typical flow::

    catalog = Catalog("warehouse")
    catalog.ingest("dblp", "dblp.xml")        # parse → snapshot
    snap = catalog.open("dblp")               # O(bytes), caches seeded
    engine = snap.engine()                    # zero index constructions

Collection names are restricted to filesystem-safe characters; every
failure mode (unknown collection, invalid name, corrupt bundle or
manifest) raises :class:`~repro.datamodel.errors.StorageError`.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Sequence, Union

from ..datamodel.errors import StorageError
from ..monet.engine import MonetXML
from .codec import Snapshot, carry_indexes, read_snapshot, write_snapshot

__all__ = ["Catalog", "CATALOG_FILE", "CATALOG_FORMAT", "CATALOG_VERSION"]

CATALOG_FILE = "catalog.json"
CATALOG_FORMAT = "repro-snapshot-catalog"
CATALOG_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StorageError(
            f"invalid collection name {name!r}: use letters, digits, '.', "
            "'_' or '-' (must start with a letter or digit)"
        )
    if name.endswith(".snap"):
        # Such a name would be unaddressable: every load path treats a
        # ``.snap`` suffix as a bundle file, never a collection name.
        raise StorageError(
            f"invalid collection name {name!r}: must not end in '.snap'"
        )
    return name


def _per_shard_bundles(meta: Dict[str, object]) -> List[str]:
    """The per-shard bundle files a manifest entry lists — a layout of
    one bundle per shard, which is no longer read."""
    shards = meta.get("shards")
    files = shards.get("files", ()) if isinstance(shards, dict) else ()
    return [file for file in files if isinstance(file, str)]


def _refuse_per_shard_bundles(name: str, meta: Dict[str, object]) -> None:
    if _per_shard_bundles(meta):
        raise StorageError(
            f"collection {name!r} is stored as one bundle per shard, a "
            "layout that is no longer read; rebuild it with "
            f"`repro snapshot build <xml> {name} --shards "
            f"{meta['shards'].get('count', 'N')}`"
        )


def refuse_json_image(source: FsPath) -> None:
    """Refuse a ``.json`` source: the JSON store image of earlier
    versions is not read; its XML rebuilds the store."""
    if source.suffix == ".json":
        raise StorageError(
            f"{source} is a JSON store image, which is no longer read; "
            "build a snapshot from the XML it came from with "
            "`repro snapshot build <xml>`"
        )


class Catalog:
    """Manage the snapshot bundles of one directory.

    The manifest is re-read per operation (cheap, and keeps multiple
    processes pointed at one directory coherent enough for the CLI
    workflow); writes go through a temp-file rename.
    """

    def __init__(self, root: Union[str, FsPath], *, create: bool = True):
        self.root = FsPath(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StorageError(f"no such catalog directory: {self.root}")

    # -- manifest -------------------------------------------------------
    @property
    def manifest_path(self) -> FsPath:
        return self.root / CATALOG_FILE

    def _read_manifest(self) -> Dict[str, Dict[str, object]]:
        path = self.manifest_path
        if not path.exists():
            return {}
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"corrupt catalog manifest {path}: {exc}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != CATALOG_FORMAT
        ):
            raise StorageError(f"{path} is not a snapshot catalog manifest")
        if manifest.get("version") != CATALOG_VERSION:
            raise StorageError(
                f"unsupported catalog version {manifest.get('version')!r} in {path}"
            )
        collections = manifest.get("collections")
        if not isinstance(collections, dict):
            raise StorageError(f"catalog manifest {path} has no collections map")
        return collections

    def _write_manifest(self, collections: Dict[str, Dict[str, object]]) -> None:
        payload = {
            "format": CATALOG_FORMAT,
            "version": CATALOG_VERSION,
            "collections": collections,
        }
        temp = self.manifest_path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        temp.replace(self.manifest_path)

    # -- queries --------------------------------------------------------
    def collections(self) -> Dict[str, Dict[str, object]]:
        """name → metadata for every registered collection (sorted)."""
        return dict(sorted(self._read_manifest().items()))

    def names(self) -> List[str]:
        return sorted(self._read_manifest())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._read_manifest()

    def info(self, name: str) -> Dict[str, object]:
        try:
            return self._read_manifest()[name]
        except KeyError:
            raise StorageError(
                f"no collection {name!r} in catalog {self.root}"
            ) from None

    def bundle_path(self, name: str) -> FsPath:
        return self.root / f"{_check_name(name)}.snap"

    def find_source(self, source: Union[str, FsPath]) -> Optional[str]:
        """The collection built from ``source``, if its bundle is fresh.

        A hit requires the recorded source to resolve to the same file
        *and* the source's current (size, mtime) to equal the
        fingerprint taken at build time — any change to the file,
        including a restore of older content with a backdated mtime,
        sends the caller back to parsing rather than risking stale
        data.
        """
        try:
            resolved = FsPath(source).resolve()
            stat = resolved.stat()
        except OSError:
            return None
        for name, meta in self._read_manifest().items():
            recorded = meta.get("source")
            if not isinstance(recorded, str):
                continue
            try:
                if FsPath(recorded).resolve() != resolved:
                    continue
            except OSError:
                continue
            if (
                meta.get("source_bytes") == stat.st_size
                and meta.get("source_mtime_ns") == stat.st_mtime_ns
                and self.bundle_path(name).exists()
            ):
                return name
        return None

    # -- mutations ------------------------------------------------------
    def build(
        self,
        name: str,
        store: MonetXML,
        *,
        source: Optional[Union[str, FsPath]] = None,
        case_sensitive: bool = False,
        shards: Optional[int] = None,
        value_indexes: Optional[Sequence[str]] = None,
        _source_stat: Optional[os.stat_result] = None,
    ) -> Dict[str, object]:
        """Snapshot ``store`` under ``name``; returns the new metadata.

        Rebuilding an existing collection bumps its generation and
        atomically replaces the bundle.  With ``shards`` the store is
        planned into that many OID ranges (:mod:`repro.exec.sharding`)
        — ``shards=1`` included — and the layout is recorded in the
        bundle's meta and in the manifest, so every open serves the
        recorded shards; ``None`` builds a monolithic collection.
        Either way the collection is one bundle.  ``value_indexes``
        declares typed value indexes for the collection (path pattern
        strings): the declarations are recorded in the manifest and
        the built index is bundled as ``vx/*`` sections, so opens start
        probe-ready.  ``_source_stat`` lets :meth:`ingest` record
        the fingerprint of the content it actually read (stat'ed
        *before* reading), so a source modified mid-ingest can never
        fingerprint as fresh.
        """
        _check_name(name)
        if shards is not None and shards < 1:
            raise StorageError(f"shard count must be >= 1, got {shards}")
        declarations = sorted(set(value_indexes)) if value_indexes else None
        collections = self._read_manifest()
        previous = collections.get(name, {})
        try:
            generation = int(previous.get("generation", 0)) + 1
        except (TypeError, ValueError):
            raise StorageError(
                f"corrupt catalog manifest {self.manifest_path}: generation "
                f"of {name!r} is not a number"
            ) from None
        bundle = self.bundle_path(name)
        extra_meta: Dict[str, object] = {
            "collection": name,
            "collection_generation": generation,
        }
        layout: Optional[Dict[str, object]] = None
        if shards is not None:
            from ..exec.sharding import compute_shard_plan

            layout = compute_shard_plan(store, shards).to_dict()
            extra_meta["shards"] = layout
        temp = bundle.with_suffix(".snap.tmp")
        try:
            size = write_snapshot(
                store,
                temp,
                case_sensitive=case_sensitive,
                value_indexes=declarations,
                extra_meta=extra_meta,
            )
            temp.replace(bundle)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        source_fingerprint: Dict[str, object] = {}
        if source is not None:
            try:
                stat = _source_stat or FsPath(source).stat()
                source_fingerprint = {
                    "source_bytes": stat.st_size,
                    "source_mtime_ns": stat.st_mtime_ns,
                }
            except OSError:
                pass  # unreadable source: recorded without a fingerprint
        meta: Dict[str, object] = {
            "file": bundle.name,
            "source": str(FsPath(source).resolve()) if source is not None else None,
            **source_fingerprint,
            "node_count": store.node_count,
            "path_count": len(store.summary) - 1,
            "bytes": size,
            "generation": generation,
            "case_sensitive": case_sensitive,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        if declarations:
            meta["value_indexes"] = declarations
        if layout is not None:
            meta["shards"] = layout
        collections[name] = meta
        self._write_manifest(collections)
        # Strictly *after* the manifest flip (a crash before it leaves
        # the previous build servable): a rebuild retires the files of
        # a refused one-bundle-per-shard layout.
        for file in _per_shard_bundles(previous):
            (self.root / file).unlink(missing_ok=True)
        return meta

    def ingest(
        self,
        name: str,
        source: Union[str, FsPath],
        *,
        case_sensitive: bool = False,
        shards: Optional[int] = None,
        value_indexes: Optional[Sequence[str]] = None,
    ) -> Dict[str, object]:
        """Parse an XML file and snapshot it."""
        from ..monet.transform import shred_xml

        source = FsPath(source)
        try:
            # Fingerprint before reading: content that changes during
            # the (potentially long) parse must not register as fresh.
            source_stat = source.stat()
        except OSError:
            raise StorageError(f"no such source file: {source}") from None
        refuse_json_image(source)
        text = source.read_text(encoding="utf-8")
        store = shred_xml(text, first_oid=1)
        return self.build(
            name,
            store,
            source=source,
            case_sensitive=case_sensitive,
            shards=shards,
            value_indexes=value_indexes,
            _source_stat=source_stat,
        )

    def is_sharded(self, name: str) -> bool:
        return isinstance(self.info(name).get("shards"), dict)

    def open(
        self,
        name: str,
        *,
        use_mmap: bool = False,
        tolerate_torn_tail: bool = False,
    ) -> Snapshot:
        """Load one collection's bundle; caches come back pre-seeded.

        Any delta tail is replayed by :func:`read_snapshot`;
        ``tolerate_torn_tail`` is what write-capable openers pass so an
        interrupted delta append (never acknowledged) is dropped
        instead of failing the load.
        """
        meta = self.info(name)
        _refuse_per_shard_bundles(name, meta)
        bundle = self.bundle_path(name)
        if not bundle.exists():
            raise StorageError(
                f"collection {name!r} is registered but its bundle "
                f"{bundle.name} is missing from {self.root}"
            )
        snapshot = read_snapshot(
            bundle, use_mmap=use_mmap, tolerate_torn_tail=tolerate_torn_tail
        )
        snapshot.meta.setdefault("catalog", str(self.root))
        snapshot.meta.setdefault("collection", name)
        snapshot.meta.setdefault("collection_meta", meta)
        return snapshot

    def note_mutation(self, name: str) -> None:
        """Record that ``name``'s bundle diverged from its source file.

        Called when the first delta lands on a collection built from a
        source document: the bundle no longer reproduces that file, so
        the source fingerprint is dropped — :meth:`find_source` must
        send future opens of the file back to parsing instead of
        serving the mutated collection.  The source path itself stays
        for provenance.  Idempotent; a missing entry is an error.
        """
        collections = self._read_manifest()
        meta = collections.get(name)
        if meta is None:
            raise StorageError(f"no collection {name!r} in catalog {self.root}")
        if meta.get("mutated") and "source_bytes" not in meta:
            return
        meta.pop("source_bytes", None)
        meta.pop("source_mtime_ns", None)
        meta["mutated"] = True
        self._write_manifest(collections)

    def compact(
        self,
        name: str,
        *,
        shards: Optional[int] = None,
        use_mmap: bool = False,
    ) -> Dict[str, object]:
        """Fold a collection's delta tail into a fresh base bundle.

        Loads the bundle (replaying its deltas, forgiving a torn
        tail), compacts the store to dense pre-order, carries its
        indexes over (:func:`~repro.snapshot.codec.carry_indexes`) and
        rewrites the collection through :meth:`build` — i.e. behind
        the same crash-safe temp-write → rename → manifest-flip
        sequence as any rebuild, so the previous build keeps serving
        until the flip and a crash at any point leaves a fully
        servable bundle.
        ``shards`` re-balances the layout (``None`` keeps the
        collection monolithic and writable; ``N`` records an
        ``N``-shard layout, after which the collection is read-only).
        The new metadata drops the source association: the compacted
        content comes from the live collection, not from any file on
        disk.

        Sharded collections are refused — they are read-only, so no
        delta tail accumulates; rebuild from source to re-balance them.
        """
        meta = self.info(name)
        if isinstance(meta.get("shards"), dict):
            raise StorageError(
                f"collection {name!r} is sharded; sharded collections are "
                "read-only and carry no deltas — rebuild it with "
                "`repro snapshot build` to re-balance"
            )
        from ..monet.mutate import compact_store

        snapshot = self.open(name, use_mmap=use_mmap, tolerate_torn_tail=True)
        store, mapping = compact_store(snapshot.store)
        if mapping is not None:
            carry_indexes(snapshot.store, store, mapping)
        declared = meta.get("value_indexes")
        return self.build(
            name,
            store,
            case_sensitive=bool(meta.get("case_sensitive", False)),
            shards=shards,
            value_indexes=declared if isinstance(declared, list) else None,
        )

    def drop(self, name: str) -> None:
        """Remove a collection's bundle and manifest entry."""
        collections = self._read_manifest()
        if name not in collections:
            raise StorageError(f"no collection {name!r} in catalog {self.root}")
        meta = collections.pop(name)
        self.bundle_path(name).unlink(missing_ok=True)
        for file in _per_shard_bundles(meta):
            (self.root / file).unlink(missing_ok=True)
        self._write_manifest(collections)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Catalog root={str(self.root)!r} collections={len(self.names())}>"
