"""Shard-aware snapshot persistence: one bundle per shard, one layout.

A sharded collection persists as N ordinary ``.snap`` bundles — each a
complete, self-describing snapshot of its shard store (full path
summary, own LCA and full-text indexes, pre-seeded caches on load) —
plus a layout record (:meth:`repro.exec.sharding.ShardPlan.to_dict`)
that the catalog manifest carries.  Warm starts therefore stay
rebuild-free per shard: a serial open loads every bundle; a parallel
open hands the bundle *paths* to the worker pool and loads only shard
0's summary in the coordinator (all bundles carry the identical
global summary, so pids agree everywhere).
"""

from __future__ import annotations

from pathlib import Path as FsPath
from typing import Dict, List, Optional, Tuple, Union

from ..datamodel.errors import StorageError
from ..exec.sharding import ShardPlan, compute_shard_plan, slice_store
from ..monet.engine import MonetXML
from ..monet.pathsummary import PathSummary
from .codec import _item_width, _rebuild_summary, write_snapshot
from .format import SnapshotReader

__all__ = [
    "shard_bundle_name",
    "write_shard_bundles",
    "read_snapshot_header",
    "layout_from_meta",
]


def shard_bundle_name(base: str, shard: int) -> str:
    """The on-disk name of one shard's bundle (``base.shard0.snap``)."""
    return f"{base}.shard{shard}.snap"


def write_shard_bundles(
    store: MonetXML,
    directory: Union[str, FsPath],
    base: str,
    *,
    shards: int,
    case_sensitive: bool = False,
    value_indexes: Optional[List[str]] = None,
    extra_meta: Optional[Dict[str, object]] = None,
) -> Tuple[ShardPlan, List[FsPath], int]:
    """Slice ``store`` and write one bundle per shard into ``directory``.

    Returns ``(plan, bundle paths, total bytes)``.  Bundles are written
    to temp names and renamed, so a crash mid-build leaves no
    half-written ``.snap`` behind; the *set* of files only becomes
    authoritative once the caller records the returned layout (the
    catalog writes its manifest after this returns).
    """
    directory = FsPath(directory)
    plan = compute_shard_plan(store, shards)
    slices = slice_store(store, plan)
    paths: List[FsPath] = []
    total = 0
    written: List[FsPath] = []
    try:
        for index, shard_store in enumerate(slices):
            bundle = directory / shard_bundle_name(base, index)
            temp = bundle.with_suffix(".snap.tmp")
            meta: Dict[str, object] = {
                "shard_index": index,
                "shard_count": plan.shard_count,
                "shard_layout": plan.to_dict(),
            }
            if extra_meta:
                meta.update(extra_meta)
            total += write_snapshot(
                shard_store, temp, case_sensitive=case_sensitive,
                value_indexes=value_indexes, extra_meta=meta,
            )
            written.append(temp)
            paths.append(bundle)
        for temp, bundle in zip(written, paths):
            temp.replace(bundle)
    except BaseException:
        for temp in written:
            temp.unlink(missing_ok=True)
        raise
    return plan, paths, total


def read_snapshot_header(
    path: Union[str, FsPath]
) -> Tuple[Dict[str, object], PathSummary]:
    """A bundle's meta section and path summary, without the store.

    This is the parallel coordinator's open path: it needs the global
    summary (for planning, ranking keys and path rendering) and the
    recorded layout, while the stores themselves live in the worker
    processes.  The open-time checksum pass still validates the whole
    bundle.
    """
    reader = SnapshotReader.open(FsPath(path), use_mmap=True)
    meta = reader.json("meta")
    if not isinstance(meta, dict):
        raise StorageError("snapshot meta section is not a JSON object")
    return meta, _rebuild_summary(reader, _item_width(meta))


def layout_from_meta(meta: Dict[str, object]) -> ShardPlan:
    """The shard layout recorded in a bundle's (or manifest's) meta."""
    payload = meta.get("shard_layout") if "shard_layout" in meta else meta
    if not isinstance(payload, dict):
        raise StorageError("snapshot meta carries no shard layout")
    return ShardPlan.from_dict(payload)
