"""Snapshot store: binary columnar persistence with zero-rebuild loads.

A snapshot bundle is the one on-disk format of a store.  It persists
the store **and** its full-text term columns as raw column buffers in
one checksummed bundle, so a warm start is O(bytes) instead of
O(rebuild); the LCA index is one depth column the loader derives while
it checks the store's pre-order:

* :mod:`repro.snapshot.format` — the versioned binary container
  (magic, format version, per-section CRC-32 checksums, ``mmap``-able
  column sections);
* :mod:`repro.snapshot.codec` — :func:`write_snapshot` /
  :func:`read_snapshot` bundling store and full-text index,
  with the per-store generation-keyed caches seeded on load;
* :mod:`repro.snapshot.catalog` — :class:`Catalog`, a directory of
  named collections with per-collection metadata and generations;
* :mod:`repro.snapshot.sharded` — the shard layout a bundle records:
  a sharded collection is one bundle whose shards are OID ranges, so
  it warm-starts rebuild-free too (serially or behind worker
  processes).

``benchmarks/serving/run.py`` reports the build and load costs on every
workload (``setup_s``, ``snapshot.build_s``, ``snapshot.open_ms``,
``bundle_bytes_per_xml_byte``).
"""

from .catalog import Catalog
from .codec import Snapshot, read_snapshot, write_snapshot
from .deltas import DeltaOp, append_delta, read_delta_ops
from .format import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotReader,
    SnapshotWriter,
    append_section,
)
from .sharded import bundle_plan, recorded_plan

__all__ = [
    "Catalog",
    "DeltaOp",
    "Snapshot",
    "append_delta",
    "append_section",
    "read_delta_ops",
    "read_snapshot",
    "write_snapshot",
    "bundle_plan",
    "recorded_plan",
    "SnapshotReader",
    "SnapshotWriter",
    "FORMAT_VERSION",
    "MAGIC",
]
