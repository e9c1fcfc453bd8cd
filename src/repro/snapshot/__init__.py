"""Snapshot store: binary columnar persistence with zero-rebuild loads.

The JSON image of :mod:`repro.monet.storage` persists the *raw* store
and pays a full re-parse of its relations plus an index rebuild on
every process start.  This package persists the store **and** its
derived indexes — the Euler-RMQ LCA machinery and the full-text term
columns — as raw column buffers in one checksummed bundle, so a warm
start is O(bytes) instead of O(rebuild):

* :mod:`repro.snapshot.format` — the versioned binary container
  (magic, format version, per-section CRC-32 checksums, ``mmap``-able
  column sections);
* :mod:`repro.snapshot.codec` — :func:`write_snapshot` /
  :func:`read_snapshot` bundling store, LCA index and full-text index,
  with the per-store generation-keyed caches seeded on load;
* :mod:`repro.snapshot.catalog` — :class:`Catalog`, a directory of
  named collections with per-collection metadata and generations;
* :mod:`repro.snapshot.sharded` — the shard-aware extension: one
  bundle per shard plus a recorded layout, so sharded collections
  warm-start rebuild-free too (serially or behind a worker pool).

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
from .sharded import (
    read_snapshot_header,
    shard_bundle_name,
    write_shard_bundles,
)

__all__ = [
    "Catalog",
    "DeltaOp",
    "Snapshot",
    "append_delta",
    "append_section",
    "read_delta_ops",
    "read_snapshot",
    "write_snapshot",
    "read_snapshot_header",
    "shard_bundle_name",
    "write_shard_bundles",
    "SnapshotReader",
    "SnapshotWriter",
    "FORMAT_VERSION",
    "MAGIC",
]
