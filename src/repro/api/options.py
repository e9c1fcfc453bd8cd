"""Frozen configuration for the :class:`~repro.api.database.Database`.

Before the facade existed, engine knobs travelled as loose keyword
arguments through four constructors (``NearestConceptEngine``,
``QueryProcessor``, ``SearchEngine``, the CLI argument plumbing), and
every caller had to re-derive the snapshot-serving defaults by hand.
:class:`DatabaseOptions` is the one immutable bag for all of them:

* ``backend`` / ``case_sensitive`` default to ``None`` = "follow the
  source" — an opened snapshot bundle supplies ``vector`` (its LCA
  index is already loaded) and the bundle's case mode, anything else
  falls back to ``steered`` and case-insensitive, exactly the CLI's
  historical behaviour;
* ``cache`` is the serving-layer result cache spec (off, a capacity,
  ``True`` for the default capacity, or a shared
  :class:`~repro.core.result_cache.ResultCache` instance);
* ``catalog`` names the snapshot catalog directory consulted during
  source resolution (``None`` = ``$REPRO_CATALOG`` or
  ``.repro-catalog``);
* ``mmap`` maps snapshot bundles instead of copying them into memory;
* ``max_rows`` bounds enumeration-mode query results;
* ``shards`` partitions the collection into N independent shards
  (:mod:`repro.exec.sharding`) — answers stay byte-identical, work
  becomes scatter-gather.  ``None`` follows the source: a sharded
  catalog collection opens sharded, everything else monolithic;
* ``workers`` > 0 serves shard work from a process pool
  (:class:`repro.exec.executors.ParallelExecutor`) instead of
  in-process — true multi-core query serving.  Implies sharding
  (``shards`` defaults to ``workers`` when unset);
* ``replicas`` > 0 serves each shard from that many **socket worker
  processes** with health-checked failover
  (:class:`repro.exec.cluster.ClusterExecutor`) — the database spawns
  and supervises them.  Implies sharding like ``workers``;
* ``cluster`` points at *already-running* shard workers instead: a
  tuple of per-shard address tuples, e.g.
  ``((("127.0.0.1", 9101), ("127.0.0.1", 9201)), ...)`` — shard ``i``
  is served by the ``i``-th group, failing over inside it.

``workers``, ``replicas`` and ``cluster`` are mutually exclusive —
each names a different executor.

Being frozen, an options object can be shared between databases and
threads without defensive copies; derive variants with
:meth:`DatabaseOptions.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Union

from ..core.backends import BACKEND_NAMES, SNAPSHOT_DEFAULT_BACKEND
from ..core.result_cache import CacheSpec

__all__ = ["DatabaseOptions"]


@dataclass(frozen=True, slots=True)
class DatabaseOptions:
    """Immutable configuration shared by every facade entry point."""

    backend: Optional[str] = None
    case_sensitive: Optional[bool] = None
    cache: CacheSpec = None
    catalog: Optional[Union[str, FsPath]] = None
    mmap: bool = False
    max_rows: Optional[int] = 100_000
    shards: Optional[int] = None
    workers: int = 0
    replicas: int = 0
    cluster: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}: "
                f"choose from {sorted(BACKEND_NAMES)}"
            )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        chosen = [
            name
            for name, active in (
                ("workers", self.workers > 0),
                ("replicas", self.replicas > 0),
                ("cluster", self.cluster is not None),
            )
            if active
        ]
        if len(chosen) > 1:
            raise ValueError(
                f"{' and '.join(chosen)} are mutually exclusive: "
                f"each selects a different executor"
            )
        if self.cluster is not None:
            if not self.cluster:
                raise ValueError("cluster needs at least one shard group")
            for shard_id, group in enumerate(self.cluster):
                if not group:
                    raise ValueError(
                        f"cluster shard {shard_id} has no worker addresses"
                    )
            if self.shards is not None and self.shards != len(self.cluster):
                raise ValueError(
                    f"shards={self.shards} disagrees with the cluster "
                    f"map's {len(self.cluster)} shard groups"
                )

    @property
    def effective_shards(self) -> Optional[int]:
        """The shard count actually requested.

        ``workers``/``replicas`` imply sharding; a ``cluster`` map
        fixes the count to its number of shard groups.
        """
        if self.cluster is not None:
            return len(self.cluster)
        if self.shards is not None:
            return self.shards
        if self.workers > 0:
            return self.workers
        if self.replicas > 0:
            # Replicas are per shard; without an explicit shard count
            # a replicated single shard is still a meaningful cluster.
            return 1
        return None

    def replace(self, **overrides) -> "DatabaseOptions":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)

    def effective(self, snapshot) -> tuple:
        """``(case_sensitive, backend)`` honouring snapshot defaults.

        ``None`` means "not chosen": serving from a snapshot bundle
        then inherits the bundle's case mode and the ``vector``
        backend, which consumes the bundle's seeded LCA index without a
        rebuild — keeping the warm start rebuild-free.
        """
        case_sensitive = self.case_sensitive
        backend = self.backend
        if snapshot is not None:
            if case_sensitive is None:
                case_sensitive = snapshot.fulltext_index.case_sensitive
            if backend is None:
                backend = SNAPSHOT_DEFAULT_BACKEND
        return bool(case_sensitive), backend or "steered"
