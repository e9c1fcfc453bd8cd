"""Frozen configuration for the :class:`~repro.api.database.Database`.

Before the facade existed, engine knobs travelled as loose keyword
arguments through four constructors (``NearestConceptEngine``,
``QueryProcessor``, ``SearchEngine``, the CLI argument plumbing), and
every caller had to re-derive the snapshot-serving defaults by hand.
:class:`DatabaseOptions` is the one immutable bag for all of them:

* ``backend`` is ``None`` or ``"vector"`` — every open serves on the
  NumPy kernels — or ``"steered"``, which answers monolithically on
  the paper's walks (the reference the differential suites compare
  against; it cannot be combined with ``shards``, ``replicas`` or
  ``cluster``);
* ``case_sensitive`` defaults to ``None`` = "follow the source" — an
  opened snapshot bundle supplies its own case mode, anything else is
  case-insensitive;
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
* ``replicas`` > 0 serves each shard from that many **socket worker
  processes** (``repro shard-worker``, each mapping the one bundle)
  with health-checked failover and respawn
  (:class:`repro.exec.cluster.ClusterExecutor`) — the database spawns
  and supervises them.  This is how a machine serves past one core.
  Implies sharding (one shard when ``shards`` is unset);
* ``cluster`` points at *already-running* shard workers instead: a
  tuple of per-shard address tuples, e.g.
  ``((("127.0.0.1", 9101), ("127.0.0.1", 9201)), ...)`` — shard ``i``
  is served by the ``i``-th group, failing over inside it.

``replicas`` and ``cluster`` are mutually exclusive — one spawns the
workers, the other attaches to running ones.

Being frozen, an options object can be shared between databases and
threads without defensive copies; derive variants with
:meth:`DatabaseOptions.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Union

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
    replicas: int = 0
    cluster: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.backend not in (None, "vector", "steered"):
            raise ValueError(
                f"unknown backend {self.backend!r}: "
                "choose 'vector' or 'steered'"
            )
        if self.backend == "steered" and (
            self.shards is not None or self.replicas or self.cluster
        ):
            raise ValueError(
                "the steered reference answers monolithically: it cannot "
                "be combined with shards, replicas or cluster"
            )
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.replicas > 0 and self.cluster is not None:
            raise ValueError(
                "replicas and cluster are mutually exclusive: one spawns "
                "the shard workers, the other attaches to running ones"
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

        ``replicas`` implies sharding; a ``cluster`` map fixes the
        count to its number of shard groups.
        """
        if self.cluster is not None:
            return len(self.cluster)
        if self.shards is not None:
            return self.shards
        if self.replicas > 0:
            # Replicas are per shard; without an explicit shard count
            # a replicated single shard is still a meaningful cluster.
            return 1
        return None

    def replace(self, **overrides) -> "DatabaseOptions":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)

    def effective_case_sensitive(self, snapshot) -> bool:
        """The case mode: ``None`` follows a snapshot bundle's own."""
        if self.case_sensitive is None and snapshot is not None:
            return bool(snapshot.fulltext_index.case_sensitive)
        return bool(self.case_sensitive)
