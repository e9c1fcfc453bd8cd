"""Sharded persistence: one bundle and the layout it records.

A sharded collection is one ordinary ``.snap`` bundle — the whole
store, one path summary, one LCA index, one full-text index — whose
meta section records the shard layout
(:meth:`repro.exec.sharding.ShardPlan.to_dict`) under ``shards``, the
key under which the catalog manifest carries the same record.  Every
opener maps that one bundle: the serial executor and socket
replicas alike answer each shard as an OID range of the one
store (:mod:`repro.exec.sharding`), so a warm start builds no index
and no shard holds a copy of the data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .codec import Snapshot

if TYPE_CHECKING:
    from ..exec.sharding import ShardPlan

__all__ = ["LAYOUT_KEY", "bundle_plan", "recorded_plan"]

#: The key of the shard layout in a bundle's meta and a manifest entry.
LAYOUT_KEY = "shards"


def recorded_plan(meta: Dict[str, object]) -> Optional[ShardPlan]:
    """The shard layout a bundle's meta or a catalog manifest entry
    records (``None``: unsharded)."""
    layout = meta.get(LAYOUT_KEY)
    if layout is None:
        return None
    from ..exec.sharding import ShardPlan

    return ShardPlan.from_dict(layout)


def bundle_plan(snapshot: Snapshot) -> ShardPlan:
    """The layout a bundle serves: the recorded one, else one shard."""
    from ..exec.sharding import compute_shard_plan

    return recorded_plan(snapshot.meta) or compute_shard_plan(
        snapshot.store, 1
    )
