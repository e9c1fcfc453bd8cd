"""Persistence of a :class:`MonetXML` store to a single JSON image.

The on-disk format is a versioned, self-contained JSON document:
the interned path summary (as serialized path strings in pid order),
the three relation families and the root/first OIDs.  JSON keeps the
image portable and diff-able; load rebuilds the dense OID columns from
the relations, then :meth:`MonetXML.validate` cross-checks them.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Dict, Optional, Union

from ..datamodel.errors import ReproError, StorageError
from ..datamodel.paths import Path
from .bat import BAT
from .engine import MonetXML, int32_column
from .pathsummary import PathSummary

__all__ = ["save", "load", "dumps", "loads"]

_FORMAT_VERSION = 1


def _encode(store: MonetXML) -> Dict:
    summary = store.summary
    return {
        "format": "repro-monet-xml",
        "version": _FORMAT_VERSION,
        "root_oid": store.root_oid,
        "first_oid": store.first_oid,
        "node_count": store.node_count,
        "paths": [str(summary.path(pid)) for pid in summary.pids()],
        "edges": {
            str(summary.path(pid)): relation.to_list()
            for pid, relation in store.edges.items()
        },
        "strings": {
            str(summary.path(pid)): relation.to_list()
            for pid, relation in store.strings.items()
        },
        "ranks": {
            str(summary.path(pid)): relation.to_list()
            for pid, relation in store.ranks.items()
        },
    }


def dumps(store: MonetXML, indent: Optional[int] = None) -> str:
    """Serialize a store to a JSON string."""
    return json.dumps(_encode(store), indent=indent)


def save(
    store: MonetXML, path: Union[str, FsPath], indent: Optional[int] = None
) -> None:
    """Write the JSON image of a store to ``path``.

    ``indent`` is forwarded to :func:`dumps`, so human-diffable
    pretty-printed images don't require going through ``dumps`` by
    hand.
    """
    FsPath(path).write_text(dumps(store, indent=indent), encoding="utf-8")


def _required(image: Dict, key: str):
    """Image field access that reports truncation, not ``KeyError``."""
    try:
        return image[key]
    except (KeyError, TypeError):
        raise StorageError(
            f"truncated image: required field {key!r} is missing"
        ) from None


def loads(text: str) -> MonetXML:
    """Rebuild a store from a JSON string produced by :func:`dumps`.

    Every corruption mode — missing fields, malformed relations,
    out-of-range OIDs — raises :class:`StorageError` with the reason;
    ``KeyError``/``TypeError``/``IndexError`` never escape.
    """
    try:
        image = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(f"not a JSON image: {exc}") from exc
    if not isinstance(image, dict):
        raise StorageError("not a repro Monet-XML image (not a JSON object)")
    if image.get("format") != "repro-monet-xml":
        raise StorageError("not a repro Monet-XML image")
    if image.get("version") != _FORMAT_VERSION:
        raise StorageError(f"unsupported image version {image.get('version')!r}")

    summary = PathSummary()
    try:
        for text_path in _required(image, "paths"):
            summary.intern(Path.parse(text_path))
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(f"corrupt path summary in image: {exc}") from exc

    def rebuild(key: str) -> Dict[int, BAT]:
        family = _required(image, key)
        if not isinstance(family, dict):
            raise StorageError(f"corrupt relation family {key!r}: not a mapping")
        relations: Dict[int, BAT] = {}
        for name, buns in family.items():
            try:
                pid = summary.intern(Path.parse(name))
                relations[pid] = BAT(
                    ((head, tail) for head, tail in buns), name=name
                )
            except StorageError:
                raise
            except Exception as exc:
                raise StorageError(
                    f"corrupt relation {name!r} in family {key!r}: {exc}"
                ) from exc
        return relations

    edges = rebuild("edges")
    strings = rebuild("strings")
    ranks = rebuild("ranks")

    first_oid = _required(image, "first_oid")
    node_count = _required(image, "node_count")
    root_oid = _required(image, "root_oid")
    if not all(isinstance(v, int) for v in (first_oid, node_count, root_oid)):
        raise StorageError(
            "corrupt image: first_oid/node_count/root_oid must be ints"
        )
    if node_count < 0:
        raise StorageError(f"corrupt image: negative node_count {node_count}")
    oid_pid = int32_column([0]) * node_count
    oid_parent = int32_column([-1]) * node_count
    oid_rank = int32_column([0]) * node_count
    try:
        for pid, relation in ranks.items():
            for oid, rank in relation:
                if not 0 <= oid - first_oid < node_count:
                    raise StorageError(
                        f"truncated image: OID {oid} outside the declared "
                        f"node range"
                    )
                if not isinstance(rank, int):
                    raise StorageError(
                        f"corrupt image: non-numeric rank {rank!r} at OID {oid}"
                    )
                oid_pid[oid - first_oid] = pid
                oid_rank[oid - first_oid] = rank
        for pid, relation in edges.items():
            for parent, child in relation:
                if not 0 <= child - first_oid < node_count:
                    raise StorageError(
                        f"truncated image: OID {child} outside the declared "
                        f"node range"
                    )
                if not isinstance(parent, int):
                    raise StorageError(
                        f"corrupt image: non-numeric parent {parent!r} at "
                        f"OID {child}"
                    )
                oid_parent[child - first_oid] = parent
    except StorageError:
        raise
    except TypeError as exc:
        raise StorageError(f"corrupt image: non-numeric OID ({exc})") from exc
    except OverflowError as exc:
        raise StorageError(
            f"corrupt image: value out of int32 range ({exc})"
        ) from exc

    store = MonetXML(
        summary=summary,
        root_oid=root_oid,
        first_oid=first_oid,
        oid_pid=oid_pid,
        oid_parent=oid_parent,
        oid_rank=oid_rank,
        edges=edges,
        strings=strings,
        ranks=ranks,
    )
    try:
        store.validate()
    except ReproError as exc:
        raise StorageError(f"inconsistent image: {exc}") from exc
    return store


def load(path: Union[str, FsPath]) -> MonetXML:
    """Read a JSON image from disk and rebuild the store."""
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot read image {path}: {exc}") from exc
    return loads(text)
