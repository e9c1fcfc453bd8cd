"""Source resolution: one name in, one ready store out.

This is the front door's dispatcher, promoted from the CLI (where it
lived as ``cli._load_store``) so every caller — CLI, HTTP service,
library users — shares one set of rules for turning *whatever the
user names* into a loaded :class:`~repro.monet.engine.MonetXML` store:

* a ``.snap`` path → binary snapshot bundle, indexes pre-seeded;
* a ``.json`` path → a :class:`StorageError` naming the rebuild: the
  JSON store image of earlier versions is not read;
* any other existing file → XML, parsed and Monet-transformed —
  *unless* the catalog holds a fresh snapshot built from that very
  file (same resolved path, identical (size, mtime) fingerprint, same
  case mode), which is then preferred over re-parsing;
* a non-file name that matches a catalog collection → that
  collection's bundle (the facade's spelling of ``--snapshot NAME``);
* an explicit ``snapshot=`` argument → a bundle file or catalog
  collection, never a parse.

Every resolution reports its ``origin`` — ``parse``,
``snapshot <file>`` or ``snapshot <catalog>:<name>`` — so cold starts
stay observable end-to-end (the CLI's ``--stats``, the server's
``/v1/stats``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Union

from ..datamodel.errors import ReproError, StorageError
from ..monet.engine import MonetXML
from ..monet.transform import shred_xml
from ..snapshot import Catalog, read_snapshot
from ..snapshot.catalog import refuse_json_image
from ..snapshot.codec import Snapshot

__all__ = [
    "DEFAULT_CATALOG",
    "ResolvedSource",
    "default_catalog_dir",
    "resolve_source",
]

#: Fallback catalog directory (also via the REPRO_CATALOG env var).
DEFAULT_CATALOG = ".repro-catalog"

SourceLike = Union[str, FsPath]


def default_catalog_dir(explicit: Optional[SourceLike] = None) -> FsPath:
    """The catalog directory: explicit > $REPRO_CATALOG > default."""
    if explicit:
        return FsPath(explicit)
    return FsPath(os.environ.get("REPRO_CATALOG", DEFAULT_CATALOG))


@dataclass(frozen=True)
class ResolvedSource:
    """One resolved source: the store, how it loaded, and the bundle."""

    store: MonetXML
    origin: str
    snapshot: Optional[Snapshot] = None

    @property
    def from_snapshot(self) -> bool:
        return self.snapshot is not None


def _load_bundle(path: FsPath, use_mmap: bool) -> ResolvedSource:
    # Tolerate a torn delta tail: an append interrupted mid-crash was
    # never acknowledged, and dropping it is the only way the bundle
    # opens at all.  A truncated *base* section still fails loudly —
    # the codec requires every base section to be present.
    snapshot = read_snapshot(path, use_mmap=use_mmap, tolerate_torn_tail=True)
    return ResolvedSource(snapshot.store, f"snapshot {path}", snapshot)


def _open_collection(catalog: Catalog, name: str, use_mmap: bool) -> ResolvedSource:
    snapshot = catalog.open(name, use_mmap=use_mmap, tolerate_torn_tail=True)
    return ResolvedSource(
        snapshot.store, f"snapshot {catalog.root}:{name}", snapshot
    )


def _resolve_explicit_snapshot(
    explicit: SourceLike, catalog_root: FsPath, use_mmap: bool
) -> ResolvedSource:
    """The ``snapshot=`` argument: a bundle file or a collection name.

    A catalog collection of that name wins over a same-named stray
    file or directory in the working directory.  A corrupt manifest
    must not block loading a file the user named; its error surfaces
    only when the file fallback cannot apply.
    """
    candidate = FsPath(explicit)
    catalog: Optional[Catalog] = None
    catalog_error: Optional[StorageError] = None
    has_collection = False
    if (catalog_root / "catalog.json").exists():
        try:
            catalog = Catalog(catalog_root, create=False)
            has_collection = str(explicit) in catalog
        except StorageError as exc:
            catalog, catalog_error = None, exc
    if candidate.suffix == ".snap" or (
        candidate.is_file() and not has_collection
    ):
        return _load_bundle(candidate, use_mmap)
    if catalog_error is not None:
        raise catalog_error
    if catalog is None:
        # Raises the precise "no such catalog directory" error.
        catalog = Catalog(catalog_root, create=False)
    return _open_collection(catalog, str(explicit), use_mmap)


def _probe_catalog(
    source: FsPath,
    catalog_root: FsPath,
    case_sensitive: Optional[bool],
    use_mmap: bool,
) -> Optional[ResolvedSource]:
    """Best-effort fresh-hit probe for a file the caller named.

    The user asked for the file itself, so a corrupt or foreign
    catalog must not break the parse path — and a bundle whose case
    mode differs from what this caller will search with must not
    silently change its answers.
    """
    if not (catalog_root / "catalog.json").exists():
        return None
    requested_case = bool(case_sensitive)
    try:
        catalog = Catalog(catalog_root, create=False)
        name = catalog.find_source(source)
        if name is not None and (
            bool(catalog.info(name).get("case_sensitive")) == requested_case
        ):
            return _open_collection(catalog, name, use_mmap)
    except StorageError:
        pass
    return None


def resolve_source(
    source: Optional[SourceLike] = None,
    *,
    snapshot: Optional[SourceLike] = None,
    catalog: Optional[SourceLike] = None,
    case_sensitive: Optional[bool] = None,
    use_mmap: bool = False,
) -> ResolvedSource:
    """Resolve a user-named source to a loaded store (see module doc).

    ``case_sensitive`` is the case mode the caller intends to search
    with; the catalog fresh-hit probe only substitutes a bundle whose
    recorded case mode matches, so resolution never changes answers.
    """
    catalog_root = default_catalog_dir(catalog)
    if snapshot is not None:
        return _resolve_explicit_snapshot(snapshot, catalog_root, use_mmap)
    if source is None:
        raise ReproError("no source given: pass a file, collection or snapshot=")
    path = FsPath(source)
    if not path.exists():
        # The facade's bare-name spelling of a catalog collection.
        if (catalog_root / "catalog.json").exists():
            try:
                collection_catalog = Catalog(catalog_root, create=False)
                found = str(source) in collection_catalog
            except StorageError:
                found = False  # a corrupt catalog cannot name it
            if found:
                return _open_collection(
                    collection_catalog, str(source), use_mmap
                )
        raise ReproError(f"no such file: {source}")
    if path.suffix == ".snap":
        return _load_bundle(path, use_mmap)
    refuse_json_image(path)
    hit = _probe_catalog(path, catalog_root, case_sensitive, use_mmap)
    if hit is not None:
        return hit
    text = path.read_text(encoding="utf-8")
    return ResolvedSource(shred_xml(text, first_oid=1), "parse")
