"""The binary columnar container under the snapshot store.

A snapshot file is a fixed header followed by named **sections**, each
an opaque byte payload with its own CRC-32 checksum::

    header   := magic "RXSN" | version u16 | byteorder u8 | pad u8
    section  := name_len u16 | crc32 u32 | payload_len u64
              | name (utf-8) | padding to 8-byte file offset | payload

Sections carry raw integer column buffers (``array.tobytes()``, 4 or 8
bytes per item: the container does not type its payloads, so the
bundle's meta section records the width — see
:mod:`repro.snapshot.codec`), packed string tables (offset column +
UTF-8 blob) or small JSON metadata.
Reads are O(bytes): integer columns come back as zero-copy
``memoryview`` casts over the file buffer (optionally ``mmap``-backed),
so opening a snapshot costs one checksum pass and no per-value Python
work.

Every corruption mode — bad magic, unsupported version, a checksum
mismatch, a section running past end-of-file — raises
:class:`~repro.datamodel.errors.StorageError` with a precise reason;
``KeyError``/``struct.error`` never escape this module.

Live bundles grow in place: :func:`append_section` adds one framed
section to an existing file (the delta tail of
:mod:`repro.snapshot.deltas`).  A crash mid-append leaves a *torn
tail* — trailing bytes that fail framing or checksum at the very end
of the file.  ``tolerate_torn_tail=True`` makes the reader drop
exactly that (an unacknowledged append), while corruption anywhere
before the tail stays fatal.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from array import array
from itertools import accumulate
from pathlib import Path as FsPath
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..datamodel.errors import StorageError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SnapshotWriter",
    "SnapshotReader",
    "append_section",
    "pack_strings",
]

#: First four bytes of every snapshot file.
MAGIC = b"RXSN"
#: Bumped on any incompatible layout change.
FORMAT_VERSION = 1

_FILE_HEADER = struct.Struct("<4sHBx")
_SECTION_HEADER = struct.Struct("<HIQ")
_LITTLE, _BIG = 0, 1
_NATIVE_ORDER = _LITTLE if sys.byteorder == "little" else _BIG
_ALIGNMENT = 8
#: ``array`` typecode per integer item width in bytes.
_TYPECODES = {4: "i", 8: "q"}


def _pad_to(offset: int) -> int:
    """Bytes of zero padding needed to align ``offset`` to 8."""
    return (-offset) % _ALIGNMENT


def pack_strings(strings: Iterable[str]) -> bytes:
    """Pack strings as one self-contained column: count, offsets, blob.

    Layout: ``count u64 | (count+1) int64 end offsets | UTF-8 blob``.
    The offset column makes unpacking O(1) per string with no scanning.
    """
    encoded = [string.encode("utf-8") for string in strings]
    offsets = array("q", [0])
    offsets.extend(accumulate(map(len, encoded)))
    count = struct.pack("<Q", len(encoded))
    return count + offsets.tobytes() + b"".join(encoded)


class SnapshotWriter:
    """Accumulates named sections and writes the framed container.

    Payloads are held by reference (as byte-cast memoryviews), not
    copied, and :meth:`write` streams them section by section — the
    writer never materializes a second whole-bundle buffer.  Callers
    must not mutate a buffer between ``add_*`` and ``write``.
    """

    def __init__(self, *, _byteorder: int = _NATIVE_ORDER):
        # _byteorder is a test seam for exercising the cross-endian
        # reader fallback; production writers always use native order.
        self._byteorder = _byteorder
        self._sections: List[Tuple[str, memoryview]] = []
        self._names: set = set()

    def add_bytes(self, name: str, payload: Union[bytes, bytearray, memoryview]) -> None:
        if name in self._names:
            raise ValueError(f"duplicate snapshot section {name!r}")
        self._names.add(name)
        self._sections.append((name, memoryview(payload).cast("B")))

    def add_array(self, name: str, values: Iterable[int], width: int = 8) -> None:
        """Add one integer column of ``width``-byte items (4 or 8)."""
        typecode = _TYPECODES[width]
        column = values
        if not (isinstance(column, array) and column.typecode == typecode):
            column = array(typecode, column)
        if self._byteorder != _NATIVE_ORDER:
            column = array(typecode, column)
            column.byteswap()
        # The memoryview keeps the column alive until the write.
        self.add_bytes(name, memoryview(column))

    def add_json(self, name: str, obj: object) -> None:
        self.add_bytes(name, json.dumps(obj, sort_keys=True).encode("utf-8"))

    def add_strings(self, name: str, strings: Iterable[str]) -> None:
        """Add a packed string column (see :func:`pack_strings`)."""
        payload = pack_strings(strings)
        if self._byteorder != _NATIVE_ORDER:
            count = struct.unpack_from("<Q", payload)[0]
            offsets = array("q")
            offsets.frombytes(payload[8 : 8 + 8 * (count + 1)])
            offsets.byteswap()
            payload = payload[:8] + offsets.tobytes() + payload[8 + 8 * (count + 1) :]
        self.add_bytes(name, payload)

    def _emit(self, out) -> int:
        """Feed the framed container to ``out`` chunk by chunk."""
        total = 0

        def push(chunk) -> None:
            nonlocal total
            out(chunk)
            total += len(chunk)

        push(_FILE_HEADER.pack(MAGIC, FORMAT_VERSION, self._byteorder))
        for name, payload in self._sections:
            encoded = name.encode("utf-8")
            push(
                _SECTION_HEADER.pack(
                    len(encoded), zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
                )
            )
            push(encoded)
            padding = _pad_to(total)
            if padding:
                push(b"\0" * padding)
            push(payload)
        return total

    def tobytes(self) -> bytes:
        buffer = bytearray()
        self._emit(buffer.__iadd__)
        return bytes(buffer)

    def write(self, path: Union[str, FsPath]) -> int:
        """Stream the container to ``path``; returns the byte count."""
        with open(FsPath(path), "wb") as handle:
            return self._emit(handle.write)


class SnapshotReader:
    """Validated random access to the sections of one snapshot buffer.

    Construction parses the framing and checksums **every** section up
    front, so a reader that constructs successfully is internally
    consistent; accessors can only fail on a missing section or a
    section of the wrong shape.
    """

    def __init__(
        self,
        buffer: Union[bytes, bytearray, memoryview],
        source: str = "<bytes>",
        *,
        tolerate_torn_tail: bool = False,
    ):
        self._view = memoryview(buffer)
        self._source = source
        self._sections: Dict[str, Tuple[int, int]] = {}
        #: True when a torn tail was dropped (tolerant mode only).
        self.torn_tail = False
        #: Byte offset up to which the file parsed cleanly — the whole
        #: file normally, the torn section's start after a drop.  The
        #: next :func:`append_section` truncates to this offset.
        self.valid_size = 0
        self._parse(tolerate_torn_tail)

    # -- construction ---------------------------------------------------
    @classmethod
    def open(
        cls,
        path: Union[str, FsPath],
        *,
        use_mmap: bool = False,
        tolerate_torn_tail: bool = False,
    ) -> "SnapshotReader":
        """Open a snapshot file, optionally mapping it into memory.

        With ``use_mmap=True`` column accessors return views straight
        over the page cache; the mapping lives as long as any view.
        """
        path = FsPath(path)
        try:
            if use_mmap:
                with open(path, "rb") as handle:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                return cls(
                    memoryview(mapped),
                    source=str(path),
                    tolerate_torn_tail=tolerate_torn_tail,
                )
            return cls(
                path.read_bytes(),
                source=str(path),
                tolerate_torn_tail=tolerate_torn_tail,
            )
        except OSError as exc:
            raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
        except ValueError as exc:
            # mmap refuses zero-length files with a bare ValueError.
            raise StorageError(f"cannot map snapshot {path}: {exc}") from exc

    def _parse(self, tolerant: bool = False) -> None:
        view = self._view
        if len(view) < _FILE_HEADER.size:
            raise StorageError(
                f"truncated snapshot {self._source}: "
                f"{len(view)} bytes is shorter than the {_FILE_HEADER.size}-byte header"
            )
        magic, version, byteorder = _FILE_HEADER.unpack_from(view, 0)
        if magic != MAGIC:
            raise StorageError(
                f"bad magic in {self._source}: expected {MAGIC!r}, found {bytes(magic)!r}"
            )
        if version != FORMAT_VERSION:
            raise StorageError(
                f"unsupported snapshot version {version} in {self._source} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        if byteorder not in (_LITTLE, _BIG):
            raise StorageError(
                f"corrupt byte-order marker {byteorder!r} in {self._source}"
            )
        self._byteorder = byteorder
        position = _FILE_HEADER.size
        total = len(view)
        while position < total:
            section_start = position
            self.valid_size = section_start
            # The first three failure modes below can only occur in the
            # final bytes of the file (each runs past end-of-file), so
            # tolerant mode may drop them as a torn append; a checksum
            # failure qualifies only when the bad section itself ends at
            # end-of-file.  Everything else is real corruption.
            if position + _SECTION_HEADER.size > total:
                if tolerant:
                    self.torn_tail = True
                    return
                raise StorageError(
                    f"truncated section header at offset {position} in {self._source}"
                )
            name_len, crc, payload_len = _SECTION_HEADER.unpack_from(view, position)
            position += _SECTION_HEADER.size
            if position + name_len > total:
                if tolerant:
                    self.torn_tail = True
                    return
                raise StorageError(
                    f"truncated section name at offset {position} in {self._source}"
                )
            try:
                name = bytes(view[position : position + name_len]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StorageError(
                    f"corrupt section name at offset {position} in {self._source}"
                ) from exc
            position += name_len
            position += _pad_to(position)
            if position + payload_len > total:
                if tolerant:
                    self.torn_tail = True
                    return
                raise StorageError(
                    f"truncated section {name!r} in {self._source}: payload of "
                    f"{payload_len} bytes runs past end-of-file"
                )
            payload = view[position : position + payload_len]
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                if tolerant and position + payload_len == total:
                    self.torn_tail = True
                    return
                raise StorageError(
                    f"checksum failure in section {name!r} of {self._source}"
                )
            if name in self._sections:
                raise StorageError(
                    f"duplicate section {name!r} in {self._source}"
                )
            self._sections[name] = (position, payload_len)
            position += payload_len
        self.valid_size = position

    # -- accessors ------------------------------------------------------
    def section_names(self) -> List[str]:
        return list(self._sections)

    def section_sizes(self) -> Dict[str, int]:
        """Payload bytes per section, in file order (framing excluded)."""
        return {name: length for name, (_, length) in self._sections.items()}

    def __contains__(self, name: object) -> bool:
        return name in self._sections

    def _payload(self, name: str) -> memoryview:
        entry = self._sections.get(name)
        if entry is None:
            raise StorageError(f"snapshot {self._source} has no section {name!r}")
        start, length = entry
        return self._view[start : start + length]

    def raw(self, name: str) -> memoryview:
        return self._payload(name)

    def array(self, name: str, width: int = 8) -> Sequence[int]:
        """One ``width``-byte integer column, zero-copy on matching byte order.

        Returns a ``memoryview`` cast (native order) or a byteswapped
        ``array`` copy (cross-endian file); both index, slice, iterate
        and ``tolist()`` identically.
        """
        payload = self._payload(name)
        if len(payload) % width:
            raise StorageError(
                f"section {name!r} of {self._source} is not an "
                f"int{8 * width} column ({len(payload)} bytes)"
            )
        typecode = _TYPECODES[width]
        if self._byteorder == _NATIVE_ORDER:
            return payload.cast(typecode)
        column = array(typecode)
        column.frombytes(payload)
        column.byteswap()
        return column

    def tolist(self, name: str) -> List[int]:
        return self.array(name).tolist()

    def json(self, name: str) -> object:
        try:
            return json.loads(bytes(self._payload(name)).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"corrupt JSON section {name!r} in {self._source}: {exc}"
            ) from exc

    def strings(self, name: str) -> List[str]:
        """Unpack a string column written by :meth:`SnapshotWriter.add_strings`."""
        payload = self._payload(name)
        if len(payload) < 8:
            raise StorageError(
                f"truncated string section {name!r} in {self._source}"
            )
        (count,) = struct.unpack_from("<Q", payload, 0)
        offsets_end = 8 + 8 * (count + 1)
        if offsets_end > len(payload):
            raise StorageError(
                f"truncated string offsets in section {name!r} of {self._source}"
            )
        offsets = array("q")
        offsets.frombytes(payload[8:offsets_end])
        if self._byteorder != _NATIVE_ORDER:
            offsets.byteswap()
        blob = payload[offsets_end:]
        if offsets[0] != 0 or offsets[-1] != len(blob):
            raise StorageError(
                f"inconsistent string offsets in section {name!r} of {self._source}"
            )
        try:
            text = bytes(blob).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(
                f"corrupt UTF-8 blob in section {name!r} of {self._source}"
            ) from exc
        # Offsets are byte offsets; decode once and slice by bytes via
        # re-encoding only when multi-byte characters are present.
        if len(text) == len(blob):
            return [text[offsets[i] : offsets[i + 1]] for i in range(count)]
        raw = bytes(blob)
        try:
            return [
                raw[offsets[i] : offsets[i + 1]].decode("utf-8")
                for i in range(count)
            ]
        except UnicodeDecodeError as exc:
            raise StorageError(
                f"corrupt string boundaries in section {name!r} of {self._source}"
            ) from exc


def append_section(
    path: Union[str, FsPath],
    name: str,
    payload: Union[bytes, bytearray, memoryview],
    *,
    truncate_to: Union[int, None] = None,
) -> int:
    """Append one framed section to an existing snapshot file.

    The section is framed exactly as :class:`SnapshotWriter` frames it
    (header, name, pad to an 8-byte file offset, CRC-32 over the
    payload), so a strict reader accepts the grown file as-is.  The
    payload must be byte-order independent (JSON or raw bytes) — int64
    columns appended to a cross-endian file would read back swapped.

    ``truncate_to`` first discards a torn tail left by an interrupted
    append (pass :attr:`SnapshotReader.valid_size`).  The append itself
    is one write plus fsync; a crash mid-append leaves a torn tail that
    ``tolerate_torn_tail`` readers drop and the next append truncates.
    Returns the number of bytes appended.
    """
    path = FsPath(path)
    encoded = name.encode("utf-8")
    data = bytes(payload)
    try:
        with open(path, "r+b") as handle:
            header = handle.read(_FILE_HEADER.size)
            if len(header) < _FILE_HEADER.size:
                raise StorageError(
                    f"truncated snapshot {path}: shorter than the file header"
                )
            magic, version, _ = _FILE_HEADER.unpack(header)
            if magic != MAGIC or version != FORMAT_VERSION:
                raise StorageError(
                    f"{path} is not a version-{FORMAT_VERSION} snapshot; "
                    "refusing to append"
                )
            if truncate_to is not None:
                if truncate_to < _FILE_HEADER.size:
                    raise StorageError(
                        f"refusing to truncate snapshot {path} into its header "
                        f"(offset {truncate_to})"
                    )
                handle.truncate(truncate_to)
            handle.seek(0, os.SEEK_END)
            offset = handle.tell()
            chunk = bytearray(
                _SECTION_HEADER.pack(
                    len(encoded), zlib.crc32(data) & 0xFFFFFFFF, len(data)
                )
            )
            chunk += encoded
            chunk += b"\0" * _pad_to(offset + len(chunk))
            chunk += data
            handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
            return len(chunk)
    except OSError as exc:
        raise StorageError(f"cannot append to snapshot {path}: {exc}") from exc
