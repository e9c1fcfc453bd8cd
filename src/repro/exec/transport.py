"""The length-prefixed socket frame protocol between shard peers.

One frame carries one message — a request to run a shard op, or its
response.  The framing reuses the ``.snap`` container's discipline
(fixed struct header, explicit payload length, CRC-32 over the
payload) so a torn or corrupted frame is *detected*, never misparsed::

    frame := magic "RXFM" | version u8 | kind u8 | request_id u64
           | payload_len u32 | crc32 u32 | payload

Payloads are pickled plain data (the :class:`~repro.exec.service`
request/response dicts).  Pickle keeps the shard protocol lossless —
int-keyed dicts, tuples and sets survive — at the price of trust:
**the transport is for cluster-internal links only** (workers bind to
localhost by default; anyone who can reach a worker port can run code
in it, exactly like a database's wire port).

Every failure mode is a typed error:

* :class:`FrameError` — bad magic, version mismatch, CRC failure, a
  frame running past end-of-stream (a *torn frame*);
* :class:`ConnectionClosedError` — the peer went away cleanly between
  frames;
* :class:`TransportError` — the base: any socket-level fault.

All three carry ``code="shard_unavailable"`` and are retryable — the
cluster executor treats each as "this replica failed, try the next".
Blocking reads honour the caller's deadline by translating the
remaining budget into socket timeouts; an expired budget raises
:class:`~repro.exec.deadline.DeadlineExceededError` instead of a
transport fault (there is nothing wrong with the peer).
"""

from __future__ import annotations

import math
import pickle
import socket
import struct
import time
import zlib
from typing import Optional, Tuple

from ..datamodel.errors import ReproError
from .deadline import Deadline, DeadlineExceededError

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_FRAME_BYTES",
    "ConnectionClosedError",
    "FrameError",
    "TransportError",
    "connect",
    "read_raw_frame",
    "recv_frame",
    "send_frame",
    "sleep_within_deadline",
]

#: First four bytes of every frame.
FRAME_MAGIC = b"RXFM"
#: Bumped on any incompatible frame-layout change.
FRAME_VERSION = 1

KIND_REQUEST = 1
KIND_RESPONSE = 2

#: A frame claiming a larger payload is treated as corruption, not an
#: allocation request — a torn length field must not OOM the reader.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_FRAME_HEADER = struct.Struct("<4sBBQII")

#: The most one ``recv`` asks for (``socket.recv(n)`` allocates ``n``).
_RECV_CHUNK = 1 << 20


class TransportError(ReproError):
    """A socket-level fault while talking to a shard peer."""

    code = "shard_unavailable"
    retryable = True


class ConnectionClosedError(TransportError):
    """The peer closed the connection."""


class FrameError(TransportError):
    """Framing or checksum violation: a torn or corrupted frame."""


def _effective_timeout(deadline: Optional[Deadline], timeout: Optional[float]) -> float:
    """The socket timeout for the next blocking op (may be ``inf``)."""
    budget = math.inf if deadline is None else deadline.remaining()
    if timeout is not None:
        budget = min(budget, timeout)
    return budget


def _settimeout(sock: socket.socket, budget: float) -> None:
    sock.settimeout(None if math.isinf(budget) else max(budget, 1e-6))


def _check_deadline(deadline: Optional[Deadline], what: str) -> None:
    if deadline is not None and deadline.expired:
        raise DeadlineExceededError(f"{what} exceeded its deadline")


def send_frame(
    sock: socket.socket,
    kind: int,
    request_id: int,
    payload_obj: object,
    *,
    deadline: Optional[Deadline] = None,
    timeout: Optional[float] = None,
) -> None:
    """Pickle ``payload_obj`` and send it as one framed message."""
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    header = _FRAME_HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        kind,
        request_id,
        len(payload),
        zlib.crc32(payload),
    )
    _check_deadline(deadline, "send")
    _settimeout(sock, _effective_timeout(deadline, timeout))
    try:
        sock.sendall(header + payload)
    except socket.timeout as exc:
        _check_deadline(deadline, "send")
        raise TransportError(f"send timed out: {exc}") from exc
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def _recv_exact(
    sock: socket.socket,
    length: int,
    deadline: Optional[Deadline],
    timeout: Optional[float],
    *,
    what: str,
    mid_frame: bool,
) -> bytes:
    chunks = []
    got = 0
    while got < length:
        _check_deadline(deadline, what)
        _settimeout(sock, _effective_timeout(deadline, timeout))
        try:
            # Bounded reads: a lying length field costs end-of-stream
            # or a timeout, never a buffer of the claimed size.
            chunk = sock.recv(min(length - got, _RECV_CHUNK))
        except socket.timeout as exc:
            _check_deadline(deadline, what)
            raise TransportError(f"{what} timed out: {exc}") from exc
        except OSError as exc:
            raise TransportError(f"{what} failed: {exc}") from exc
        if not chunk:
            if mid_frame or got:
                raise FrameError(
                    f"torn frame: peer closed mid-{what} "
                    f"({got}/{length} bytes)"
                )
            raise ConnectionClosedError("peer closed the connection")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _parse_header(header: bytes) -> Tuple[int, int, int, int]:
    magic, version, kind, request_id, length, crc = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} "
            f"(this peer speaks {FRAME_VERSION})"
        )
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame claims {length} payload bytes "
            f"(limit {MAX_FRAME_BYTES}); treating as corruption"
        )
    return kind, request_id, length, crc


def recv_frame(
    sock: socket.socket,
    *,
    deadline: Optional[Deadline] = None,
    timeout: Optional[float] = None,
) -> Tuple[int, int, object]:
    """Receive one frame: ``(kind, request_id, payload object)``.

    Validates magic, version, length and CRC before unpickling; any
    violation is a :class:`FrameError` and the connection must be
    discarded (stream state is unknown after a bad frame).
    """
    header = _recv_exact(
        sock, _FRAME_HEADER.size, deadline, timeout,
        what="frame header", mid_frame=False,
    )
    kind, request_id, length, crc = _parse_header(header)
    payload = _recv_exact(
        sock, length, deadline, timeout,
        what="frame payload", mid_frame=True,
    )
    if zlib.crc32(payload) != crc:
        raise FrameError(
            f"frame {request_id} failed its checksum "
            f"({length} payload bytes)"
        )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"frame {request_id} payload undecodable: {exc}") from exc
    return kind, request_id, obj


def read_raw_frame(
    sock: socket.socket,
    *,
    timeout: Optional[float] = None,
) -> bytes:
    """One whole frame as raw bytes (header + payload), unvalidated
    beyond framing.

    This is the chaos proxy's primitive: it forwards, delays, tears
    or drops *frames* without understanding their payloads.
    """
    header = _recv_exact(
        sock, _FRAME_HEADER.size, None, timeout,
        what="frame header", mid_frame=False,
    )
    _kind, _request_id, length, _crc = _parse_header(header)
    payload = _recv_exact(
        sock, length, None, timeout, what="frame payload", mid_frame=True
    )
    return header + payload


def connect(
    address: Tuple[str, int],
    *,
    timeout: float = 5.0,
) -> socket.socket:
    """A connected TCP socket with NODELAY set (small framed messages)."""
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise TransportError(
            f"cannot connect to shard worker at {address[0]}:{address[1]}: {exc}"
        ) from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def sleep_within_deadline(
    seconds: float, deadline: Optional[Deadline]
) -> None:
    """Sleep, but never past the current deadline."""
    if deadline is not None:
        seconds = min(seconds, deadline.remaining())
    if seconds > 0:
        time.sleep(seconds)
