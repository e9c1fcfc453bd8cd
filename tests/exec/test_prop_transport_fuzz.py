"""Byte-level fuzzing of the RXFM frame reader.

Whatever bytes arrive on a shard link — noise, a frame cut short, a
frame with one byte flipped, a frame whose length field lies —
:func:`repro.exec.transport.recv_frame` must either return exactly the
payload that was sent or raise one of the transport's typed errors,
and must do so without waiting on bytes that will never come.
"""

import socket
import struct
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.transport import (
    FRAME_MAGIC,
    FRAME_VERSION,
    KIND_RESPONSE,
    ConnectionClosedError,
    FrameError,
    TransportError,
    read_raw_frame,
    recv_frame,
    send_frame,
)

#: frame := magic(4) | version u8 | kind u8 | request_id u64
#:        | payload_len u32 | crc32 u32 | payload
LENGTH_AT = 4 + 1 + 1 + 8
HEADER_SIZE = LENGTH_AT + 4 + 4

#: No input may take this long: the writer half-closes after the
#: bytes, so every read either completes or sees end-of-stream.
TIMEOUT = 5.0

TYPED = (FrameError, ConnectionClosedError, TransportError)

FUZZ = settings(max_examples=150, deadline=None)

payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _frame(payload, request_id):
    """The exact bytes :func:`send_frame` puts on the wire."""
    writer, reader = socket.socketpair()
    try:
        send_frame(writer, KIND_RESPONSE, request_id, payload)
        return read_raw_frame(reader, timeout=TIMEOUT)
    finally:
        writer.close()
        reader.close()


def _read(stream):
    """Feed ``stream`` then end-of-stream; ``("ok", frame)`` or
    ``("error", exc)`` from one :func:`recv_frame`."""
    writer, reader = socket.socketpair()
    try:
        writer.sendall(stream)
        writer.shutdown(socket.SHUT_WR)
        started = time.monotonic()
        try:
            outcome = ("ok", recv_frame(reader, timeout=TIMEOUT))
        except TYPED as exc:
            outcome = ("error", exc)
        # A read that only ended by timing out was a hang.
        assert time.monotonic() - started < TIMEOUT / 2
        return outcome
    finally:
        writer.close()
        reader.close()


def _returns_the_payload_or_fails_typed(stream, payload):
    status, value = _read(stream)
    if status == "ok":
        _kind, _request_id, received = value
        assert received == payload
    return status


frames = st.tuples(payloads, st.integers(0, 2**64 - 1)).map(
    lambda args: (_frame(*args), args[0])
)


@FUZZ
@given(
    st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda tail: FRAME_MAGIC + tail),
        st.binary(max_size=256).map(
            lambda tail: FRAME_MAGIC + bytes([FRAME_VERSION]) + tail
        ),
    )
)
def test_arbitrary_bytes_fail_typed(stream):
    status, _value = _read(stream)
    assert status == "error"


@FUZZ
@given(frames, st.data())
def test_truncated_frame_fails_typed(frame, data):
    raw, _payload = frame
    cut = data.draw(st.integers(0, len(raw) - 1))
    status, error = _read(raw[:cut])
    assert status == "error"
    assert isinstance(error, ConnectionClosedError if cut == 0 else FrameError)


@FUZZ
@given(frames, st.data())
def test_flipped_byte_returns_payload_or_fails_typed(frame, data):
    raw, payload = frame
    at = data.draw(st.integers(0, len(raw) - 1))
    flip = data.draw(st.integers(1, 255))
    mangled = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
    status = _returns_the_payload_or_fails_typed(mangled, payload)
    # Only kind and request id carry no check; any other flip is caught.
    if not 4 + 1 <= at < LENGTH_AT:
        assert status == "error"


@FUZZ
@given(frames, st.integers(0, 2**32 - 1))
def test_overwritten_length_returns_payload_or_fails_typed(frame, length):
    raw, payload = frame
    mangled = raw[:LENGTH_AT] + struct.pack("<I", length) + raw[LENGTH_AT + 4:]
    status = _returns_the_payload_or_fails_typed(mangled, payload)
    assert (status == "ok") == (length == len(raw) - HEADER_SIZE)
