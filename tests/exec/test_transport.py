"""Frame protocol: round-trips, corruption detection, deadlines."""

import socket
import threading
import time

import pytest

from repro.exec.deadline import (
    Deadline,
    DeadlineExceededError,
    current_deadline,
    deadline_scope,
)
from repro.exec.transport import (
    FRAME_MAGIC,
    KIND_REQUEST,
    KIND_RESPONSE,
    ConnectionClosedError,
    FrameError,
    TransportError,
    connect,
    read_raw_frame,
    recv_frame,
    send_frame,
)


@pytest.fixture()
def sock_pair():
    server, client = socket.socketpair()
    yield server, client
    server.close()
    client.close()


def test_frame_round_trip(sock_pair):
    server, client = sock_pair
    payload = {"shard": 3, "op": "hits", "params": {"terms": [("a", "word")]}}
    send_frame(client, KIND_REQUEST, 42, payload)
    kind, request_id, received = recv_frame(server)
    assert kind == KIND_REQUEST
    assert request_id == 42
    assert received == payload


def test_frame_preserves_python_types(sock_pair):
    # The reason the protocol pickles instead of JSON: shard payloads
    # carry int-keyed dicts, tuples and sets, and they must survive.
    server, client = sock_pair
    payload = {1: (2, 3), "s": {4, 5}, "t": ("x", 0)}
    send_frame(client, KIND_RESPONSE, 1, payload)
    _, _, received = recv_frame(server)
    assert received == payload
    assert isinstance(received[1], tuple)
    assert isinstance(received["s"], set)


def test_bad_magic_is_frame_error(sock_pair):
    server, client = sock_pair
    client.sendall(b"JUNK" + bytes(18))
    with pytest.raises(FrameError):
        recv_frame(server)


def test_corrupt_payload_fails_checksum(sock_pair):
    server, client = sock_pair
    send_frame(client, KIND_REQUEST, 7, {"op": "ping"})
    raw = bytearray(read_raw_frame(server))
    raw[-1] ^= 0xFF
    server2, client2 = socket.socketpair()
    try:
        client2.sendall(bytes(raw))
        with pytest.raises(FrameError, match="checksum"):
            recv_frame(server2)
    finally:
        server2.close()
        client2.close()


def test_torn_frame_is_frame_error(sock_pair):
    server, client = sock_pair
    send_frame(client, KIND_REQUEST, 9, {"op": "ping", "pad": "x" * 64})
    raw = read_raw_frame(server)
    server2, client2 = socket.socketpair()
    try:
        client2.sendall(raw[: len(raw) // 2])
        client2.close()
        with pytest.raises(FrameError, match="torn"):
            recv_frame(server2)
    finally:
        server2.close()


def test_clean_close_between_frames(sock_pair):
    server, client = sock_pair
    client.close()
    with pytest.raises(ConnectionClosedError):
        recv_frame(server)


def test_oversized_length_rejected_without_allocation(sock_pair):
    import struct

    server, client = sock_pair
    header = struct.Struct("<4sBBQII").pack(
        FRAME_MAGIC, 1, KIND_REQUEST, 1, 2**31, 0
    )
    client.sendall(header)
    with pytest.raises(FrameError, match="limit"):
        recv_frame(server)


def test_lying_length_within_limit_allocates_no_claimed_buffer(sock_pair):
    import struct
    import tracemalloc

    server, client = sock_pair
    claimed = 200 * 2**20
    header = struct.Struct("<4sBBQII").pack(
        FRAME_MAGIC, 1, KIND_REQUEST, 1, claimed, 0
    )
    client.sendall(header + b"x" * 100)
    client.shutdown(socket.SHUT_WR)
    tracemalloc.start()
    try:
        with pytest.raises(FrameError, match="torn frame"):
            recv_frame(server, timeout=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < claimed // 50


def test_recv_respects_deadline(sock_pair):
    server, _client = sock_pair  # nothing will ever arrive
    deadline = Deadline.after(0.05)
    started = time.monotonic()
    with pytest.raises(DeadlineExceededError):
        recv_frame(server, deadline=deadline)
    assert time.monotonic() - started < 2.0


def test_expired_deadline_raises_before_blocking(sock_pair):
    server, _client = sock_pair
    with pytest.raises(DeadlineExceededError):
        recv_frame(server, deadline=Deadline(expires_at=0.0))


def test_connect_refused_is_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    address = sock.getsockname()[:2]
    sock.close()  # port now (very likely) unbound
    with pytest.raises(TransportError):
        connect(address, timeout=0.5)


def test_deadline_scope_is_scoped():
    assert current_deadline() is None
    with deadline_scope(Deadline.after(10)) as deadline:
        assert current_deadline() is deadline
        with deadline_scope(None):
            # An inner scope can explicitly clear the budget.
            assert current_deadline() is None
        assert current_deadline() is deadline
    assert current_deadline() is None


def test_deadline_scope_does_not_leak_to_new_threads():
    seen = []
    with deadline_scope(Deadline.after(10)):
        thread = threading.Thread(
            target=lambda: seen.append(current_deadline())
        )
        thread.start()
        thread.join()
    assert seen == [None]
