"""Remote shard workers: the socket peers of the execution layer.

:class:`ShardWorkerServer` hosts one or more
:class:`~repro.exec.service.ShardService`\\ s behind the framed socket
protocol of :mod:`repro.exec.transport` — thread per connection, one
request frame in, one response frame out.  It is what ``repro
shard-worker`` runs as a standalone process on any host; tests also
run it in-thread.

:class:`RemoteShardClient` is the caller's end: one TCP connection,
one in-flight request at a time, request ids matched on receipt (a
stale or torn stream can only surface as a typed error, never as the
wrong answer).  Clients are deliberately *not* thread-safe — the
cluster executor pools them per replica.

Worker responses carry the worker's process-local index-build
counters (the same ``_worker`` envelope the process pool uses), so
``/v1/stats`` keeps its one process-tree view when shards move out of
process.

A remote *application* error (the shard op itself raised — a bad
query, an unknown op) comes back as :class:`RemoteOpError` carrying
the original error ``code``; it is **not** a failover trigger, unlike
transport faults.
"""

from __future__ import annotations

import logging
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path as FsPath
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.backends import SNAPSHOT_DEFAULT_BACKEND
from ..datamodel.errors import ReproError
from ..obs.logs import log_event
from .deadline import Deadline, DeadlineExceededError
from .service import ShardService
from .transport import (
    KIND_REQUEST,
    KIND_RESPONSE,
    ConnectionClosedError,
    FrameError,
    TransportError,
    connect,
    recv_frame,
    send_frame,
)

__all__ = [
    "READY_PREFIX",
    "RemoteOpError",
    "RemoteShardClient",
    "ShardWorkerServer",
    "WorkerProcess",
    "format_address",
    "parse_address",
    "services_from_bundles",
    "spawn_worker_process",
]

_logger = logging.getLogger("repro.exec.remote")

#: The one line a worker process prints once it is accepting
#: connections: ``READY_PREFIX host:port`` (parsed by spawners).
READY_PREFIX = "shard-worker listening on"


class RemoteOpError(ReproError):
    """A shard op failed *on the worker* (application-level error).

    Carries the remote error's machine-readable ``code``; retrying on
    another replica would fail identically, so the cluster executor
    re-raises it instead of failing over.
    """

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code


def parse_address(text: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a precise error."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise ReproError(
            f"invalid worker address {text!r}: expected HOST:PORT"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(
            f"invalid worker address {text!r}: port is not an integer"
        ) from None


def format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


# ---------------------------------------------------------------------------
# The worker side.
# ---------------------------------------------------------------------------


def _worker_counters() -> Dict[str, int]:
    from ..core.lca_index import lca_index_cache_info
    from ..fulltext.index import fulltext_index_cache_info

    return {
        "pid": os.getpid(),
        "lca_builds": lca_index_cache_info().builds,
        "fulltext_builds": fulltext_index_cache_info().builds,
    }


class ShardWorkerServer:
    """Serve one or more shard services over the framed socket protocol.

    ``services`` maps shard ids to ready :class:`ShardService`\\ s (a
    worker may host one shard — the replica deployment — or all of
    them).  ``port=0`` binds an ephemeral port; read :attr:`address`
    after construction.
    """

    def __init__(
        self,
        services: Mapping[int, ShardService],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if not services:
            raise ReproError("a shard worker needs at least one service")
        self.services: Dict[int, ShardService] = dict(services)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._shutdown = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ShardWorkerServer":
        """Accept connections from a daemon thread (tests, embedding)."""
        self._accept_thread = threading.Thread(
            target=self.serve_forever,
            name=f"shard-worker-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block accepting connections until :meth:`shutdown`."""
        self._listener.settimeout(0.2)
        try:
            while not self._shutdown.is_set():
                try:
                    connection, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                threading.Thread(
                    target=self._serve_connection,
                    args=(connection,),
                    daemon=True,
                ).start()
        finally:
            self._listener.close()

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- per-connection loop --------------------------------------------
    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    kind, request_id, message = recv_frame(connection)
                except ConnectionClosedError:
                    return
                except TransportError as exc:
                    # Torn/corrupt frame: stream state unknown.
                    log_event(
                        _logger,
                        logging.DEBUG,
                        "dropping connection on torn frame",
                        error=str(exc),
                    )
                    return
                if kind != KIND_REQUEST or not isinstance(message, dict):
                    log_event(
                        _logger,
                        logging.DEBUG,
                        "dropping connection on protocol violation",
                        kind=kind,
                    )
                    return
                response = self._answer(message)
                try:
                    send_frame(connection, KIND_RESPONSE, request_id, response)
                except TransportError:
                    return  # caller went away (deadline, kill, ...)
        finally:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _answer(self, message: Dict[str, object]) -> Dict[str, object]:
        deadline_ms = message.get("deadline_ms")
        if isinstance(deadline_ms, (int, float)) and deadline_ms <= 0:
            # The budget was spent in transit; refuse before computing.
            return {
                "ok": False,
                "error": "request arrived with its deadline already spent",
                "code": "deadline_exceeded",
            }
        try:
            shard_id = int(message["shard"])
            op = str(message["op"])
            params = message.get("params") or {}
            service = self.services.get(shard_id)
            if service is None:
                raise ReproError(
                    f"this worker does not host shard {shard_id} "
                    f"(hosts {sorted(self.services)})"
                )
            response = service.handle(op, dict(params))
            response["_worker"] = _worker_counters()
            return {"ok": True, "response": response}
        except ReproError as exc:
            return {"ok": False, "error": str(exc), "code": exc.code}
        except Exception as exc:  # pragma: no cover - defensive
            return {"ok": False, "error": f"internal error: {exc}", "code": "internal"}


def services_from_bundles(
    bundle_paths: Sequence[Union[str, FsPath]],
    *,
    shard_ids: Optional[Sequence[int]] = None,
    case_sensitive: Optional[bool] = None,
    backend: Optional[str] = None,
    use_mmap: bool = True,
) -> Dict[int, ShardService]:
    """Load ``.snap`` shard bundles into ready services.

    Shard ids default to each bundle's recorded ``shard_index`` (the
    handoff :func:`repro.snapshot.sharded.write_shard_bundles` stamps
    into every bundle), so a worker started with just a bundle path
    serves the right shard; the case mode likewise follows the bundle
    unless overridden, and the backend is the one
    :meth:`~repro.api.database.Database.open` picks for a bundle.
    """
    from ..snapshot.codec import read_snapshot

    services: Dict[int, ShardService] = {}
    for index, path in enumerate(bundle_paths):
        snapshot = read_snapshot(path, use_mmap=use_mmap)
        if shard_ids is not None:
            shard_id = int(shard_ids[index])
        else:
            recorded = snapshot.meta.get("shard_index")
            shard_id = int(recorded) if isinstance(recorded, int) else index
        if shard_id in services:
            raise ReproError(
                f"two bundles claim shard {shard_id}; pass explicit "
                "--shard-id values"
            )
        effective_case = (
            snapshot.fulltext_index.case_sensitive
            if case_sensitive is None
            else bool(case_sensitive)
        )
        services[shard_id] = ShardService(
            snapshot.store,
            shard_id=shard_id,
            case_sensitive=effective_case,
            backend=backend or SNAPSHOT_DEFAULT_BACKEND,
        )
    return services


# ---------------------------------------------------------------------------
# The caller side.
# ---------------------------------------------------------------------------


class RemoteShardClient:
    """One connection to one worker; one in-flight request at a time.

    Any fault — timeout, torn frame, closed connection, id mismatch —
    poisons the connection (the stream may hold a stale response), so
    the client closes it and the error propagates as a typed,
    retryable :class:`TransportError`.  Callers pool clients rather
    than share one across threads.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        connect_timeout: float = 5.0,
    ):
        self.address = address
        self._connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._request_id = 0

    def _socket(self) -> socket.socket:
        if self._sock is None:
            self._sock = connect(self.address, timeout=self._connect_timeout)
        return self._sock

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def call(
        self,
        shard_id: int,
        op: str,
        params: Dict[str, object],
        *,
        deadline: Optional[Deadline] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Run one shard op remotely; returns the response dict.

        ``timeout`` bounds this single attempt (the failover budget);
        ``deadline`` is the whole request's budget — whichever is
        tighter governs every blocking socket op.
        """
        self._request_id += 1
        request_id = self._request_id
        message = {
            "shard": shard_id,
            "op": op,
            "params": params,
            "deadline_ms": (
                None if deadline is None
                else round(deadline.remaining() * 1000, 3)
            ),
        }
        try:
            sock = self._socket()
            send_frame(
                sock, KIND_REQUEST, request_id, message,
                deadline=deadline, timeout=timeout,
            )
            kind, echoed_id, payload = recv_frame(
                sock, deadline=deadline, timeout=timeout
            )
        except (TransportError, DeadlineExceededError):
            self.close()
            raise
        if kind != KIND_RESPONSE or echoed_id != request_id:
            self.close()
            raise FrameError(
                f"response stream desynchronized (wanted request "
                f"{request_id}, got kind={kind} id={echoed_id})"
            )
        if not isinstance(payload, dict):
            self.close()
            raise FrameError("response payload is not an object")
        if payload.get("ok"):
            response = payload.get("response")
            if not isinstance(response, dict):
                self.close()
                raise FrameError("ok response carries no response object")
            return response
        message_text = str(payload.get("error", "unknown worker error"))
        code = str(payload.get("code", "error"))
        if code == "deadline_exceeded":
            raise DeadlineExceededError(message_text)
        raise RemoteOpError(message_text, code=code)

    def ping(
        self,
        shard_id: int,
        *,
        timeout: float = 2.0,
    ) -> Dict[str, object]:
        """A cheap liveness probe against one hosted shard."""
        return self.call(shard_id, "ping", {}, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteShardClient {format_address(self.address)}>"


# ---------------------------------------------------------------------------
# Spawning workers as real processes (the localhost cluster).
# ---------------------------------------------------------------------------


class WorkerProcess:
    """A managed ``repro shard-worker`` subprocess."""

    def __init__(self, process: subprocess.Popen, address: Tuple[str, int]):
        self.process = process
        self.address = address

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        if self.alive:
            self.process.kill()
        self.process.wait(timeout=10)

    def terminate(self) -> None:
        if self.alive:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.kill()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return (
            f"<WorkerProcess pid={self.pid} "
            f"{format_address(self.address)} {state}>"
        )


def spawn_worker_process(
    bundle_paths: Sequence[Union[str, FsPath]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    shard_ids: Optional[Sequence[int]] = None,
    backend: Optional[str] = None,
    case_sensitive: Optional[bool] = None,
    ready_timeout: float = 30.0,
) -> WorkerProcess:
    """Start ``repro shard-worker`` on the given bundles, wait ready.

    The worker prints ``shard-worker listening on HOST:PORT`` once its
    listener is bound; this parses that line (so ``port=0`` ephemeral
    binds work) and returns a handle that can kill or respawn it.
    """
    command = [sys.executable, "-m", "repro", "shard-worker"]
    for path in bundle_paths:
        command += ["--bundle", str(path)]
    if shard_ids is not None:
        for shard_id in shard_ids:
            command += ["--shard-id", str(shard_id)]
    command += ["--host", host, "--port", str(port)]
    if backend:
        command += ["--backend", backend]
    if case_sensitive is not None:
        command += [
            "--case-sensitive" if case_sensitive else "--no-case-sensitive"
        ]
    env = dict(os.environ)
    src_root = str(FsPath(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    if src_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    # Bounded wait for the ready line: select() the pipe so a worker
    # that hangs while loading its bundles cannot hang the spawner
    # (the cluster's health prober calls this to respawn replicas).
    import selectors

    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + ready_timeout
    line = ""
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=0.2):
                if process.poll() is not None:
                    break
                continue
            line = process.stdout.readline()
            if not line:
                break
            if line.startswith(READY_PREFIX):
                address = parse_address(line[len(READY_PREFIX):].strip())
                return WorkerProcess(process, address)
    finally:
        selector.close()
    process.kill()
    raise TransportError(
        "shard worker failed to start "
        f"(last output line: {line.strip()!r})"
    )
