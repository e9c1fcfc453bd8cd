"""Process, socket and clock plumbing of the serving benchmark.

Everything here is independent of the four workloads: a `repro serve`
child process with its process-tree CPU/RSS accounting, a minimal
HTTP/1.1 client over one persistent socket, the CPU speed probe that
makes timings comparable across this box's speed modes, and the pass
runner that replays one request list and returns raw samples.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

#: Thread-CPU milliseconds the three segments of one probe take on the
#: recorded machine (Xeon @ 2.10GHz, 2 vCPUs) between two requests while
#: the core's hyperthread sibling is idle.  Every reported time is
#: divided by (segment time measured next to it / its reference), so a
#: number reads as "milliseconds at reference speed" and does not move
#: when the host flips the core into a slower mode.
REFERENCE_PROBE_MS = (0.32, 0.40, 0.60)

#: Seconds between two probes inside a pass (a probe costs ~1.5 ms, so
#: probing takes ~3 % of a pass).
PROBE_INTERVAL = 0.05

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")


# ---------------------------------------------------------------------------
# CPU speed probe
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Three fixed pieces of work, timed in thread CPU time.

    Interpreter bytecode, NumPy on cache-resident arrays (searchsorted,
    fancy indexing, lexsort — what the roll-up kernels do) and NumPy
    gathers over an 8 MB array (what a request does to the 84k-node
    columns).  A busy hyperthread sibling slows each kind of work by a
    different amount, so the speed factor is the geometric mean of the
    three slow-downs: on the recorded box that tracks a request's
    slow-down more closely than any one of them.  The probe touches
    nothing of the repo under test — a change to the program cannot
    change the yardstick.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self._haystack = numpy.arange(0, 60000, 3, dtype=numpy.int64)
        self._needles = (numpy.arange(4000, dtype=numpy.int64) * 7919) % 60000
        self._big = numpy.arange(0, 3_000_000, 3, dtype=numpy.int64)
        self._big_needles = (
            numpy.arange(1500, dtype=numpy.int64) * 245489
        ) % 3_000_000

    def __call__(self) -> float:
        """Run once; returns the speed factor (1.0 = reference speed)."""
        np, clock = self._np, time.thread_time
        t0 = clock()
        total = 0
        for value in range(4500):
            total += value * value
        t1 = clock()
        slots = np.searchsorted(self._haystack, self._needles)
        picked = self._haystack[slots % len(self._haystack)]
        np.lexsort((picked, slots))
        t2 = clock()
        slots = np.searchsorted(self._big, self._big_needles)
        picked = self._big[slots % len(self._big)]
        t3 = clock()
        product = 1.0
        for seconds, reference in zip(
            (t1 - t0, t2 - t1, t3 - t2), REFERENCE_PROBE_MS
        ):
            product *= seconds * 1000 / reference
        return product ** (1 / 3)


class ProbeTrack:
    """Probes between the ops of a pass; per-op speed factors afterwards.

    A probe runs before an op whenever :data:`PROBE_INTERVAL` has
    passed since the last one; an op's factor is the mean of the
    probes on either side of it.
    """

    def __init__(self, probe: SpeedProbe):
        self._probe = probe
        self.probes: List[float] = [probe()]
        self._slots: List[int] = []
        self._last = time.perf_counter()

    def start_op(self) -> float:
        """Probe first if one is due; returns the op's start time."""
        started = time.perf_counter()
        if started - self._last >= PROBE_INTERVAL:
            self.probes.append(self._probe())
            self._last = started = time.perf_counter()
        self._slots.append(len(self.probes) - 1)
        return started

    def bracket(self) -> float:
        """Probe now; the mean of this probe and the one before it."""
        self.probes.append(self._probe())
        return (self.probes[-2] + self.probes[-1]) / 2

    def factors(self) -> List[float]:
        """Per-op factors; call after :meth:`bracket` closed the ops."""
        return [(self.probes[s] + self.probes[s + 1]) / 2
                for s in self._slots]


class SpeedSampler:
    """Probe from a background thread while the main thread waits.

    Used around set-up, where the work happens in child processes on
    the same core and the harness itself only blocks: a probe every
    :data:`PROBE_INTERVAL` gives the core's speed over the interval
    (thread CPU time is blind to being descheduled, so sharing the core
    with the child does not inflate it).
    """

    def __init__(self, probe: SpeedProbe):
        self._probe = probe
        self._stop = threading.Event()
        self.samples: List[Tuple[float, float]] = []
        self._thread = threading.Thread(
            target=self._run, name="speed-sampler", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            self.samples.append((time.perf_counter(), self._probe()))
            self._stop.wait(PROBE_INTERVAL)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def factor(self, start: float, end: float) -> float:
        """Median speed factor over ``[start, end]`` (perf_counter)."""
        inside = [f for t, f in self.samples if start <= t <= end]
        if not inside:
            inside = [f for _t, f in self.samples] or [1.0]
        return statistics.median(inside)


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------

def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # raced with an exit
        # The command name may contain spaces and parentheses.
        fields = stat[stat.rindex(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root_pid: int) -> float:
    """utime + stime summed over the process tree."""
    ticks = 0
    for pid in process_tree(root_pid):
        try:
            stat = Path("/proc", str(pid), "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def tree_rss_bytes(root_pid: int) -> int:
    pages = 0
    for pid in process_tree(root_pid):
        try:
            pages += int(
                Path("/proc", str(pid), "statm").read_text().split()[1]
            )
        except OSError:
            continue
    return pages * _PAGE_SIZE


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


# ---------------------------------------------------------------------------
# The served child process
# ---------------------------------------------------------------------------

class ServeProcess:
    """One ``python -m repro serve`` child, from spawn to clean stop."""

    READY_MARK = b" on http://127.0.0.1:"

    def __init__(self, serve_args: Sequence[str], log_path: Path):
        self.argv = repro_argv("serve", *serve_args, "--port", "0")
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            self.argv,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            cwd=str(REPO_ROOT),
        )
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the ready line names the bound port."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while self.READY_MARK not in seen or not seen.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(
                    f"serve did not become ready: {seen!r} "
                    f"(exit {self.proc.returncode})"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                seen += chunk
        tail = seen[seen.index(self.READY_MARK) + len(self.READY_MARK):]
        self.port = int(tail.split(b"/")[0])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGINT for the clean shutdown path, SIGKILL as the backstop."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        for pid in process_tree(self.proc.pid)[1:]:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# HTTP/1.1 over one persistent socket
# ---------------------------------------------------------------------------

def encode_request(
    method: str, path: str, payload: Optional[dict] = None, trace: bool = False
) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if trace:
        head += "X-Repro-Trace: 1\r\n"
    return head.encode("ascii") + b"\r\n" + body


class Client:
    """One keep-alive connection; reconnects after a server-side close."""

    def __init__(self, port: int):
        self.port = port
        self._sock: Optional[socket.socket] = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        return sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def send(self, raw: bytes) -> Tuple[int, bytes]:
        """One round trip: ``(status, body)``."""
        sock = self._sock or self._connect()
        sock.sendall(raw)
        data = b""
        while (split := data.find(b"\r\n\r\n")) < 0:
            chunk = sock.recv(65536)
            if not chunk:
                self.close()
                raise ConnectionError("server closed the connection")
            data += chunk
        head = data[:split]
        status = int(head[9:12])
        mark = head.index(b"Content-Length: ") + 16
        end = head.find(b"\r", mark)
        length = int(head[mark:] if end < 0 else head[mark:end])
        body = data[split + 4:]
        while len(body) < length:
            chunk = sock.recv(length - len(body))
            if not chunk:
                self.close()
                raise ConnectionError("server closed mid-body")
            body += chunk
        if b"Connection: close" in head:
            self.close()
        return status, body

    def get_json(self, path: str) -> dict:
        status, body = self.send(encode_request("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {body[:200]!r}")
        return json.loads(body)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def stable_part(body: bytes) -> bytes:
    """The run-invariant prefix of a result envelope.

    ``ResultEnvelope.to_dict`` puts request, answers, rows and count
    before ``elapsed_ms`` and ``stats`` (timings, generation, cache
    counters), so everything up to that key repeats byte for byte.
    """
    cut = body.rfind(b', "elapsed_ms": ')
    return body if cut < 0 else body[:cut]


@dataclass(frozen=True)
class Op:
    """One request of a list: pre-encoded bytes plus what to expect."""

    method: str
    path: str
    payload: Optional[dict]
    band: str
    #: Envelope answers repeat byte for byte across passes; mutation
    #: receipts carry the moving generation, so only their status is held.
    repeatable: bool = True
    raw: bytes = b""
    raw_traced: bytes = b""

    @classmethod
    def make(cls, method, path, payload, band, repeatable=True) -> "Op":
        return cls(
            method, path, payload, band, repeatable,
            encode_request(method, path, payload),
            encode_request(method, path, payload, trace=True),
        )


@dataclass
class PassSample:
    """Raw measurements of one replay of the list."""

    latency: List[float] = field(default_factory=list)      # seconds, per op
    factor: List[float] = field(default_factory=list)       # speed, per op
    tail_latency: List[float] = field(default_factory=list)
    tail_factor: float = 1.0
    tail_bodies: List[bytes] = field(default_factory=list)
    cpu_seconds: float = 0.0
    rss_bytes: int = 0      # server process tree, right after the pass
    bodies: List[bytes] = field(default_factory=list)
    failed: int = 0

    def reference_latency(self) -> List[float]:
        """Per-op seconds at reference speed."""
        return [t / f for t, f in zip(self.latency, self.factor)]

    def reference_busy_seconds(self) -> float:
        return sum(self.reference_latency()) + sum(
            t / self.tail_factor for t in self.tail_latency
        )


def run_pass(
    client: Client,
    ops: Sequence[Op],
    tail: Sequence[Op],
    probe: SpeedProbe,
    server_pid: int,
    expected: Optional[Sequence[bytes]] = None,
    traced: bool = False,
) -> PassSample:
    """Replay ``ops`` then ``tail`` once, probing the core as it goes.

    Each op is timed on its own (see :class:`ProbeTrack` for its speed
    factor).  Answers are compared with ``expected`` after the last
    op, outside every timed region.
    """
    sample = PassSample()
    clock = time.perf_counter
    track = ProbeTrack(probe)
    cpu_before = tree_cpu_seconds(server_pid)
    statuses: List[int] = []
    for op in ops:
        started = track.start_op()
        status, body = client.send(op.raw_traced if traced else op.raw)
        sample.latency.append(clock() - started)
        statuses.append(status)
        sample.bodies.append(body)
    track.bracket()
    sample.factor = track.factors()
    for op in tail:
        started = clock()
        status, body = client.send(op.raw)
        sample.tail_latency.append(clock() - started)
        sample.tail_bodies.append(body)
        sample.failed += status != 200
    if tail:
        sample.tail_factor = track.bracket()
    sample.cpu_seconds = tree_cpu_seconds(server_pid) - cpu_before
    sample.rss_bytes = tree_rss_bytes(server_pid)
    for index, (op, status, body) in enumerate(
        zip(ops, statuses, sample.bodies)
    ):
        if status != 200:
            sample.failed += 1
        elif (
            expected is not None
            and op.repeatable
            and stable_part(body) != expected[index]
        ):
            sample.failed += 1
    return sample


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation across populations)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]


def per_op_median(passes: Sequence[Sequence[float]]) -> List[float]:
    """Median over passes of each list position."""
    return [statistics.median(column) for column in zip(*passes)]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median — the driver's noise measure."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)
