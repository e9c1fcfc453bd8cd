"""Executors: where a sharded collection's scatter-gather work runs.

The :class:`Executor` protocol is the seam between the coordinator
(:mod:`repro.exec.coordinator`) and the hardware: a coordinator only
ever calls ``scatter([(shard_id, op, params), ...])`` and gets one
plain-data response per request, so the same coordinator code serves

* :class:`SerialExecutor` — handlers run in-process, in order.  Zero
  overhead, byte-identical to the monolithic engine, and the default;
* :class:`~repro.exec.cluster.ClusterExecutor` — socket workers
  (``repro shard-worker`` processes, each mapping the collection's one
  snapshot bundle) that answer over the framed protocol of
  :mod:`repro.exec.transport`, with failover between replicas and
  respawn of dead workers.  Compute happens in worker processes, so a
  multi-threaded HTTP server scales past one core: the GIL only ever
  sees cheap merge work.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Sequence, Tuple

from ..datamodel.errors import ReproError
from .deadline import current_deadline
from .service import ShardService

__all__ = [
    "Executor",
    "ExecutorError",
    "SerialExecutor",
]

ShardOp = Tuple[int, str, Dict[str, object]]


class ExecutorError(ReproError):
    """A scatter that could not complete (e.g. a worker died)."""

    code = "shard_unavailable"
    retryable = True


class Executor(Protocol):
    """What the coordinator needs from an execution strategy."""

    name: str
    shard_count: int

    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        """Run every (shard_id, op, params) request; results in order."""
        ...

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        """``scatter`` of one op to every shard."""
        ...

    def stats(self) -> Dict[str, object]:
        """Executor-level observability (mode, workers, merged counters)."""
        ...

    def health(self) -> Dict[str, object]:
        """Readiness: overall ``status`` plus per-shard detail."""
        ...

    def close(self) -> None:
        ...


class SerialExecutor:
    """In-process scatter-gather: the default, and the serial baseline."""

    name = "serial"

    def __init__(self, services: Sequence[ShardService]):
        self.services = list(services)
        self.shard_count = len(self.services)

    def scatter(self, ops: Sequence[ShardOp]) -> List[Dict[str, object]]:
        deadline = current_deadline()
        results = []
        for shard_id, op, params in ops:
            # Cooperative enforcement: a serial scatter checks the
            # budget between shards (mid-shard compute cannot be
            # preempted, but a multi-shard pile-up is cut short).
            if deadline is not None:
                deadline.check(f"shard {shard_id} op {op!r}")
            results.append(self.services[shard_id].handle(op, params))
        return results

    def broadcast(self, op: str, params: Dict[str, object]) -> List[Dict[str, object]]:
        return self.scatter([(i, op, dict(params)) for i in range(self.shard_count)])

    def stats(self) -> Dict[str, object]:
        return {
            "mode": self.name,
            "shards": self.shard_count,
            "workers": 0,
        }

    def health(self) -> Dict[str, object]:
        # In-process shards cannot partially fail: alive means ready.
        return {
            "status": "ok",
            "shards": [
                {"shard": i, "status": "ok", "healthy_replicas": 1}
                for i in range(self.shard_count)
            ],
        }

    def close(self) -> None:
        pass
