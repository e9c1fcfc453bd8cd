"""The execution layer: sharded collections and pluggable executors.

``repro.exec`` is the seam every scaling feature plugs into:

* :mod:`repro.exec.sharding` — answer-preserving partitioning of one
  store into shards, each an OID range of whole top-level subtrees;
* :mod:`repro.exec.service` — the pure per-shard request handlers;
* :mod:`repro.exec.executors` — where shard work runs: in-process
  (:class:`SerialExecutor`, the default) or on socket workers
  (:class:`ClusterExecutor`, below), which scale query serving past
  the GIL;
* :mod:`repro.exec.coordinator` — scatter-gather merge producing
  byte-identical global answers, including the root meet no single
  shard can see;
* :mod:`repro.exec.transport` — the length-prefixed, CRC-checked
  socket frame protocol between shard peers;
* :mod:`repro.exec.remote` — shard workers as standalone socket
  servers (:class:`ShardWorkerServer`) and their client;
* :mod:`repro.exec.cluster` — the one out-of-process executor
  (:class:`ClusterExecutor`): N-way shard replicas with circuit
  breakers, heartbeat probing, respawn and failover;
* :mod:`repro.exec.deadline` — per-request time budgets propagated
  through the whole tree via a context variable.
"""

from .cluster import ClusterExecutor, Replica, ReplicaSpec
from .coordinator import ShardMismatchError, ShardedCollection
from .deadline import (
    Deadline,
    DeadlineExceededError,
    current_deadline,
    deadline_scope,
)
from .executors import (
    Executor,
    ExecutorError,
    SerialExecutor,
)
from .remote import (
    RemoteOpError,
    RemoteShardClient,
    ShardWorkerServer,
    WorkerProcess,
    services_from_bundle,
    spawn_worker_process,
)
from .service import ShardService, shard_services
from .sharding import ShardingError, ShardPlan, compute_shard_plan
from .transport import ConnectionClosedError, FrameError, TransportError

__all__ = [
    "ClusterExecutor",
    "ConnectionClosedError",
    "Deadline",
    "DeadlineExceededError",
    "Executor",
    "ExecutorError",
    "FrameError",
    "RemoteOpError",
    "RemoteShardClient",
    "Replica",
    "ReplicaSpec",
    "SerialExecutor",
    "ShardMismatchError",
    "ShardPlan",
    "ShardService",
    "ShardWorkerServer",
    "ShardedCollection",
    "ShardingError",
    "TransportError",
    "WorkerProcess",
    "compute_shard_plan",
    "current_deadline",
    "deadline_scope",
    "services_from_bundle",
    "shard_services",
    "spawn_worker_process",
    "transport",
]
