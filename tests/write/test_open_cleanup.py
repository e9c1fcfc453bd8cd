"""Regression: a failed sharded open must not leak temp shard bundles.

``Database._open_sharded`` with ``replicas > 0`` over a parsed store
writes one bundle recording the shard plan into a ``repro-shards-*``
temp directory before the shard workers spin up.  A failure anywhere
after that write — worker spin-up, plan validation,
``ShardedCollection`` wiring — used to leave the directory behind,
because cleanup only ran through ``close()`` on a successfully
constructed instance.
"""

import pytest

import repro.api.database as database_module
import repro.exec.remote as remote_module
from repro.api import Database, DatabaseOptions

from .harness import write_source


def _recorded_tempdirs(monkeypatch):
    """Record every repro-shards temp dir the open creates."""
    import tempfile as tempfile_module

    created = []
    real_mkdtemp = tempfile_module.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        path = real_mkdtemp(*args, **kwargs)
        created.append(path)
        return path

    monkeypatch.setattr(
        database_module.tempfile, "mkdtemp", recording_mkdtemp
    )
    return created


def test_failed_pool_spinup_removes_temp_bundles(tmp_path, monkeypatch):
    source, _model = write_source(tmp_path, "figure1")
    created = _recorded_tempdirs(monkeypatch)

    class Boom(RuntimeError):
        pass

    def exploding_spawn(*args, **kwargs):
        raise Boom("shard worker failed to spawn")

    monkeypatch.setattr(remote_module, "spawn_worker_process", exploding_spawn)
    with pytest.raises(Boom):
        Database.open(
            str(source),
            options=DatabaseOptions(shards=2, replicas=1),
        )
    assert created, "test never reached bundle materialization"
    import os

    for path in created:
        assert not os.path.exists(path), f"temp shard bundles leaked: {path}"


def test_successful_open_cleans_up_on_close(tmp_path, monkeypatch):
    source, _model = write_source(tmp_path, "figure1")
    created = _recorded_tempdirs(monkeypatch)
    db = Database.open(
        str(source), options=DatabaseOptions(shards=2, replicas=1)
    )
    try:
        assert created and all(
            __import__("os").path.exists(path) for path in created
        )
    finally:
        db.close()
    import os

    for path in created:
        assert not os.path.exists(path), f"temp shard bundles leaked: {path}"


def test_unclosed_database_stops_its_workers(tmp_path):
    """A database dropped without ``close()`` still stops the worker
    processes it spawned and removes its temp bundle."""
    import gc
    import os

    source, _model = write_source(tmp_path, "figure1")
    db = Database.open(
        str(source), options=DatabaseOptions(shards=2, replicas=1)
    )
    processes = [
        replica.process
        for group in db.sharded.executor.replicas
        for replica in group
    ]
    bundle = db.sharded.executor.replicas[0][0].spec.spawn.args[0]
    assert processes and all(process.alive for process in processes)
    del db
    gc.collect()
    assert not any(process.alive for process in processes)
    assert not os.path.exists(bundle)
