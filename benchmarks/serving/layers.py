"""The traced run: where a request's milliseconds go, layer by layer.

Timed runs keep tracing off.  A traced run (``--trace 1``) measures
the same list three ways and reports the per-layer metrics of
BENCHMARK.json:

(a) over HTTP, untraced, for half the measuring time — the client-side
    numbers (stalls, pass spread, per-band latency);
(b) over HTTP with ``X-Repro-Trace: 1`` — the spans the server already
    records, plus ``/v1/stats`` deltas;
(c) in-process through ``Database.open(bundle)`` after the server has
    stopped, with this module's spans wrapped around the public entry
    points of every layer.  No file under ``src/`` is edited: the
    wrappers are installed on the imported modules and removed again.

Every span has a name, start, end, parent and request id; they are
kept in memory and written to ``benchmarks/out/serving/trace-<workload>
.json`` at the end.  A layer's self time is its span minus the spans
it directly caused.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import gate
import harness
from harness import ProbeTrack, percentile, per_op_median, spread

#: A request this far above its own median counts as stalled.
STALL_MS = 20.0


class SpanRecorder:
    """In-memory spans of the in-process pass (single-threaded)."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, request id, count]
        self.spans: List[list] = []
        self._open: List[int] = []
        self.request: Optional[int] = None
        #: Speed factor per request id, set by the pass that recorded.
        self.factors: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request, 0])
        self._open.append(index)
        return index

    def close(self, index: int, count: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = count
        self._open.pop()

    def wrap(self, owner: object, attribute: str, name: str,
             count: Optional[Callable[[object], int]] = None) -> None:
        """Record a span around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if recorder.request is None:  # opening, warming: not a request
                return original(*args, **kwargs)
            index = recorder.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.close(
                    index,
                    count(result) if count and result is not None else 0,
                )

        setattr(owner, attribute, traced)
        self._undo.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- aggregation ------------------------------------------------------
    def self_seconds(self) -> List[float]:
        """Per span: its duration minus its direct children's."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def to_rows(self) -> List[dict]:
        return [
            {"id": i, "name": s[0], "start": s[1], "end": s[2],
             "parent": None if s[3] < 0 else s[3], "request": s[4]}
            for i, s in enumerate(self.spans)
        ]


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public entry point of every layer a request crosses."""
    import repro.api.database as database
    import repro.core.backends as backends
    import repro.core.engine as engine
    import repro.core.lca_index as lca_index
    import repro.core.result_cache as result_cache
    import repro.exec.coordinator as coordinator
    import repro.exec.executors as executors
    import repro.exec.service as service
    import repro.fulltext.search as search
    import repro.kernels.lca as kernels_lca
    import repro.kernels.postings as postings
    import repro.kernels.rollup as rollup
    import repro.query.executor as executor
    import repro.valueindex.index as valueindex

    wrap = recorder.wrap
    wrap(result_cache.ResultCache, "get", "api.cache_lookup")
    wrap(search.SearchEngine, "find", "fulltext.find",
         count=lambda hits: len(hits.oid_column()))
    wrap(postings, "intersect_columns", "kernels.postings.intersect")
    wrap(kernels_lca.LcaKernels, "auxiliary_tree",
         "kernels.lca.auxiliary_tree")
    wrap(rollup, "rollup_tagged", "kernels.rollup.rollup_tagged")
    wrap(backends.VectorBackend, "meet_term_hits",
         "core.backends.meet_term_hits", count=len)
    wrap(engine.NearestConceptEngine, "nearest_concepts",
         "core.engine.nearest_concepts", count=len)
    wrap(engine.NearestConceptEngine, "_annotate", "core.engine.annotate")
    wrap(lca_index.LcaIndex, "__init__", "core.lca_index.build")
    wrap(executor, "parse_query", "query.parse")
    wrap(database, "parse_query", "query.parse")
    wrap(executor, "plan_query", "query.plan")
    wrap(executor.QueryProcessor, "execute", "query.execute")
    wrap(executor.QueryProcessor, "execute_template", "query.execute")
    for lookup in ("lookup_eq", "lookup_cmp", "lookup_range"):
        wrap(valueindex.ValueIndex, lookup, "valueindex.lookup")
    wrap(database, "put_document", "monet.mutate.put")
    wrap(database, "replace_document", "monet.mutate.replace")
    wrap(database, "delete_document", "monet.mutate.delete")
    wrap(database, "compact_store", "monet.compact")
    wrap(database, "append_delta", "snapshot.delta_append")
    wrap(os, "fsync", "os.fsync")
    wrap(executors.SerialExecutor, "scatter", "exec.coordinator.scatter")
    wrap(coordinator.ShardedCollection, "nearest_concepts",
         "exec.coordinator.nearest", count=len)
    wrap(coordinator.ShardedCollection, "_merge_nearest",
         "exec.coordinator.merge")
    wrap(service.ShardService, "handle", "exec.service.shard")


def inprocess_pass(database, request_list, probe, ops,
                   recorder: Optional[SpanRecorder] = None) -> List[float]:
    """One pass through the facade; mirrors :func:`harness.run_pass`.

    Returns milliseconds at reference speed per op.  With a recorder,
    each op is one ``request`` span with a decode, a dispatch and an
    encode child — the work the HTTP handler does around the engine —
    and ``recorder.factors`` gets one speed factor per op plus one for
    the tail, which is recorded as one more request of the pass.
    """
    clock = time.perf_counter
    track = ProbeTrack(probe)
    latency: List[float] = []
    for index, op in enumerate(ops):
        raw = json.dumps(op.payload)
        started = track.start_op()
        if recorder is None:
            json.dumps(gate.dispatch(database, op.method, op.path,
                                     json.loads(raw)))
        else:
            recorder.request = index
            root = recorder.open("request")
            span = recorder.open("api.request_decode")
            payload = json.loads(raw)
            recorder.close(span)
            span = recorder.open("api.dispatch")
            result = _dispatch_split(database, op, payload, recorder)
            recorder.close(span)
            span = recorder.open("api.envelope_encode")
            json.dumps(result)
            recorder.close(span)
            recorder.close(root)
        latency.append(clock() - started)
    track.bracket()
    factors = track.factors()
    if recorder is not None:
        recorder.request = len(ops)
        recorder.factors = factors + [track.probes[-1]]
    for op in request_list.tail:
        gate.dispatch(database, op.method, op.path, op.payload)
    if recorder is not None:
        recorder.request = None
    return [t / f * 1000 for t, f in zip(latency, factors)]


def _best_p50(passes: Sequence[Sequence[float]]) -> float:
    """p50 over the ops, each op its best over the in-process passes."""
    return percentile([min(column) for column in zip(*passes)], 0.5)


#: Envelope routes: request class and facade method, by path.
_ENVELOPE_ROUTES = {
    "/v1/nearest": ("NearestRequest", "nearest"),
    "/v1/query": ("QueryRequest", "query"),
    "/v1/execute": ("ExecuteRequest", "execute"),
}


def _dispatch_split(database, op, payload, recorder: SpanRecorder):
    """Dispatch, timing ``from_dict`` / ``to_dict`` under their layers."""
    from repro.api import envelopes

    if op.path not in _ENVELOPE_ROUTES:
        return gate.dispatch(database, op.method, op.path, payload)
    request_class, method = _ENVELOPE_ROUTES[op.path]
    span = recorder.open("api.request_decode")
    request = getattr(envelopes, request_class).from_dict(payload)
    recorder.close(span)
    envelope = getattr(database, method)(request)
    span = recorder.open("api.envelope_encode")
    body = envelope.to_dict()
    recorder.close(span)
    return body


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def _server_spans(bodies: Sequence[bytes]) -> Dict[str, float]:
    """Milliseconds per span name, summed over one traced HTTP pass."""
    totals: Dict[str, float] = {}
    for body in bodies:
        payload = json.loads(body)
        trace = (payload.get("stats") or {}).get("trace") or payload.get("trace")
        for span in (trace or {}).get("spans", ()):
            name = span["name"]
            if name.startswith("shard["):
                name = "shard.op"
            totals[name] = totals.get(name, 0.0) + float(span["ms"])
    return totals


def _index_builds(client) -> Dict[str, int]:
    return client.get_json("/v1/stats")["index_builds"]


def _band_p50(request_list, per_op_ms: Sequence[float], band: str) -> float:
    values = [ms for op, ms in zip(request_list.ops, per_op_ms)
              if op.band == band]
    return percentile(values, 0.5) if values else 0.0


def traced_run(run, probe, expected, setup) -> Dict[str, float]:
    """Phases (a), (b), (c); returns every per-layer metric by name."""
    from repro.api.database import Database
    from repro.fulltext.index import fulltext_index_cache_info
    from repro.valueindex import value_index_cache_info

    requests = run.requests
    ops = requests.ops
    count = len(ops)
    name = run.workload.dataset
    metrics: Dict[str, float] = {}

    # -- (a) untraced HTTP passes ---------------------------------------
    builds_before = _index_builds(run.client)
    cache_before = run.cache_counters()
    passes = run.measure(probe, expected, run.seconds / 2)
    hit_ratio = run.check_hit_ratio(cache_before, run.cache_counters())
    http_ms = [[s * 1000 for s in p.reference_latency()] for p in passes]
    http_per_op = per_op_median(http_ms)
    raw_ms = [[t * 1000 for t in p.latency] for p in passes]
    stalled = sum(
        1 for row in http_ms for ms, typical in zip(row, http_per_op)
        if ms > typical + STALL_MS
    )
    metrics["client.stall_ms_per_op"] = (
        statistics.fmean(ms for row in http_ms for ms in row)
        - statistics.fmean(http_per_op)
    )
    metrics["client.stalls_per_1k_ops"] = 1000 * stalled / (count * len(passes))
    metrics["client.pass_spread"] = spread(
        [p.reference_busy_seconds() for p in passes]
    ) if len(passes) >= 3 else 0.0
    metrics["client.speed_factor"] = statistics.median(
        f for p in passes for f in p.factor
    )
    metrics["client.raw_latency_ms_p50"] = percentile(
        [min(column) for column in zip(*raw_ms)], 0.5
    )
    metrics["api.response_bytes_per_op"] = statistics.fmean(
        len(body) for body in passes[-1].bodies
    )
    metrics["core.result_cache.hit_ratio"] = hit_ratio
    metrics["api.read_warm_ms_p50"] = _band_p50(requests, http_per_op, "read_warm")
    metrics["api.write_ms_p50"] = _band_p50(requests, http_per_op, "write")
    metrics["api.read_after_write_ms_p50"] = _band_p50(
        requests, http_per_op, "read_after_write"
    )
    metrics["api.compact_ms"] = statistics.median(
        sum(p.tail_latency) / p.tail_factor * 1000 for p in passes
    )

    # -- (b) one traced HTTP pass ---------------------------------------
    traced = run.measure(probe, expected, 0.0, traced=True, min_passes=1)[0]
    spans = _server_spans(traced.bodies)
    builds_after = _index_builds(run.client)
    server_passes = len(passes) + 1
    metrics["obs.trace_overhead_share"] = (
        traced.reference_busy_seconds()
        / statistics.median(p.reference_busy_seconds() for p in passes)
        - 1
    )
    factor = statistics.fmean(traced.factor)
    for span_name, metric in (
        ("admission.wait", "api.admission_wait_ms"),
        ("serialize", "api.serialize_ms"),
        ("shard.scatter", "exec.coordinator.scatter_ms"),
        ("merge", "exec.coordinator.merge_ms"),
    ):
        metrics[metric] = spans.get(span_name, 0.0) / factor / count
    for layer, metric in (
        ("lca", "core.lca_index.builds"),
        ("fulltext", "fulltext.index.builds"),
        ("valueindex", "valueindex.builds"),
    ):
        metrics[metric] = (
            (builds_after[layer] - builds_before[layer]) / server_passes
        )
    metrics["snapshot.bundle_bytes"] = float(run.bundle_bytes())
    metrics["snapshot.build_s"] = setup["build_s"]

    # -- (c) in-process, after the server has let go of the bundle ------
    run.stop_server()
    # `serve` keeps a 1024-entry result cache unless told `--cache 0`.
    cache = None if "--cache" in run.workload.serve_args else 1024
    speed = probe()
    opened = time.perf_counter()
    database = Database.open(name, catalog=str(run.catalog), cache=cache)
    database.warm_up()
    open_ms = (time.perf_counter() - opened) * 1000
    metrics["snapshot.open_ms"] = open_ms / ((speed + probe()) / 2)
    recorder = SpanRecorder()
    try:
        for op in requests.prelude:
            gate.dispatch(database, op.method, op.path, op.payload)
        # Two plain passes; the first also warms (and fills the cache).
        plain = [inprocess_pass(database, requests, probe, ops)
                 for _ in range(2)]
        fulltext_patches = fulltext_index_cache_info().patches
        valueindex_patches = value_index_cache_info().patches
        plans = database.plan_cache_info()
        instrument(recorder)
        try:
            inprocess_pass(database, requests, probe, ops, recorder)
        finally:
            recorder.unwrap_all()
        metrics["fulltext.index.patches"] = float(
            fulltext_index_cache_info().patches - fulltext_patches
        )
        metrics["valueindex.patches"] = float(
            value_index_cache_info().patches - valueindex_patches
        )
        plan_hits = database.plan_cache_info()["hits"] - plans["hits"]
        plan_misses = database.plan_cache_info()["misses"] - plans["misses"]
        metrics["query.rows_examined_per_row"] = _rows_examined(database, ops)
    finally:
        database.close()
    inprocess_p50 = _best_p50(plain)
    metrics["api.http_overhead_ms"] = (
        percentile(http_per_op, 0.5) - inprocess_p50
    )
    metrics["query.plan_cache_hit_ratio"] = (
        plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses else 0.0
    )
    metrics.update(_layer_metrics(recorder, count, requests))
    metrics["exec.overhead_ratio"] = (
        inprocess_p50 / _monolithic_p50(run, probe, ops)
        if run.workload.name == "nearest_sharded" else 0.0
    )
    _write_trace(run, recorder, metrics)
    return metrics


def _rows_examined(database, ops) -> float:
    """Rows the planner's access paths produced per row returned."""
    examined = returned = 0
    seen = set()
    for op in ops:
        if op.path != "/v1/query" or op.raw in seen:
            continue
        seen.add(op.raw)
        envelope = gate.dispatch(database, op.method, op.path, op.payload)
        plan = envelope["stats"].get("plan") or {}
        examined += sum(
            condition.get("actual_rows") or 0
            for condition in plan.get("conditions", ())
        )
        returned += envelope["count"]
    return examined / returned if returned else 0.0


def _monolithic_p50(run, probe, ops) -> float:
    """In-process p50 of the same list on the unsharded store."""
    from repro.api.database import Database

    database = Database.open(str(run.xml_path), backend="vector", cache=None)
    try:
        database.warm_up()
        return _best_p50([
            inprocess_pass(database, run.requests, probe, ops)
            for _ in range(2)
        ])
    finally:
        database.close()


#: Span name -> metric reporting its mean self time per op of the list.
_SELF_TIME_METRICS = {
    "api.cache_lookup": "api.cache_lookup_ms",
    "api.request_decode": "api.request_decode_ms",
    "api.envelope_encode": "api.envelope_encode_ms",
    "api.dispatch": "api.facade_ms",
    "fulltext.find": "fulltext.find_ms",
    "kernels.lca.auxiliary_tree": "kernels.lca.auxiliary_tree_ms",
    "kernels.rollup.rollup_tagged": "kernels.rollup.rollup_tagged_ms",
    "kernels.postings.intersect": "kernels.postings.intersect_ms",
    "core.engine.nearest_concepts": "core.engine.nearest_concepts_ms",
    "core.backends.meet_term_hits": "core.backends.meet_term_hits_ms",
    "core.engine.annotate": "core.engine.annotate_ms",
    "query.parse": "query.parse_ms",
    "query.plan": "query.plan_ms",
    "query.execute": "query.execute_ms",
    "valueindex.lookup": "valueindex.lookup_ms",
    "exec.service.shard": "exec.service.shard_ms",
}

#: Span name -> metric reporting its mean duration per *call*: these
#: happen a few times per pass (writes, index builds, the compaction).
_PER_CALL_METRICS = {
    "monet.mutate.put": "monet.mutate.put_ms",
    "monet.mutate.replace": "monet.mutate.replace_ms",
    "monet.mutate.delete": "monet.mutate.delete_ms",
    "monet.compact": "monet.compact_ms",
    "core.lca_index.build": "core.lca_index.build_ms",
    "snapshot.delta_append": "snapshot.delta_append_ms",
}

_WRITE_SPANS = ("monet.mutate.put", "monet.mutate.replace",
                "monet.mutate.delete")


def _layer_metrics(recorder, count, requests) -> Dict[str, float]:
    """Fold the in-process spans into the per-layer numbers.

    Span times are brought to reference speed with the factor of the
    request they belong to (``recorder.factors``).
    """
    own = recorder.self_seconds()
    factors = recorder.factors
    self_ms: Dict[str, float] = {}    # inside the ops of the list only
    total_ms: Dict[str, float] = {}   # ops and tail
    calls: Dict[str, int] = {}
    op_calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    shard_ms: Dict[int, List[float]] = {}
    for span, seconds in zip(recorder.spans, own):
        name, start, end, _parent, request, counted = span
        speed = factors[request]
        total_ms[name] = total_ms.get(name, 0.0) + (end - start) * 1000 / speed
        calls[name] = calls.get(name, 0) + 1
        if request >= count:  # the tail: per-call metrics only
            continue
        self_ms[name] = self_ms.get(name, 0.0) + seconds * 1000 / speed
        op_calls[name] = op_calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + counted
        if name == "exec.service.shard":
            shard_ms.setdefault(request, []).append(end - start)
    metrics = {
        metric: self_ms.get(name, 0.0) / count
        for name, metric in _SELF_TIME_METRICS.items()
    }
    for name, metric in _PER_CALL_METRICS.items():
        metrics[metric] = (
            total_ms[name] / calls[name] if calls.get(name) else 0.0
        )
    answers = counts.get("core.engine.nearest_concepts", 0) + counts.get(
        "exec.coordinator.nearest", 0
    )
    metrics["core.candidates_per_answer"] = (
        counts.get("core.backends.meet_term_hits", 0) / answers
        if answers else 0.0
    )
    metrics["fulltext.hits_per_op"] = counts.get("fulltext.find", 0) / count
    writes = sum(calls.get(name, 0) for name in _WRITE_SPANS)
    metrics["snapshot.fsyncs_per_write"] = (
        op_calls.get("os.fsync", 0) / writes if writes else 0.0
    )
    metrics["snapshot.delta_bytes_per_write"] = _delta_bytes(requests, writes)
    metrics["exec.shard_skew"] = (
        statistics.fmean(
            max(row) / statistics.fmean(row) for row in shard_ms.values()
        ) if shard_ms else 0.0
    )
    # What no named layer accounts for: the request span's own time.
    metrics["obs.unattributed_share"] = (
        self_ms.get("request", 0.0) / sum(self_ms.values())
        if self_ms else 0.0
    )
    return metrics


def _delta_bytes(requests, writes: int) -> float:
    """Payload bytes journaled per write (the delta section's body)."""
    if not writes:
        return 0.0
    from repro.snapshot.deltas import DeltaOp

    total = 0
    for op in requests.ops:
        if op.band != "write":
            continue
        kind = (
            "delete" if op.method == "DELETE"
            else "replace" if op.payload.get("replace") else "put"
        )
        total += len(DeltaOp(kind, op.payload["name"],
                             op.payload.get("xml")).to_payload())
    return total / writes


def _write_trace(run, recorder: SpanRecorder, metrics) -> None:
    path = harness.REPO_ROOT / "benchmarks" / "out" / "serving" / (
        f"trace-{run.workload.name}.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": run.workload.name,
        "seed": run.seed,
        "provenance": run.provenance,
        "per_layer": metrics,
        "spans": recorder.to_rows(),
    }))
    run.provenance["trace_file"] = str(path.relative_to(harness.REPO_ROOT))
    run.provenance["spans"] = len(recorder.spans)
