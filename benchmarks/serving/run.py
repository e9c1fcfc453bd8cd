#!/usr/bin/env python3
"""The serving benchmark of record: one command, four workloads.

    python3 benchmarks/serving/run.py --workload nearest_distinct --seed 1
    python3 benchmarks/serving/run.py --all
    python3 benchmarks/serving/run.py --workload query_rw --trace 1
    python3 benchmarks/serving/run.py --selfcheck [--runs 10]

A run builds the snapshot bundle from XML, spawns ``python -m repro
serve`` as a child, checks the served answers against two oracles,
replays the seed-generated request list over one persistent HTTP/1.1
connection (closed loop, one client) for ``--seconds``, and prints one
JSON object as its last line.  README.md in this directory defines
every metric and says why the timings are scaled by a CPU speed probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import harness  # noqa: E402
from harness import (  # noqa: E402
    REPO_ROOT,
    SRC_DIR,
    Client,
    PassSample,
    ServeProcess,
    SpeedProbe,
    SpeedSampler,
    percentile,
    per_op_median,
    run_pass,
    spread,
    stable_part,
)

OUT_DIR = REPO_ROOT / "benchmarks" / "out" / "serving"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
NOISE_JSON = HERE / "NOISE.json"

#: Complete set-ups (build + spawn + first answer) per timed run; the
#: median is reported.  A traced run sets up once.  Two, not more: a
#: cycle on the 84k-node store takes ~7 s, and the seconds are better
#: spent measuring the metrics whose bounds are tight.
SETUP_CYCLES = 2

#: Requests of a nearest list the steered oracle answers (>= 50).
GATE_SAMPLE = 50


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (not: an op failed)."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def pin_cpus() -> Tuple[Optional[int], Optional[int]]:
    """Pin this process (and so every child) to one core.

    Server, client and speed probe share the *main* core: with one
    closed-loop client they never run at the same time, and a probe
    only speaks for the core it ran on — the two vCPUs of the recorded
    box change speed independently.  The *side* core takes the steered
    oracle while set-up is being timed.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    main, side = cpus[-1], cpus[0]
    os.sched_setaffinity(0, {main})
    return main, side


def declared_metrics() -> Dict[str, Dict[str, dict]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {
        group: {metric["name"]: metric for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


class Run:
    """One workload, one seed: set up, gate, measure, report."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 quick: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.workdir = OUT_DIR / f"run-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.server: Optional[ServeProcess] = None
        self.client: Optional[Client] = None
        self.provenance: Dict[str, object] = {}

    # -- failures ---------------------------------------------------------
    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.problems.append(reason)
        log(f"FAILED: {reason}")

    # -- set-up -----------------------------------------------------------
    def prepare_inputs(self) -> None:
        import workloads

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.xml_path = self.workdir / f"{self.workload.dataset}.xml"
        workloads.write_dataset(self.workload.dataset, self.xml_path,
                                self.quick)
        self.requests = workloads.request_list(
            self.workload, self.seed, self.quick
        )
        ops = self.requests.ops
        #: Leading ops that are distinct requests (nearest_hot repeats them).
        self.unique = next(
            (i for i in range(1, len(ops)) if ops[i] is ops[0]), len(ops)
        )

    def start_oracle(self, side_cpu: Optional[int]) -> subprocess.Popen:
        ops = self.requests.ops[: self.unique]
        if self.workload.name == "query_rw":
            sample = None  # every write cycle, in order
        else:
            step = max(1, len(ops) // GATE_SAMPLE)
            sample = list(range(0, len(ops), step))

        def as_rows(group):
            return [[op.method, op.path, op.payload] for op in group]

        spec = {
            "src": str(SRC_DIR),
            "cpu": side_cpu,
            "xml": str(self.xml_path),
            "prelude": as_rows(self.requests.prelude),
            "ops": as_rows(ops),
            "tail": as_rows(self.requests.tail),
            "sample": sample,
            "out": str(self.workdir / "oracle.json"),
        }
        spec_path = self.workdir / "oracle-spec.json"
        spec_path.write_text(json.dumps(spec))
        return subprocess.Popen(
            [sys.executable, str(HERE / "gate.py"), str(spec_path)],
            env=harness.child_env(),
        )

    def setup_cycle(self, index: int) -> Dict[str, float]:
        """Build the bundle, spawn the server, get the first answer."""
        name = self.workload.dataset
        catalog = self.workdir / f"catalog-{index}"
        started = time.perf_counter()
        subprocess.run(
            harness.repro_argv(
                "snapshot", "build", str(self.xml_path), name,
                "--catalog", str(catalog), *self.workload.build_args,
            ),
            check=True, stdout=subprocess.DEVNULL, env=harness.child_env(),
        )
        built = time.perf_counter()
        server = ServeProcess(
            [name, "--catalog", str(catalog), *self.workload.serve_args],
            self.workdir / "serve.log",
        )
        self.server = server
        server.wait_ready()
        self.client = Client(server.port)
        first_read = next(op for op in self.requests.ops if op.repeatable)
        status, body = self.client.send(first_read.raw)
        ended = time.perf_counter()
        self.attempted += 1
        if status != 200:
            self.fail(1, f"first answer of set-up {index}: HTTP {status}")
        self.catalog = catalog
        return {
            "start": started, "built": built, "end": ended,
            "first_answer": stable_part(body),
        }

    def stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        self.client = self.server = None

    def set_up(self, probe: SpeedProbe, cycles: int) -> Dict[str, float]:
        """``cycles`` complete set-ups; the last server stays up."""
        rows = []
        with SpeedSampler(probe) as sampler:
            for index in range(cycles):
                if self.server is not None:
                    self.stop_server()
                    shutil.rmtree(self.catalog, ignore_errors=True)
                row = self.setup_cycle(index)
                row["factor"] = sampler.factor(row["start"], row["end"])
                rows.append(row)
        if len({row["first_answer"] for row in rows}) != 1:
            self.fail(1, "set-up cycles disagree on the first answer")
        return {
            "setup_s": statistics.median(
                (row["end"] - row["start"]) / row["factor"] for row in rows
            ),
            "setup_raw_s": statistics.median(
                row["end"] - row["start"] for row in rows
            ),
            "build_s": statistics.median(
                (row["built"] - row["start"]) / row["factor"] for row in rows
            ),
        }

    # -- gate -------------------------------------------------------------
    def run_gate(self, probe, oracle: subprocess.Popen) -> List[bytes]:
        """One unmeasured pass, held to the two oracles.

        Returns the stable part of every answer: the reference the
        measured passes are compared with.  The pass also warms the
        server (and fills the result cache where there is one).
        """
        for op in self.requests.prelude:
            status, _body = self.client.send(op.raw)
            self.attempted += 1
            if status != 200:
                self.fail(1, f"prelude {op.path}: HTTP {status}")
        ops = self.requests.ops[: self.unique]
        sample = run_pass(self.client, ops, self.requests.tail, probe,
                          self.server.pid)
        self.attempted += len(ops) + len(self.requests.tail)
        if sample.failed:
            self.fail(sample.failed, "gate pass: non-200 answers")
        if oracle.wait(timeout=150) != 0:
            raise BenchmarkError("the steered oracle process failed")
        answers = json.loads((self.workdir / "oracle.json").read_text())
        expected = {int(k): v for k, v in answers["ops"].items()}
        if len(expected) < min(GATE_SAMPLE, len(ops)):
            raise BenchmarkError("oracle sample is smaller than the gate's")
        failures = gate.check(
            ops, sample.bodies, expected,
            gate.SourceTree(self.xml_path),
            live_writes=bool(self.requests.tail),
        )
        for op, body, want in zip(self.requests.tail, sample.tail_bodies,
                                  answers["tail"]):
            got = gate.canonical(op.path, json.loads(body))
            if got != want:
                failures.append(f"{op.path}: served {got}, oracle {want}")
        for failure in failures:
            self.fail(1, f"gate: {failure}")
        self.gate_checked = len(expected)
        return [stable_part(body) for body in sample.bodies]

    # -- measurement ------------------------------------------------------
    def cache_counters(self) -> Tuple[int, int]:
        stats = self.client.get_json("/v1/stats")
        cache = stats["collections"][self.workload.dataset]["cache"]
        if not cache:
            return 0, 0
        return cache["hits"], cache["misses"]

    def measure(self, probe, expected: List[bytes], seconds: float,
                traced: bool = False, min_passes: int = 2) -> List[PassSample]:
        """Replay the list until ``seconds`` have passed."""
        ops = self.requests.ops
        expected = expected * (len(ops) // self.unique)
        passes: List[PassSample] = []
        started = time.perf_counter()
        while (len(passes) < min_passes
               or time.perf_counter() - started < seconds):
            sample = run_pass(
                self.client, ops, self.requests.tail, probe,
                self.server.pid, expected, traced=traced,
            )
            self.attempted += len(ops) + len(self.requests.tail)
            if sample.failed:
                self.fail(sample.failed,
                          f"pass {len(passes)}: wrong or non-200 answers")
            passes.append(sample)
        self.measured_seconds = time.perf_counter() - started
        return passes

    def bundle_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.catalog.glob("*.snap"))

    def check_hit_ratio(self, before, after) -> float:
        hits, misses = after[0] - before[0], after[1] - before[1]
        ratio = hits / (hits + misses) if hits + misses else 0.0
        low, high = self.workload.expect_hit_ratio
        if not low <= ratio <= high:
            self.fail(
                len(self.requests.ops),
                f"result-cache hit ratio {ratio:.4f} outside [{low}, {high}]",
            )
        return ratio

    def end_to_end(self, setup, passes: Sequence[PassSample]) -> Dict[str, float]:
        ops = len(self.requests.ops)
        per_op = per_op_median([p.reference_latency() for p in passes])
        return {
            "setup_s": setup["setup_s"],
            "latency_ms_p50": percentile(per_op, 0.5) * 1000,
            "latency_ms_p90": percentile(per_op, 0.9) * 1000,
            "throughput_qps": statistics.median(
                ops / p.reference_busy_seconds() for p in passes
            ),
            "server_cpu_ms_per_op": statistics.median(
                p.cpu_seconds / statistics.fmean(p.factor) / ops * 1000
                for p in passes
            ),
            # Over the first four passes, not after the last: how many
            # passes fit in the measuring time depends on the machine, and
            # a server that grows with every compaction (query_rw's does)
            # would read differently each run.
            "server_rss_mb": statistics.fmean(
                p.rss_bytes for p in passes[:4]
            ) / 2**20,
            "bundle_bytes_per_xml_byte": (
                self.bundle_bytes() / self.xml_path.stat().st_size
            ),
        }

    # -- the whole run ----------------------------------------------------
    def execute(self) -> Dict[str, float]:
        main_cpu, side_cpu = pin_cpus()
        sys.path.insert(0, str(SRC_DIR))
        probe = SpeedProbe()
        phases = self.provenance["phase_seconds"] = {}
        clock = time.perf_counter
        mark = clock()

        def phase(name: str) -> None:
            nonlocal mark
            phases[name] = round(clock() - mark, 3)
            mark = clock()

        try:
            self.prepare_inputs()
            oracle = self.start_oracle(side_cpu)
            phase("inputs")
            try:
                setup = self.set_up(probe, 1 if self.trace else SETUP_CYCLES)
                phase("set_up")
                expected = self.run_gate(probe, oracle)
                phase("gate")
            finally:
                if oracle.poll() is None:
                    oracle.kill()
                oracle.wait()
            self.record_provenance(main_cpu, setup)
            if self.trace:
                import layers

                metrics = layers.traced_run(self, probe, expected, setup)
            else:
                before = self.cache_counters()
                passes = self.measure(probe, expected, self.seconds)
                self.check_hit_ratio(before, self.cache_counters())
                metrics = self.end_to_end(setup, passes)
                self.provenance["passes"] = len(passes)
                self.provenance["rss_mb_after_each_pass"] = [
                    round(p.rss_bytes / 2**20, 1) for p in passes
                ]
                self.provenance["measured_seconds"] = self.measured_seconds
                self.provenance["speed_factor"] = statistics.median(
                    f for p in passes for f in p.factor
                )
            phase("measure")
            return metrics
        finally:
            self.stop_server()
            shutil.rmtree(self.workdir, ignore_errors=True)

    def record_provenance(self, main_cpu, setup) -> None:
        stats = self.client.get_json("/v1/stats")
        row = stats["collections"][self.workload.dataset]
        import numpy  # the speed probe already needs it

        self.provenance.update({
            "workload": self.workload.name,
            "seed": self.seed,
            "quick": self.quick,
            "commit": git_commit(),
            "cpu_count": os.cpu_count(),
            "pinned_cpu": main_cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "kernel_tier": row["kernel_tier"],
            "backend": row["backend"],
            "serve_argv": self.server.argv,
            "requested_seconds": self.seconds,
            "setup_cycles": 1 if self.trace else SETUP_CYCLES,
            "setup_raw_s": setup["setup_raw_s"],
            "list_length": len(self.requests.ops),
            "band_sizes": self.requests.band_sizes(),
            "gate_checked": self.gate_checked,
            "node_count": row["node_count"],
            "xml_bytes": self.xml_path.stat().st_size,
            "bundle_bytes": self.bundle_bytes(),
            "reference_probe_ms": harness.REFERENCE_PROBE_MS,
        })


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a repository


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    import workloads

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace), args.quick)
    values = run.execute()
    if set(values) != set(declared):
        raise BenchmarkError(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    metrics = {
        name: {"value": values[name], "unit": declared[name]["unit"]}
        for name in declared
    }
    for name, metric in metrics.items():
        log(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    correct = run.failed == 0
    print(json.dumps({"provenance": run.provenance, "problems": run.problems}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def child_run(workload: str, seed: int, seconds: int, quick: bool,
              trace: int = 0) -> Dict[str, object]:
    """One run as the driver makes it: a fresh process, last line JSON."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    import workloads

    for name in workloads.WORKLOADS:
        log(f"== {name}")
        result = child_run(name, args.seed, args.seconds, args.quick,
                           args.trace)
        print(json.dumps({"workload": name, **result}))
    return 0


def selfcheck(args) -> int:
    """Run every workload ``--runs`` times and hold the spread to the bounds.

    Runs alternate order (forwards, backwards, ...) and each takes its
    own seed, as the driver's do.  With two runs the check is the
    relative difference of the pair; with five or more it is the
    driver's: interquartile range over median of the set, and the shift
    between the medians of the first and second half.
    """
    import workloads

    bounds = {n: m["bound"] for n, m in declared_metrics()["end_to_end"].items()}
    names = list(workloads.WORKLOADS)
    values: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in bounds} for name in names
    }
    for round_index in range(args.runs):
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            seed = args.seed + round_index
            log(f"== selfcheck round {round_index} {name} seed {seed}")
            result = child_run(name, seed, args.seconds, args.quick)
            for metric, entry in result["metrics"].items():
                values[name][metric].append(entry["value"])
    report: Dict[str, Dict[str, dict]] = {}
    worst = 0.0
    for name in names:
        report[name] = {}
        for metric, series in values[name].items():
            half = len(series) // 2
            first = statistics.median(series[:half])
            second = statistics.median(series[half:])
            row = {
                "values": series,
                "bound": bounds[metric],
                "shift": abs(second - first) / first,
                "spread": spread(series) if len(series) >= 5 else None,
            }
            report[name][metric] = row
            # The driver holds set-up time to the shift only.
            seen = row["shift"] if metric == "setup_s" else max(
                row["shift"], row["spread"] or 0.0
            )
            worst = max(worst, seen / bounds[metric])
            print(
                f"{name:18s} {metric:28s} "
                f"first {first:12.4f} second {second:12.4f} "
                f"shift {row['shift']:7.4f} "
                + (f"spread {row['spread']:7.4f} " if row["spread"] is not None else "")
                + f"bound {bounds[metric]:.2f}"
                + ("  OVER" if seen > bounds[metric] else "")
            )
    if not args.quick:
        NOISE_JSON.write_text(json.dumps({
            "runs_per_workload": args.runs,
            "run_seconds": args.seconds,
            "first_seed": args.seed,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "workloads": report,
        }, indent=1) + "\n")
    return 0 if worst <= 1.0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: BENCHMARK.json's "
                        "run_seconds; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="4k-node stores and short lists: a smoke test, "
                        "not a measurement")
    parser.add_argument("--all", action="store_true",
                        help="run the four workloads one after the other")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs per workload under --selfcheck")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        log(f"error: {SRC_DIR}/repro is missing: the benchmark measures the "
            "program of this repository and does not run without it")
        return 2
    if args.seconds is None:
        args.seconds = (
            2 if args.quick
            else json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
        )
    try:
        if args.selfcheck:
            return selfcheck(args)
        if args.all:
            return run_all(args)
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(
                f"--workload must be one of {', '.join(workloads.WORKLOADS)}"
            )
        return run_one(args)
    except BenchmarkError as exc:
        log(f"error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
