"""Smoke test of the serving benchmark (not part of tier-1's testpaths).

    python -m pytest benchmarks/serving/test_smoke.py -q

``--quick`` runs every workload on a 4k-node store with short lists:
the gate, the pass runner, the trace writer and the printed JSON are
the real ones, only the sizes differ.  The numbers mean nothing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_benchmark(*args: str, cwd: Path = REPO_ROOT):
    script = cwd / "benchmarks" / "serving" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/serving"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_the_declared_metrics(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3", "--quick",
                         "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    provenance = json.loads(done.stdout.strip().splitlines()[-2])["provenance"]
    trace_file = REPO_ROOT / provenance["trace_file"]
    spans = json.loads(trace_file.read_text())["spans"]
    assert spans and provenance["spans"] == len(spans)
    for span in spans:
        assert set(span) == {"id", "name", "start", "end", "parent", "request"}
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            assert parent["request"] == span["request"]


def test_hit_ratio_expectations_hold_in_quick_mode():
    hot = run_benchmark("--workload", "nearest_hot", "--quick",
                        "--seconds", "1", "--trace", "1")
    metrics = json.loads(hot.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["core.result_cache.hit_ratio"]["value"] >= 0.99


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "serving",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "nearest_distinct", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_gate_rejects_a_wrong_answer(tmp_path):
    xml = tmp_path / "doc.xml"
    xml.write_text("<root><a>color edge</a><b><c>shape</c>edge</b></root>")
    tree = gate.SourceTree(xml)
    assert tree.tag == ["root", "a", "cdata", "b", "c", "cdata", "cdata"]
    good = {"oid": 4, "tag": "b", "terms": ["shape", "edge"]}
    assert tree.check_answer(good) is None
    assert "lacks" in tree.check_answer({**good, "terms": ["color"]})
    assert "source" in tree.check_answer({**good, "tag": "a"})

    op = workloads.nearest_ops(1, 1)[0]
    body = json.dumps({"answers": [good]}).encode()
    assert gate.check([op], [body], {0: [good]}, tree, False) == []
    wrong = [{**good, "oid": 2, "tag": "a"}]
    assert gate.check([op], [body], {0: wrong}, tree, False)
