"""BENCHMARK.json agrees with what run.py measures and prints."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from paper_workloads import WORKLOADS
from worker import E2E_UNITS, PER_LAYER_UNITS

ROOT = Path(__file__).resolve().parents[3]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_shape():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/suite/run.py"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_workloads_agree():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])


def test_metric_names_and_units_agree():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == {"setup_s": "s", **E2E_UNITS}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == PER_LAYER_UNITS


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"


def test_golden_digests_cover_every_workload():
    golden = json.loads((run.SUITE / "golden.json").read_text())
    assert set(golden) == set(WORKLOADS)


def test_result_line_prints_exactly_the_benchmark_metrics():
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    worker = {
        "failed": 0,
        "attempted": 3,
        "golden": "match",
        "metrics": {name: 1.5 for name in units},
    }
    line = run.result_line(worker, units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units


def test_fails_without_the_tree_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "fb-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
