"""Every workload at a tiny size, through the code path the benchmark runs."""

import json
from pathlib import Path

import pytest

import repro.schedulers.solstice as solstice
from paper_workloads import BASE_SEEDS, WORKLOADS, IntraBaselines, TraceShape, paper_trace
from repro.api import TraceSpec
from worker import measure_workload

BENCHMARK = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())


def _units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_end_to_end_run(name, tmp_path):
    out = measure_workload(name, 7, 0, False, tmp_path, tiny=True)
    assert out["failed"] == 0 and out["attempted"] > 0, out["problems"]
    # run.py adds setup_s, measured over fresh processes.
    names = set(out["metrics"]) | {"setup_s"}
    assert names == set(_units("end_to_end"))
    assert all(value > 0 for value in out["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    out = measure_workload(name, 7, 0, True, tmp_path, tiny=True, spans_out=spans)
    assert out["failed"] == 0, out["problems"]
    assert set(out["metrics"]) == set(_units("per_layer"))
    assert out["absent"] == []
    assert out["self_sum_s"] == pytest.approx(out["traced_wall_s"], rel=1e-9)
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    roots = [line for line in lines if line["tree"] == "pass" and line["parent"] == -1]
    assert len(roots) == 1
    assert out["metrics"][f"{WORKLOADS[name].root}.self_s"] == pytest.approx(
        roots[0]["self_s"], rel=1e-9
    )


def test_traced_pass_leaves_no_wrapper_behind(tmp_path):
    import repro.core.sunflow as sunflow

    original = sunflow.SunflowScheduler.__dict__["schedule_demand"]
    measure_workload("fb-replay", 7, 0, True, tmp_path, tiny=True)
    assert sunflow.SunflowScheduler.__dict__["schedule_demand"] is original


def test_scheduler_that_raises_fails_only_its_operations(tmp_path, monkeypatch):
    def broken(self, demand_times, num_ports):
        raise RuntimeError("solstice schedule does not cover coflow")

    monkeypatch.setattr(solstice.SolsticeScheduler, "schedule", broken)
    workload = IntraBaselines(7, tiny=True)
    workload.setup(tmp_path)
    result = workload.run_pass()
    coflows = len(workload.ops) // 2
    assert result.attempted == 2 * coflows
    assert result.failed == coflows
    assert "RuntimeError" in result.problems[0]


def test_default_seed_inputs_are_the_trace_specs():
    shape = TraceShape(20, 30, max_width=6)
    for base in BASE_SEEDS:
        ours = paper_trace(shape, base, base)
        spec = TraceSpec(num_ports=20, num_coflows=30, max_width=6, seed=base, perturb=0.05)
        theirs = spec.load().sorted_by_arrival()
        assert [(c.coflow_id, c.arrival_time, c.flows) for c in ours] == [
            (c.coflow_id, c.arrival_time, c.flows) for c in theirs
        ]


def test_outputs_repeat_exactly(tmp_path):
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name](11, tiny=True)
        workload.setup(tmp_path)
        try:
            first, second = workload.run_pass(), workload.run_pass()
        finally:
            workload.close()
        assert first.digest == second.digest
