"""§6 extensions ablation — quantized scheduling and hybrid offload.

The paper's Discussion sketches two engineering levers this repo
implements and quantifies:

* **Quantization** — round subflow processing times up to a grid to prune
  circuit-release events.  We measure the planning-time saving and the
  CCT cost as the quantum grows.
* **Hybrid offload** — carry small flows on a parallel low-rate packet
  network (REACToR).  Offload pays only when ``p < δ·φ/(1-φ)``; with the
  default 10 ms 3D-MEMS switch and ≥1 MB flows, keeping everything
  optical wins — worth knowing before provisioning a packet overlay.
"""

import time

import pytest

from repro.core.prt import PortReservationTable
from repro.core.sunflow import SunflowScheduler
from repro.sim import (
    HybridConfig,
    mean,
    simulate_intra_hybrid,
    simulate_intra_sunflow,
)
from repro.units import MB, MS
from tests.oracles.sunflow_reference import ReferenceSunflowScheduler

from _utils import emit, header, run_once
from conftest import BANDWIDTH, DELTA


def test_ablation_quantization(benchmark):
    """Quantization speeds up the *literal* Algorithm 1 (the paper's
    suggestion: coincident release times prune the rescan loop); the
    event-driven planner in this library is faster than the literal loop
    without any approximation, so both are measured on a dense 30×30
    Coflow.  The quantum lives on the literal-loop oracle, and the CCT
    cost is that of the literal schedule."""
    import random

    rng = random.Random(1)
    demand = {(i, j): rng.uniform(0.05, 2.0) for i in range(30) for j in range(30)}

    def compute():
        start = time.perf_counter()
        SunflowScheduler(delta=DELTA).schedule_demand(PortReservationTable(), 1, dict(demand))
        fast_time = time.perf_counter() - start
        rows = []
        for quantum in (None, 100 * MS, 500 * MS):
            scheduler = ReferenceSunflowScheduler(delta=DELTA, quantum=quantum)
            start = time.perf_counter()
            literal = scheduler.schedule_demand_reference(
                PortReservationTable(), 1, dict(demand)
            )
            literal_time = time.perf_counter() - start
            rows.append((quantum, literal_time, literal.makespan))
        return fast_time, rows

    fast_time, rows = run_once(benchmark, compute)
    exact_literal, exact_cct = rows[0][1], rows[0][2]

    header("§6 ablation: quantized scheduling (dense 900-flow Coflow)")
    emit(f"{'quantum':>9} {'literal alg.1':>14} {'speedup':>8} {'CCT cost':>9}")
    for quantum, literal_time, makespan in rows:
        label = "exact" if quantum is None else f"{quantum * 1000:.0f}ms"
        emit(
            f"{label:>9} {literal_time:>13.3f}s {exact_literal / literal_time:>7.1f}x "
            f"{makespan / exact_cct:>8.3f}x"
        )
    emit(f"event-driven Algorithm 1, exact: {fast_time:.3f}s")
    emit()
    emit("coarser grids prune the literal loop's release events; the")
    emit("event-driven scheduler needs no approximation to stay fast.")

    # Quantization accelerates the literal transcription and can only
    # lengthen the schedule.
    assert rows[-1][1] < exact_literal
    assert all(makespan >= exact_cct - 1e-9 for _, _, makespan in rows)
    # The event-driven planner beats the literal loop even unquantized.
    assert fast_time < exact_literal


def test_ablation_hybrid_offload(benchmark, trace, sunflow_intra_1g):
    def compute():
        rows = []
        for threshold_mb, fraction in ((0, 0.1), (2, 0.1), (10, 0.1), (10, 0.25)):
            config = HybridConfig(
                size_threshold_bytes=threshold_mb * MB,
                packet_bandwidth_fraction=fraction,
            )
            report = simulate_intra_hybrid(trace, config, BANDWIDTH, DELTA)
            rows.append((threshold_mb, fraction, report.average_cct()))
        return rows

    rows = run_once(benchmark, compute)
    pure_cct = rows[0][2]

    header("§6 ablation: hybrid small-flow offload (intra mode)")
    emit(f"{'threshold':>10} {'pkt rate':>9} {'avg CCT':>9} {'vs pure':>8}")
    for threshold_mb, fraction, avg_cct in rows:
        emit(
            f"{threshold_mb:>8}MB {fraction * 100:>8.0f}% {avg_cct:>8.2f}s "
            f"{avg_cct / pure_cct:>7.3f}x"
        )
    emit()
    emit("offload pays only for flows with p < δ·φ/(1-φ) ≈ "
         f"{DELTA * 0.1 / 0.9 * BANDWIDTH / 8 / MB:.2f} MB at 10% rate —")
    emit("below the trace's 1 MB floor, so the pure OCS wins at δ = 10 ms.")

    # The zero-threshold row is exactly pure Sunflow.
    assert rows[0][2] == pytest.approx(sunflow_intra_1g.average_cct(), rel=1e-9)
