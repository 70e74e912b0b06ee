"""K-core fabric benchmark: CCT-vs-lower-bound sweeps over K.

Replays a synthetic Facebook-like trace over ``K ∈ {1, 2, 4, 8}`` switch
cores in both service modes (Fig-6-style intra, Fig-10-style inter) and
reports, per cell, the mean CCT normalized by the K-core circuit lower
bound (:func:`repro.core.bounds.multicore_circuit_lower_bound`).

A differential check rides along and feeds a ``differential_mismatches``
count that must come out zero: ``K = 1`` must reproduce the
single-switch replay **bitwise** (records and event times) for every
placement policy, in both modes.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

__all__ = ["run_multicore_sweep"]

#: Inter-mode placement policies swept by the bench ("first-fit" is
#: intra-only: it spreads individual flows, not whole Coflows).
INTER_POLICIES = ("ok-approx", "balanced-split")
INTRA_POLICIES = ("first-fit", "ok-approx", "balanced-split")


def run_multicore_sweep(
    num_coflows: int = 200,
    num_ports: int = 150,
    max_width: Optional[int] = 40,
    seed: int = 2016,
    cores_list: Sequence[int] = (1, 2, 4, 8),
) -> Dict[str, Any]:
    """Run the K-core sweep; returns a JSON-ready result dict.

    Args:
        num_coflows: trace length (200 keeps the 8-core cell tractable).
        num_ports: switch radix (the paper's fabric has 150 ports).
        max_width: cap on Coflow width, ``None`` for unbounded.
        seed: trace generator seed.
        cores_list: fabric widths to sweep.

    Returns:
        ``{"bench": "multicore", "wall_s": ..., "differential_mismatches":
        ..., "cells": [...]}`` — one cell per (mode, policy, K) with the
        mean CCT and its ratio to the K-core circuit lower bound.
    """
    # Imported here so ``repro.perf`` stays importable without the
    # simulation stack.
    from repro.core.bounds import multicore_circuit_lower_bound
    from repro.core.multicore import uniform_cores
    from repro.sim.circuit_sim import InterCoflowSimulator, simulate_intra_sunflow
    from repro.sim.multicore_sim import MultiCoreInterSimulator, simulate_intra_multicore
    from repro.units import DEFAULT_BANDWIDTH, DEFAULT_DELTA
    from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig

    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )
    trace = FacebookLikeTraceGenerator(config).generate()
    bandwidth, delta = DEFAULT_BANDWIDTH, DEFAULT_DELTA
    mismatches = 0
    cells = []
    started = time.perf_counter()

    def bound_ratio(report, num_cores: int) -> Optional[float]:
        # Mean of per-Coflow CCT / T^c_L(K); Coflows whose bound is zero
        # (no demand) are excluded rather than divided by.
        bounds = {
            c.coflow_id: multicore_circuit_lower_bound(
                c, [bandwidth] * num_cores, [delta] * num_cores
            )
            for c in trace
        }
        ratios = [
            (r.completion_time - r.arrival_time) / bounds[r.coflow_id]
            for r in report.records
            if bounds[r.coflow_id] > 0
        ]
        return sum(ratios) / len(ratios) if ratios else None

    def mean_cct(report) -> float:
        return sum(
            r.completion_time - r.arrival_time for r in report.records
        ) / len(report.records)

    # Single-switch references for the K = 1 bitwise differential.
    reference_inter = InterCoflowSimulator(
        trace, bandwidth_bps=bandwidth, delta=delta
    )
    reference_inter_report = reference_inter.run()
    reference_intra_report = simulate_intra_sunflow(trace, bandwidth, delta)

    for num_cores in cores_list:
        cores = uniform_cores(num_cores, bandwidth, delta)

        for policy in INTER_POLICIES:
            simulator = MultiCoreInterSimulator(
                trace, cores, multicore_policy=policy
            )
            t0 = time.perf_counter()
            report = simulator.run()
            wall = time.perf_counter() - t0
            k1_bitwise = None
            if num_cores == 1:
                k1_bitwise = (
                    simulator.event_times == reference_inter.event_times
                    and report.records == reference_inter_report.records
                )
                if not k1_bitwise:
                    mismatches += 1
            cells.append(
                {
                    "mode": "inter",
                    "policy": policy,
                    "num_cores": num_cores,
                    "wall_s": wall,
                    "mean_cct_s": mean_cct(report),
                    "cct_vs_circuit_bound": bound_ratio(report, num_cores),
                    "k1_bitwise": k1_bitwise,
                }
            )

        for policy in INTRA_POLICIES:
            t0 = time.perf_counter()
            report = simulate_intra_multicore(
                trace, cores, multicore_policy=policy
            )
            wall = time.perf_counter() - t0
            k1_bitwise = None
            if num_cores == 1:
                k1_bitwise = report.records == reference_intra_report.records
                if not k1_bitwise:
                    mismatches += 1
            cells.append(
                {
                    "mode": "intra",
                    "policy": policy,
                    "num_cores": num_cores,
                    "wall_s": wall,
                    "mean_cct_s": mean_cct(report),
                    "cct_vs_circuit_bound": bound_ratio(report, num_cores),
                    "k1_bitwise": k1_bitwise,
                }
            )

    return {
        "bench": "multicore",
        "wall_s": time.perf_counter() - started,
        "config": {
            "num_coflows": num_coflows,
            "num_ports": num_ports,
            "max_width": max_width,
            "seed": seed,
            "cores": list(cores_list),
            "bandwidth_bps": bandwidth,
            "delta": delta,
        },
        "differential_mismatches": mismatches,
        "cells": cells,
    }
