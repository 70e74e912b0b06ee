"""Shared fixtures for the evaluation benchmarks.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper (see DESIGN.md's per-experiment index).  Each bench prints the rows
the paper reports — "paper" column vs "measured" column — and times the
underlying computation via pytest-benchmark.

Two profiles:

* **quick** (default): a 200-Coflow, width-≤40 Facebook-like trace on the
  paper's 150-port fabric.  The whole suite completes in a few minutes.
* **paper scale**: set ``REPRO_FULL=1`` for the full 526-Coflow trace with
  unbounded widths (slower, closest to the published setup).

Individual knobs: ``REPRO_TRACE_COFLOWS``, ``REPRO_TRACE_MAX_WIDTH``,
``REPRO_TRACE_SEED``.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

# Benches that time a pure-Python oracle import it from ``tests/oracles``.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.sim import (
    simulate_inter_sunflow,
    simulate_intra_assignment,
    simulate_intra_sunflow,
)
from repro.schedulers import SolsticeScheduler
from repro.units import GBPS, MS
from repro.workloads import (
    FacebookLikeTraceGenerator,
    GeneratorConfig,
    perturb_sizes,
)

#: The paper's default network settings.
BANDWIDTH = 1 * GBPS
DELTA = 10 * MS


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


FULL = os.environ.get("REPRO_FULL") == "1"
NUM_COFLOWS = _env_int("REPRO_TRACE_COFLOWS", 526 if FULL else 200)
MAX_WIDTH = (
    None if FULL else _env_int("REPRO_TRACE_MAX_WIDTH", 40)
)
SEED = _env_int("REPRO_TRACE_SEED", 2016)


@pytest.fixture(scope="session")
def trace():
    """The evaluation workload: Facebook-like trace with ±5 % perturbation."""
    config = GeneratorConfig(
        num_ports=150,
        num_coflows=NUM_COFLOWS,
        max_width=MAX_WIDTH,
        seed=SEED,
    )
    generated = FacebookLikeTraceGenerator(config).generate()
    return perturb_sizes(generated, fraction=0.05, seed=SEED)


@pytest.fixture(scope="session")
def report_cache():
    """Memo for expensive simulation reports shared across bench files."""
    return {}


@pytest.fixture(scope="session")
def sunflow_intra_1g(trace, report_cache):
    key = ("sunflow-intra", BANDWIDTH, DELTA)
    if key not in report_cache:
        report_cache[key] = simulate_intra_sunflow(trace, BANDWIDTH, DELTA)
    return report_cache[key]


@pytest.fixture(scope="session")
def solstice_intra_1g(trace, report_cache):
    key = ("solstice-intra", BANDWIDTH, DELTA)
    if key not in report_cache:
        report_cache[key] = simulate_intra_assignment(
            trace, SolsticeScheduler(), BANDWIDTH, DELTA
        )
    return report_cache[key]


@pytest.fixture(scope="session")
def sunflow_inter_1g(trace, report_cache):
    key = ("sunflow-inter", BANDWIDTH, DELTA)
    if key not in report_cache:
        report_cache[key] = simulate_inter_sunflow(trace, BANDWIDTH, DELTA)
    return report_cache[key]




def pytest_terminal_summary(terminalreporter):
    """Flush the paper-vs-measured rows after the run and save a copy."""
    import _utils

    if not _utils.LINES:
        return
    for line in _utils.LINES:
        terminalreporter.write_line(line)
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "latest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(_utils.LINES) + "\n")
    terminalreporter.write_line("")
    terminalreporter.write_line(
        "(rows saved to benchmarks/results/latest.txt)"
    )
