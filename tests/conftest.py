"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.coflow import Coflow, CoflowTrace, Flow
from repro.units import GBPS, MB, MS
from repro.workloads import FacebookLikeTraceGenerator, GeneratorConfig, perturb_sizes


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def figure1_coflow() -> Coflow:
    """The many-to-many Coflow of Figure 1 (5 senders, 2 receivers)."""
    demand = {
        (0, 5): 100 * MB,
        (1, 6): 40 * MB,
        (2, 5): 50 * MB,
        (2, 6): 80 * MB,
        (3, 6): 30 * MB,
        (4, 5): 20 * MB,
        (4, 6): 60 * MB,
    }
    return Coflow.from_demand(1, demand)


@pytest.fixture
def small_trace() -> CoflowTrace:
    """A deterministic 24-Coflow Facebook-like trace on 20 ports."""
    config = GeneratorConfig(
        num_ports=20, num_coflows=24, max_width=8, mean_interarrival=2.0, seed=7
    )
    return perturb_sizes(FacebookLikeTraceGenerator(config).generate(), seed=7)


@pytest.fixture
def native_absent(monkeypatch):
    """The backend resolver sees no compiled extension, with a fresh memo
    and its once-per-process fallback warning not yet issued."""
    from repro import backend

    monkeypatch.setattr(backend, "_probe", lambda: None)
    monkeypatch.setattr(backend, "_resolved", {})
    monkeypatch.setattr(backend, "_warned", False)


@pytest.fixture
def default_network() -> dict:
    """The paper's default network: B = 1 Gbps, δ = 10 ms."""
    return {"bandwidth_bps": 1 * GBPS, "delta": 10 * MS}


def random_demand(
    rng: random.Random,
    num_ports: int = 6,
    max_flows: int = 10,
    max_seconds: float = 2.0,
) -> dict:
    """A random sparse demand-time mapping for property tests."""
    demand = {}
    for _ in range(rng.randint(1, max_flows)):
        src = rng.randrange(num_ports)
        dst = rng.randrange(num_ports)
        demand[(src, dst)] = rng.uniform(1e-4, max_seconds)
    return demand


def make_coflow(demand_bytes: dict, coflow_id: int = 1, arrival: float = 0.0) -> Coflow:
    """Shorthand Coflow builder from a ``{(src, dst): bytes}`` mapping."""
    return Coflow.from_demand(coflow_id, demand_bytes, arrival_time=arrival)
