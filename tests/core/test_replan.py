"""Tests for the inter-Coflow replan step (:mod:`repro.core.replan`)."""

import pytest

from repro.backend import use_backend
from repro.core.coflow import Coflow
from repro.core.demand import PackedDemand
from repro.core.replan import ActiveCoflow, InterCoflowPlanner
from repro.core.sunflow import SunflowScheduler, native_planner_available
from repro.units import MB

DELTA = 0.01

BACKENDS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_planner_available(), reason="repro._native is not built"
        ),
    ),
]


def active_coflow(coflow_id, demand):
    """An admitted Coflow holding ``demand`` (seconds) as its remaining."""
    return ActiveCoflow(
        coflow=Coflow.from_demand(coflow_id, {circuit: 1 * MB for circuit in demand}),
        remaining=PackedDemand(demand),
    )


class TestReplanOrder:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_orders_by_the_demand_held_now(self, backend):
        """Shortest-first reads each Coflow's remaining demand at the
        replan, including a value the host wrote in place since the last
        one."""
        # Both Coflows share input port 0, so the one ordered first
        # starts at the replan instant and the other waits.
        active = {
            1: active_coflow(1, {(0, 1): 1.0}),
            2: active_coflow(2, {(0, 2): 5.0}),
        }
        with use_backend(backend):
            planner = InterCoflowPlanner(SunflowScheduler(delta=DELTA))
            first = planner.plan(active, 0.0)
            assert first[1].reservations[0].start == 0.0
            assert first[2].reservations[0].start > 1.0

            active[2].remaining[(0, 2)] = 0.5
            second = planner.plan(active, 1.0)
        assert second[2].reservations[0].start == 1.0
        assert second[1].reservations[0].start > 1.5
