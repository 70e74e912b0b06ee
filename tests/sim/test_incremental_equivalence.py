"""Equivalence of the incremental and full inter-Coflow replanners.

The incremental replanner (prefix reuse over a persistent layered PRT)
must be an *optimization only*: for every trace, policy, consideration
order, and guard setting, its per-Coflow completion times and switching
counts must equal the full-replan path bit-for-bit.  These tests replay
randomized Facebook-like traces through both paths and compare records
exactly (no ``approx``), pin a few replays to fixed record digests, and
fuzz the event-driven ``schedule_demand`` against the literal
Algorithm 1 transcription on dense demands.
"""

import hashlib
import random

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.multicore import uniform_cores
from repro.core.prt import PortReservationTable
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import ReservationOrder
from repro.perf import PerfCounters
from repro.sim.circuit_sim import InterCoflowSimulator
from repro.sim.multicore_sim import simulate_inter_multicore
from repro.units import GBPS, MB, MS
from repro.workloads.synthetic import FacebookLikeTraceGenerator, GeneratorConfig
from tests.oracles.sunflow_reference import ReferenceSunflowScheduler

B = 1 * GBPS
DELTA = 10 * MS

#: SHA-256 of ``repr`` of the id-sorted ``(coflow_id,
#: completion_time.hex(), switching_count)`` rows of a 60-Coflow,
#: 40-port replay, keyed ``"<seed>-<incremental|full|k2>"``.
PINNED_DIGESTS = {
    "2016-incremental": "a3f41b081deafaefb2493a04f53510fa8c9e17786540a38d1bb8b4bb73cb0231",
    "2016-full": "a3f41b081deafaefb2493a04f53510fa8c9e17786540a38d1bb8b4bb73cb0231",
    "3-incremental": "4807f519d88c49d9afa4573c479c4d2e8732385aa50561897ba080720fc51e07",
    "2016-k2": "dd689b1aea147660b0d2c8e6b4d00581baf1cd1f85e0c0ae571852eece4a0c2f",
}


def make_trace(num_coflows, seed, num_ports=60, max_width=12):
    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )
    return FacebookLikeTraceGenerator(config).generate()


def replay(trace, incremental, order=ReservationOrder.ORDERED_PORT, guard=None):
    perf = PerfCounters()
    simulator = InterCoflowSimulator(
        trace,
        incremental=incremental,
        perf=perf,
        order=order,
        guard=guard,
        rng=random.Random(4),
    )
    report = simulator.run()
    return report, perf


def record_keys(report):
    """Exact (not approximate) per-Coflow outcome, sorted by id."""
    return sorted(
        (r.coflow_id, r.completion_time, r.switching_count) for r in report.records
    )


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2016])
    def test_matches_full_replan(self, seed):
        """Byte-identical records on randomized traces."""
        trace = make_trace(80, seed)
        fast, _ = replay(trace, incremental=True)
        full, _ = replay(trace, incremental=False)
        assert record_keys(fast) == record_keys(full)

    @pytest.mark.parametrize("order", list(ReservationOrder))
    def test_matches_under_every_consideration_order(self, order):
        trace = make_trace(60, seed=13)
        fast, _ = replay(trace, incremental=True, order=order)
        full, _ = replay(trace, incremental=False, order=order)
        assert record_keys(fast) == record_keys(full)

    def test_matches_with_starvation_guard(self):
        """Guarded runs fall back to the full path; results stay identical
        whichever way the simulator is configured."""
        rng = random.Random(3)
        coflows = []
        for cid in range(1, 9):
            demand = {}
            for _ in range(rng.randrange(1, 4)):
                demand[(rng.randrange(6), rng.randrange(6))] = (
                    rng.uniform(1, 30) * MB
                )
            coflows.append(
                Coflow.from_demand(cid, demand, arrival_time=rng.uniform(0, 2))
            )
        trace = CoflowTrace(num_ports=6, coflows=coflows)
        guard = StarvationGuard(num_ports=6, period=0.5, tau=0.1, delta=DELTA)
        fast, _ = replay(trace, incremental=True, guard=guard)
        full, _ = replay(trace, incremental=False, guard=guard)
        assert record_keys(fast) == record_keys(full)

    def test_matches_on_shared_circuit(self):
        """Six Coflows queued on one circuit are served strictly one at a
        time; at every completion the queued tail sees the occupancy it
        saw at the previous event, only later."""
        coflows = [
            Coflow.from_demand(cid, {(0, 1): 10 * MB}, arrival_time=0.0)
            for cid in range(1, 7)
        ]
        trace = CoflowTrace(num_ports=2, coflows=coflows)
        fast, _ = replay(trace, incremental=True)
        full, _ = replay(trace, incremental=False)
        assert record_keys(fast) == record_keys(full)
        completions = [time for _, time, _ in record_keys(full)]
        assert completions == sorted(set(completions))

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_records_match_pinned_digest(self, case):
        """Replays pinned bit-for-bit: a change to any reuse path of the
        replanner must leave every completion time and switching count
        exactly as the pinned digest records them."""
        seed, mode = case.split("-")
        trace = make_trace(60, int(seed), num_ports=40, max_width=10)
        if mode == "k2":
            report = simulate_inter_multicore(trace, uniform_cores(2))
        else:
            report, _ = replay(trace, incremental=mode == "incremental")
        rows = [
            (r.coflow_id, r.completion_time.hex(), r.switching_count)
            for r in sorted(report.records, key=lambda r: r.coflow_id)
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_DIGESTS[case]

    def test_incremental_reuses_plans(self):
        """The counters prove the incremental path actually skips work on a
        trace known to keep/reuse plan layers (and the full path never
        does)."""
        config = GeneratorConfig(num_ports=150, num_coflows=250, seed=5)
        trace = FacebookLikeTraceGenerator(config).generate()
        fast, perf = replay(trace, incremental=True)
        full, full_perf = replay(trace, incremental=False)
        assert record_keys(fast) == record_keys(full)
        assert perf.count("replans_avoided") > 0
        assert perf.count("plans_kept") > 0
        # Served Coflows are carried forward by the continuation transform
        # instead of being recomputed every event.
        assert perf.count("plans_transformed") > 0
        assert perf.count("plans_computed") < full_perf.count("plans_computed")
        assert full_perf.count("replans_avoided") == 0
        assert full_perf.count("full_replans") == perf.count("incremental_replans")


class TestScheduleDemandDense:
    """Fuzz the event-driven scheduler against the literal Algorithm 1
    transcription on dense 150-port demands (the regime the per-port
    waiting queues were built for)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_matches_reference(self, seed):
        rng = random.Random(seed)
        num_ports = 150
        demand = {}
        while len(demand) < 400:
            circuit = (rng.randrange(num_ports), rng.randrange(num_ports))
            demand[circuit] = rng.uniform(0.01, 0.5)
        scheduler = ReferenceSunflowScheduler(delta=DELTA)
        fast_prt, slow_prt = PortReservationTable(), PortReservationTable()
        fast = scheduler.schedule_demand(fast_prt, 1, demand)
        slow = scheduler.schedule_demand_reference(slow_prt, 1, demand)
        fast_keys = [(r.start, r.end, r.src, r.dst, r.setup) for r in fast.reservations]
        slow_keys = [(r.start, r.end, r.src, r.dst, r.setup) for r in slow.reservations]
        assert sorted(fast_keys) == sorted(slow_keys)

    def test_dense_matches_reference_with_contention(self):
        """Same check against a PRT pre-loaded by a higher-priority Coflow,
        so entries hit the covered / too-small-gap / truncation paths."""
        rng = random.Random(9)
        num_ports = 40
        scheduler = ReferenceSunflowScheduler(delta=DELTA)
        high = {}
        while len(high) < 60:
            circuit = (rng.randrange(num_ports), rng.randrange(num_ports))
            high[circuit] = rng.uniform(0.05, 0.4)
        low = {}
        while len(low) < 120:
            circuit = (rng.randrange(num_ports), rng.randrange(num_ports))
            low[circuit] = rng.uniform(0.01, 0.3)
        fast_prt, slow_prt = PortReservationTable(), PortReservationTable()
        for prt in (fast_prt, slow_prt):
            scheduler.schedule_demand(prt, 1, high)
        fast = scheduler.schedule_demand(fast_prt, 2, low)
        slow = scheduler.schedule_demand_reference(slow_prt, 2, low)
        fast_keys = [(r.start, r.end, r.src, r.dst, r.setup) for r in fast.reservations]
        slow_keys = [(r.start, r.end, r.src, r.dst, r.setup) for r in slow.reservations]
        assert sorted(fast_keys) == sorted(slow_keys)


def test_replay_smoke_benchmark():
    """Fast end-to-end smoke of the benchmark entry point: a small replay
    through ``repro.perf.replay_bench`` finishes quickly and reports zero
    mismatches between the two replanner modes."""
    from repro.perf.replay_bench import run_trace_replay

    result = run_trace_replay(num_coflows=60, num_ports=60, max_width=10, seed=2016)
    assert result["bench"] == "trace_replay"
    assert result["coflows"] == 60
    assert result["events"] > 0
    assert result["wall_s"] > 0
    assert result["mismatches"] == 0
    assert result["plans_kept_per_computed"] is not None
