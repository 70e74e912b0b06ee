"""Replays pinned to the records of the retired incremental replanner.

The simulator once had two inter-Coflow replan paths: an incremental one
(prefix reuse over a persistent layered PRT) and the full replan it had
to match bit for bit.  Only the full replan remains.  The digests below
were recorded from both paths before the incremental one was deleted —
for every case the two agreed — so the surviving path must reproduce
every completion time, switching count and event time exactly (no
``approx``).  The module also fuzzes the event-driven ``schedule_demand``
against the literal Algorithm 1 transcription on dense demands.
"""

import hashlib
import random

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.multicore import uniform_cores
from repro.core.prt import PortReservationTable
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import ReservationOrder
from repro.perf.replay_bench import records_sha256
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

#: :func:`~repro.perf.replay_bench.records_sha256` of each replay below
#: (records plus event times), recorded from both retired replan paths.
FULL_REPLAN_DIGESTS = {
    1: "44059b4be3e59e1d676e2914e850af73aa450a71245ff1f5356f989aa20ad587",
    7: "98cc520017672a240c2e02bc5a4632feac2ec629031c9d20dfeb05460dabf4cb",
    42: "25ec4b08f3127de3e9b9a4a28904481dd8800bfa4648b16bc62844b7c38862ad",
    2016: "c34f494c1996606be4656dd304ae107d54b9eb8791521ea160724e28aa2daff0",
}
ORDER_DIGESTS = {
    ReservationOrder.ORDERED_PORT: "148048de7e76c24e549728845beed99e850c3a6afcd38958cb8d5090435bae75",
    ReservationOrder.RANDOM: "8f236cdbd2f89ec47bed0d69bbdd5a30b44bc673dc7db5f4371def70871ff53d",
    ReservationOrder.SORTED_DEMAND: "d42e30ef9f1a7b90a92601eca60931696c13b6826d10aa25dd140597652a1b9a",
}
GUARD_DIGEST = "24f1631a2e306a0fc3cdc3e7a680696570e5e2771bc9e060d2f7fa619536f42b"
SHARED_CIRCUIT_DIGEST = "a9de61309c918ad74d058982fe384db15a0d15b2a317dbbc3574a30e311ad414"
SMOKE_BENCH_DIGEST = "04848a9174be6ff5080b6c9044b93b4310374ca02f0d5add647ae29b5f014d1e"


def make_trace(num_coflows, seed, num_ports=60, max_width=12):
    config = GeneratorConfig(
        num_ports=num_ports,
        num_coflows=num_coflows,
        max_width=max_width,
        seed=seed,
    )
    return FacebookLikeTraceGenerator(config).generate()


def replay(trace, order=ReservationOrder.ORDERED_PORT, guard=None):
    """Replay ``trace``; returns the report and its records digest."""
    simulator = InterCoflowSimulator(
        trace, order=order, guard=guard, rng=random.Random(4)
    )
    report = simulator.run()
    return report, records_sha256(report.records, simulator.event_times)


class TestIncrementalEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 42, 2016])
    def test_matches_full_replan(self, seed):
        """Byte-identical records on randomized traces."""
        _, digest = replay(make_trace(80, seed))
        assert digest == FULL_REPLAN_DIGESTS[seed]

    @pytest.mark.parametrize("order", list(ReservationOrder))
    def test_matches_under_every_consideration_order(self, order):
        _, digest = replay(make_trace(60, seed=13), order=order)
        assert digest == ORDER_DIGESTS[order]

    def test_matches_with_starvation_guard(self):
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
        _, digest = replay(trace, guard=guard)
        assert digest == GUARD_DIGEST

    def test_matches_on_shared_circuit(self):
        """Six Coflows queued on one circuit are served strictly one at a
        time; at every completion the queued tail sees the occupancy it
        saw at the previous event, only later."""
        coflows = [
            Coflow.from_demand(cid, {(0, 1): 10 * MB}, arrival_time=0.0)
            for cid in range(1, 7)
        ]
        trace = CoflowTrace(num_ports=2, coflows=coflows)
        report, digest = replay(trace)
        assert digest == SHARED_CIRCUIT_DIGEST
        completions = [
            r.completion_time for r in sorted(report.records, key=lambda r: r.coflow_id)
        ]
        assert completions == sorted(set(completions))

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_records_match_pinned_digest(self, case):
        """Replays pinned bit-for-bit: every completion time and switching
        count stays exactly as the pinned digest records them, whichever
        retired replan path recorded it."""
        seed, mode = case.split("-")
        trace = make_trace(60, int(seed), num_ports=40, max_width=10)
        if mode == "k2":
            report = simulate_inter_multicore(trace, uniform_cores(2))
        else:
            report, _ = replay(trace)
        rows = [
            (r.coflow_id, r.completion_time.hex(), r.switching_count)
            for r in sorted(report.records, key=lambda r: r.coflow_id)
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_DIGESTS[case]


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
    through ``repro.perf.replay_bench`` finishes quickly and fingerprints
    the records both retired replan paths produced."""
    from repro.perf.replay_bench import run_trace_replay

    result = run_trace_replay(num_coflows=60, num_ports=60, max_width=10, seed=2016)
    assert result["bench"] == "trace_replay"
    assert result["coflows"] == 60
    assert result["events"] > 0
    assert result["wall_s"] > 0
    assert result["records_sha256"] == SMOKE_BENCH_DIGEST
    assert set(result["plan_phases_s"]) == {"plan.order", "plan.pack", "plan.kernel"}
