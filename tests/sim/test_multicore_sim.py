"""Differential tests for the K-core replay (``repro.sim.multicore_sim``).

The load-bearing guarantees:

* ``K = 1`` reproduces the single-switch replay **bitwise** — same
  records, same event times — for every placement policy;
* at any ``K``, the replay reproduces the records and event times that
  the retired incremental and full replan paths both produced (pinned
  as digests recorded before the incremental path was deleted).
"""

import os
import random

import pytest

from repro.core.coflow import Coflow, CoflowTrace
from repro.core.multicore import uniform_cores
from repro.core.policies import Fifo
from repro.perf.replay_bench import records_sha256
from repro.sim.circuit_sim import (
    InterCoflowSimulator,
    simulate_intra_sunflow,
)
from repro.sim.multicore_sim import (
    MultiCoreInterSimulator,
    simulate_inter_multicore,
    simulate_intra_multicore,
)
from repro.units import GBPS, MB, MS

B = 1 * GBPS
DELTA = 10 * MS


def _random_trace(seed, num_ports=10, num_coflows=25):
    rng = random.Random(seed)
    coflows = []
    for cid in range(num_coflows):
        demand = {}
        for _ in range(rng.randint(1, 5)):
            circuit = (rng.randrange(num_ports), rng.randrange(num_ports))
            demand[circuit] = demand.get(circuit, 0.0) + rng.uniform(
                0.1 * MB, 60 * MB
            )
        coflows.append(
            Coflow.from_demand(cid, demand, arrival_time=rng.uniform(0.0, 1.5))
        )
    return CoflowTrace(num_ports, coflows)


TRACE = _random_trace(7)

#: :func:`~repro.perf.replay_bench.records_sha256` digests (records plus
#: event times) recorded from both retired replan paths, which agreed on
#: every case.  K = 1 replays of ``TRACE``, keyed ``(policy, incremental)``
#: by the path that recorded them:
K1_DIGESTS = {
    ("ok-approx", True): "867a4373b480ac4cd39d3ff826061d73662d8cf960d6500270254138d58ecee0",
    ("ok-approx", False): "867a4373b480ac4cd39d3ff826061d73662d8cf960d6500270254138d58ecee0",
    ("balanced-split", True): "867a4373b480ac4cd39d3ff826061d73662d8cf960d6500270254138d58ecee0",
    ("balanced-split", False): "867a4373b480ac4cd39d3ff826061d73662d8cf960d6500270254138d58ecee0",
}
#: K > 1 replays of ``TRACE``, keyed ``(policy, K)``:
MULTICORE_DIGESTS = {
    ("ok-approx", 2): "15de2b3032622ee997ec379a60bdbfc16f361c1a2b3528e6be984580132b4c53",
    ("ok-approx", 4): "c3e7a01079631f1e3826eaed07a6a14f43eb434139118d742791f44dbb9a0161",
    ("balanced-split", 2): "fcf3b80a04916887dd51452b5671fd2260617be9a248f5671609953e189e6ae1",
    ("balanced-split", 4): "1ce9f20b82e9615df90442bd33d4f68b60265b89ba3c193d4386dc8abde327c7",
}
#: Small skewed traces at every K, keyed ``(trace seed, K, policy)``:
FUZZ_DIGESTS = {
    (1, 1, "ok-approx"): "d5589fc3ebc7dbf4fe9feae94dca4d3feedf864e1dc7d063a459dadc7dd5ff57",
    (614, 2, "ok-approx"): "4d93f35995119161a0d380853172751d03ebef8c76ef4434863c9b0c86de4acc",
    (1227, 3, "ok-approx"): "0e0c9caa2672392bda1cdafa8882965ba3e9da6a9c0dd7426be70740b39d7823",
    (1840, 4, "ok-approx"): "ae424a385eb4a075f43664637312df778100d16d2e470802ce4b2d0e97334075",
    (2453, 1, "balanced-split"): "fb37e50c7c360f0ad4b9932712bdbfc8b283f6c676637f75851bbff45b43c920",
    (3066, 2, "balanced-split"): "fca1f2faa5b5b7ad0812d099b83288ea4ff09d5b6d8922a33cb6aaff13426e12",
    (3679, 3, "balanced-split"): "bb8abcb25a206f7b7173cc7ff6706faf11375acd82c60c32ef4471a58fe49f7f",
    (4292, 4, "balanced-split"): "41593434be68be69a3856197a7df783bd9aa88d2650a3f023e1b7f1d521f4d38",
    (4905, 1, "ok-approx"): "2d1f87af154c30bfead1f50a29c4cc4067cf94dfc02b9e2483e828b610ff5dc2",
    (5518, 2, "ok-approx"): "541a86dc1fd25493e5c3a7eeee9bd25a4a30503670f86850aecfe54c2bcc9adb",
    (6131, 3, "ok-approx"): "da1a4f1e0bf28b6ef757be624e1f05005facc447f7f33aafab309e3a4afea518",
    (6744, 4, "ok-approx"): "5dc82242b1ecb12a517141152f06ccd16b0b8488fd62e524fcfdc7fa4c0e5761",
    (7357, 1, "balanced-split"): "f0c7e04425014e2ea6bead2c07cc0705e9c9c71568bcbe831b6778d85a2e88a4",
    (7970, 2, "balanced-split"): "8986819d036a09980229cd8c0693c7e56ab525a22e50eccb7f09699766bb2322",
    (8583, 3, "balanced-split"): "363c9ed3aa2b2b93a8078b126da7feb9a9af760fbd8559e7c77cab880852d100",
    (9196, 4, "balanced-split"): "b1fb4266d20d4fdfb6ba92b3913cea0d353e5f8ecf1d40654045316bdae2070f",
}


class TestSingleCoreBitwise:
    @pytest.mark.parametrize("incremental", [True, False])
    @pytest.mark.parametrize("policy", ["ok-approx", "balanced-split"])
    def test_k1_inter_matches_single_switch(self, incremental, policy):
        reference = InterCoflowSimulator(TRACE, bandwidth_bps=B, delta=DELTA)
        expected = reference.run()
        simulator = MultiCoreInterSimulator(
            TRACE, uniform_cores(1, B, DELTA), multicore_policy=policy
        )
        got = simulator.run()
        assert simulator.event_times == reference.event_times
        assert got.records == expected.records
        assert (
            records_sha256(got.records, simulator.event_times)
            == K1_DIGESTS[(policy, incremental)]
        )

    def test_k1_inter_matches_with_priority_policy(self):
        expected = InterCoflowSimulator(
            TRACE, bandwidth_bps=B, delta=DELTA, policy=Fifo()
        ).run()
        got = simulate_inter_multicore(
            TRACE, uniform_cores(1, B, DELTA), policy=Fifo()
        )
        assert got.records == expected.records

    def test_k1_intra_matches_single_switch(self):
        expected = simulate_intra_sunflow(TRACE, B, DELTA)
        got = simulate_intra_multicore(TRACE, uniform_cores(1, B, DELTA))
        assert got.records == expected.records


class TestMultiCoreDifferential:
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("policy", ["ok-approx", "balanced-split"])
    def test_incremental_equals_full_replan(self, k, policy):
        simulator = MultiCoreInterSimulator(
            TRACE, uniform_cores(k, B, DELTA), multicore_policy=policy
        )
        report = simulator.run()
        assert (
            records_sha256(report.records, simulator.event_times)
            == MULTICORE_DIGESTS[(policy, k)]
        )

    @pytest.mark.parametrize("policy", ["ok-approx", "balanced-split"])
    def test_more_cores_do_not_slow_the_mean_cct(self, policy):
        def mean_cct(report):
            return sum(
                r.completion_time - r.arrival_time for r in report.records
            ) / len(report.records)

        base = mean_cct(
            simulate_inter_multicore(
                TRACE, uniform_cores(1, B, DELTA), multicore_policy=policy
            )
        )
        wide = mean_cct(
            simulate_inter_multicore(
                TRACE, uniform_cores(4, B, DELTA), multicore_policy=policy
            )
        )
        assert wide <= base * (1 + 1e-9)

    def test_every_coflow_gets_exactly_one_merged_record(self):
        simulator = MultiCoreInterSimulator(
            TRACE, uniform_cores(3, B, DELTA), multicore_policy="balanced-split"
        )
        report = simulator.run()
        assert sorted(r.coflow_id for r in report.records) == sorted(
            c.coflow_id for c in TRACE
        )
        assert not simulator._pending

    def test_intra_policies_run_and_respect_k(self):
        for policy in ("first-fit", "ok-approx", "balanced-split"):
            report = simulate_intra_multicore(
                TRACE, uniform_cores(2, B, DELTA), multicore_policy=policy
            )
            assert len(report.records) == len(TRACE.coflows)

    def test_fuzz_incremental_equals_full(self):
        """Random traces, every K, skewed demand: the K-core replay must
        reproduce what both retired replan paths produced, bit for bit."""
        for (seed, k, policy), expected in FUZZ_DIGESTS.items():
            trace = _random_trace(seed, num_ports=6, num_coflows=10)
            simulator = MultiCoreInterSimulator(
                trace, uniform_cores(k, B, DELTA), multicore_policy=policy
            )
            report = simulator.run()
            digest = records_sha256(report.records, simulator.event_times)
            assert digest == expected, (seed, k, policy)


class TestSmokeCores:
    def test_smoke_at_ci_core_count(self):
        """CI matrix hook: REPRO_SMOKE_CORES selects the fabric width."""
        k = int(os.environ.get("REPRO_SMOKE_CORES", "1"))
        trace = _random_trace(3, num_ports=8, num_coflows=12)
        inter = simulate_inter_multicore(trace, uniform_cores(k, B, DELTA))
        intra = simulate_intra_multicore(trace, uniform_cores(k, B, DELTA))
        assert len(inter.records) == len(trace.coflows)
        assert len(intra.records) == len(trace.coflows)
        if k == 1:
            expected = InterCoflowSimulator(
                trace, bandwidth_bps=B, delta=DELTA
            ).run()
            assert inter.records == expected.records
