"""Tests for the K-core fabric layer (``repro.core.multicore`` + PRT groups)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    circuit_lower_bound,
    multicore_circuit_lower_bound,
    multicore_packet_lower_bound,
    packet_lower_bound,
)
from repro.core.coflow import Coflow
from repro.core.multicore import (
    CoreLoadTracker,
    MULTICORE_POLICIES,
    MultiCoreSunflowScheduler,
    SwitchCore,
    build_cores,
    resolve_multicore_policy,
    split_demand,
    uniform_cores,
)
from repro.core.prt import CoreReservationTables, PortReservationTable
from repro.core.sunflow import SunflowScheduler
from repro.units import DEFAULT_BANDWIDTH, GBPS, MB, MS, processing_time

B = 1 * GBPS
DELTA = 10 * MS


# ----------------------------------------------------------------------
# Fabric model
# ----------------------------------------------------------------------
class TestFabricModel:
    def test_switch_core_validation(self):
        with pytest.raises(ValueError):
            SwitchCore(index=-1)
        with pytest.raises(ValueError):
            SwitchCore(index=0, bandwidth_bps=0)
        with pytest.raises(ValueError):
            SwitchCore(index=0, delta=-1.0)

    def test_uniform_and_heterogeneous_cores(self):
        cores = uniform_cores(3, bandwidth_bps=B, delta=DELTA)
        assert [c.index for c in cores] == [0, 1, 2]
        assert all(c.bandwidth_bps == B and c.delta == DELTA for c in cores)
        hetero = build_cores(
            2, bandwidth_bps=B, delta=DELTA, core_deltas=(0.01, 0.02)
        )
        assert [c.delta for c in hetero] == [0.01, 0.02]
        with pytest.raises(ValueError):
            build_cores(2, core_deltas=(0.01,))
        with pytest.raises(ValueError):
            uniform_cores(0)

    def test_policy_registry(self):
        assert set(MULTICORE_POLICIES) == {
            "ok-approx",
            "balanced-split",
            "first-fit",
        }
        assert resolve_multicore_policy(None, "inter").name == "ok-approx"
        assert resolve_multicore_policy(None, "intra").name == "first-fit"
        with pytest.raises(ValueError):
            resolve_multicore_policy("first-fit", "inter")
        with pytest.raises(ValueError):
            resolve_multicore_policy("bogus", "intra")


# ----------------------------------------------------------------------
# Grouped per-core reservation tables
# ----------------------------------------------------------------------
class TestCoreReservationTables:
    def test_fresh_group_holds_one_table_per_core(self):
        group = CoreReservationTables.fresh(2)
        group[0].reserve(0, 1, start=0.0, end=1.0, coflow_id=1, setup=DELTA)
        group[1].reserve(0, 1, start=0.0, end=2.0, coflow_id=1, setup=DELTA)
        assert [len(table) for table in group] == [1, 1]
        assert group.makespan() == 2.0
        with pytest.raises(ValueError):
            CoreReservationTables.fresh(0)
        with pytest.raises(ValueError):
            CoreReservationTables([])


# ----------------------------------------------------------------------
# K-core lower bounds
# ----------------------------------------------------------------------
class TestMulticoreBounds:
    def test_k1_degenerates_to_single_core(self):
        coflow = Coflow.from_demand(1, {(0, 1): 40 * MB, (0, 2): 15 * MB})
        assert multicore_packet_lower_bound(coflow, [B]) == packet_lower_bound(
            coflow, B
        )
        assert multicore_circuit_lower_bound(
            coflow, [B], [DELTA]
        ) == circuit_lower_bound(coflow, B, DELTA)

    def test_uniform_k_divides_the_bound(self):
        coflow = Coflow.from_demand(1, {(0, 1): 40 * MB, (0, 2): 15 * MB})
        k = 4
        assert multicore_packet_lower_bound(coflow, [B] * k) == pytest.approx(
            packet_lower_bound(coflow, B) / k
        )
        assert multicore_circuit_lower_bound(
            coflow, [B] * k, [DELTA] * k
        ) == pytest.approx(circuit_lower_bound(coflow, B, DELTA) / k)

    def test_validation(self):
        coflow = Coflow.from_demand(1, {(0, 1): 1 * MB})
        with pytest.raises(ValueError):
            multicore_circuit_lower_bound(coflow, [B, B], [DELTA])
        with pytest.raises(ValueError):
            multicore_circuit_lower_bound(coflow, [], [])


# ----------------------------------------------------------------------
# Demand placement helpers
# ----------------------------------------------------------------------
class TestPlacementHelpers:
    def test_split_demand_is_identity_at_k1(self):
        demand = {(0, 1): 40 * MB, (2, 3): 1.7 * MB}
        shares = split_demand(demand, uniform_cores(1))
        assert shares == [demand]

    def test_split_demand_proportional(self):
        demand = {(0, 1): 12 * MB}
        cores = build_cores(2, core_bandwidths=(2 * GBPS, 1 * GBPS))
        shares = split_demand(demand, cores)
        assert shares[0][(0, 1)] == pytest.approx(8 * MB)
        assert shares[1][(0, 1)] == pytest.approx(4 * MB)
        assert sum(s[(0, 1)] for s in shares) == pytest.approx(12 * MB)

    def test_load_tracker_prefers_empty_core(self):
        cores = uniform_cores(2, bandwidth_bps=B, delta=DELTA)
        tracker = CoreLoadTracker(cores)
        demand = {(0, 1): 40 * MB}
        first = tracker.assign(demand)
        assert first == 0  # tie broken to the lowest index
        tracker.add(first, demand)
        assert tracker.assign(demand) == 1  # core 0 now loaded on port 0
        tracker.add(1, demand)
        tracker.remove(0, demand)
        assert tracker.assign(demand) == 0

    def test_load_tracker_score_is_bottleneck_port(self):
        cores = uniform_cores(1, bandwidth_bps=B, delta=DELTA)
        tracker = CoreLoadTracker(cores)
        demand = {(0, 1): 40 * MB, (0, 2): 15 * MB}
        # Port 0 (input) carries 55 MB — the bottleneck.
        expected = processing_time(55 * MB, B) + DELTA
        assert tracker.score(0, demand) == pytest.approx(expected)


# ----------------------------------------------------------------------
# The multi-core scheduler
# ----------------------------------------------------------------------
def _single_core_reference(coflow, delta=DELTA, bandwidth=B, start_time=0.0):
    scheduler = SunflowScheduler(delta=delta)
    prt = PortReservationTable()
    seconds = {c: processing_time(s, bandwidth) for c, s in coflow.demand().items()}
    return scheduler.schedule_demand(prt, coflow.coflow_id, seconds, start_time)


class TestMultiCoreScheduler:
    def test_k1_first_fit_is_bitwise_single_core(self):
        coflow = Coflow.from_demand(
            1, {(0, 1): 40 * MB, (0, 2): 25 * MB, (3, 1): 10 * MB, (2, 0): 5 * MB}
        )
        scheduler = MultiCoreSunflowScheduler(uniform_cores(1, B, DELTA))
        schedule = scheduler.schedule_demand(
            scheduler.new_tables(), 1, coflow.demand()
        )
        reference = _single_core_reference(coflow)
        assert [
            (i.reservation.start, i.reservation.end, i.reservation.src,
             i.reservation.dst, i.reservation.setup)
            for i in schedule.reservations
        ] == [
            (r.start, r.end, r.src, r.dst, r.setup)
            for r in reference.reservations
        ]
        assert schedule.completion_time == reference.completion_time

    def test_ok_approx_places_whole_coflow_on_one_core(self):
        scheduler = MultiCoreSunflowScheduler(uniform_cores(4, B, DELTA))
        coflow = Coflow.from_demand(7, {(0, 1): 40 * MB, (2, 3): 15 * MB})
        schedule = scheduler.schedule_coflow(coflow, policy="ok-approx")
        assert set(schedule.per_core_counts()) == {0}
        # Exact per-core reference: the chosen core runs plain Sunflow.
        reference = _single_core_reference(coflow)
        assert schedule.completion_time == reference.completion_time

    def test_balanced_split_shares_match_per_core_reference(self):
        cores = uniform_cores(2, B, DELTA)
        scheduler = MultiCoreSunflowScheduler(cores)
        coflow = Coflow.from_demand(9, {(0, 1): 40 * MB, (2, 3): 15 * MB})
        schedule = scheduler.schedule_coflow(coflow, policy="balanced-split")
        shares = split_demand(coflow.demand(), cores)
        for core in (0, 1):
            share_coflow = Coflow.from_demand(9, shares[core])
            reference = _single_core_reference(share_coflow)
            got = [
                (i.reservation.start, i.reservation.end)
                for i in schedule.reservations
                if i.core == core
            ]
            assert got == [(r.start, r.end) for r in reference.reservations]

    def test_first_fit_spreads_incast_across_cores(self):
        incast = {(s, 0): 8 * MB for s in range(1, 5)}
        k4 = MultiCoreSunflowScheduler(uniform_cores(4, B, DELTA))
        k1 = MultiCoreSunflowScheduler(uniform_cores(1, B, DELTA))
        tables = k4.new_tables()
        spread = k4.schedule_demand(tables, 1, incast)
        serial = k1.schedule_demand(k1.new_tables(), 1, incast)
        assert len(spread.per_core_counts()) == 4
        assert spread.completion_time < serial.completion_time
        tables.validate()

    def test_more_cores_never_hurt_first_fit(self):
        demand = {(0, 1): 20 * MB, (0, 2): 20 * MB, (3, 1): 5 * MB}
        previous = None
        for k in (1, 2, 4):
            scheduler = MultiCoreSunflowScheduler(uniform_cores(k, B, DELTA))
            schedule = scheduler.schedule_demand(
                scheduler.new_tables(), 1, dict(demand)
            )
            if previous is not None:
                assert schedule.completion_time <= previous + 1e-9
            previous = schedule.completion_time

    def test_table_count_checked(self):
        scheduler = MultiCoreSunflowScheduler(uniform_cores(2, B, DELTA))
        with pytest.raises(ValueError, match="expected 2"):
            scheduler.schedule_demand(CoreReservationTables.fresh(3), 1, {})

    @settings(deadline=None, max_examples=40)
    @given(
        k=st.integers(min_value=1, max_value=4),
        entries=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.1, max_value=80.0),
            ),
            min_size=1,
            max_size=10,
            unique_by=lambda e: (e[0], e[1]),
        ),
        policy=st.sampled_from(["first-fit", "ok-approx", "balanced-split"]),
    )
    def test_fuzz_policies_conserve_demand_and_respect_ports(
        self, k, entries, policy
    ):
        """Any policy, any K: schedules serve the demand exactly, respect
        per-core port constraints, and land within the per-core 2×TcL
        Lemma-1 envelope scaled to the placement."""
        demand = {(src, dst): mb * MB for src, dst, mb in entries}
        coflow = Coflow.from_demand(1, demand)
        scheduler = MultiCoreSunflowScheduler(uniform_cores(k, B, DELTA))
        tables = scheduler.new_tables()
        schedule = scheduler.schedule_coflow(
            coflow, policy=policy, tables=tables
        )
        tables.validate()
        # Demand conservation: per-circuit transmit seconds sum to the
        # circuit's processing time (every core has rate B here).
        served = {}
        for item in schedule.reservations:
            r = item.reservation
            served[(r.src, r.dst)] = (
                served.get((r.src, r.dst), 0.0) + (r.end - r.start - r.setup)
            )
        for circuit, size in demand.items():
            assert served[circuit] == pytest.approx(
                processing_time(size, B), abs=1e-6
            )
        # Lemma-1 envelope: for whole-coflow placements the single-core
        # bound applies; for splits, each core's share obeys it per core.
        if policy in ("first-fit", "ok-approx"):
            bound = 2 * circuit_lower_bound(coflow, B, DELTA)
            assert schedule.makespan <= bound * (1 + 1e-9)

    @settings(deadline=None, max_examples=25)
    @given(
        k=st.integers(min_value=2, max_value=4),
        sizes=st.lists(
            st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=6
        ),
    )
    def test_fuzz_ok_approx_assignment_matches_brute_force(self, k, sizes):
        """The least-loaded rule must pick the brute-force argmin core as
        skewed Coflows stream through one shared load tracker."""
        cores = uniform_cores(k, B, DELTA)
        tracker = CoreLoadTracker(cores)
        rng = random.Random(1234)
        for cid, mb in enumerate(sizes):
            # Skewed demand: everything hammers a small port set.
            demand = {
                (rng.randrange(2), 2 + rng.randrange(2)): mb * MB,
                (0, 2): 0.25 * mb * MB,
            }
            brute = min(
                range(k), key=lambda core: (tracker.score(core, demand), core)
            )
            chosen = tracker.assign(demand)
            assert tracker.score(chosen, demand) == pytest.approx(
                tracker.score(brute, demand)
            )
            tracker.add(chosen, demand)
