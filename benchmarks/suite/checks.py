"""Output checks: what makes one (Coflow, scheduler) operation fail.

An operation fails when its call raises, when it has no completion
record or more than one, when its CCT undercuts a lower bound (``T^p_L``
always, ``T^c_L`` on every circuit workload; all four are), or when an
intra-mode Sunflow Coflow breaks Lemma 1 (``CCT <= 2 * T^c_L``).  On top
of the per-record checks, every pass's output digest must match the
other passes' and, at the golden seed, the stored golden digest; a
mismatch fails every operation of that pass.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.sim.streaming import StreamingReport

#: Slack for comparing a simulated CCT with a bound computed by another
#: float expression: relative, plus an absolute floor for tiny bounds.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


def _below(value: float, bound: float) -> bool:
    return value < bound - (_ABS_TOL + _REL_TOL * abs(bound))


def record_problems(record, lemma1: bool) -> List[str]:
    """Bound violations of one completion record (empty when it is fine)."""
    cct = record.completion_time - record.arrival_time
    problems = []
    if _below(cct, record.packet_lower):
        problems.append(f"coflow {record.coflow_id}: CCT {cct!r} < T^p_L {record.packet_lower!r}")
    if _below(cct, record.circuit_lower):
        problems.append(f"coflow {record.coflow_id}: CCT {cct!r} < T^c_L {record.circuit_lower!r}")
    if lemma1 and _below(2.0 * record.circuit_lower, cct):
        problems.append(
            f"coflow {record.coflow_id}: CCT {cct!r} > 2 T^c_L (Lemma 1)"
        )
    return problems


def check_records(
    records: Sequence, expected_ids: Iterable[int], lemma1: bool = False
) -> Tuple[int, List[str]]:
    """Failed operations among ``expected_ids`` given one run's records.

    An expected Coflow fails when it has no record, more than one, or
    one that violates a bound; a record for a Coflow nobody expected
    counts as one more failure.
    """
    seen = Counter(record.coflow_id for record in records)
    failed = 0
    problems: List[str] = []
    expected = set(expected_ids)
    for cid in expected:
        if seen[cid] != 1:
            failed += 1
            problems.append(f"coflow {cid}: {seen[cid]} completion records")
    for cid in seen.keys() - expected:
        failed += 1
        problems.append(f"coflow {cid}: record for a Coflow not in the input")
    for record in records:
        if record.coflow_id in expected and seen[record.coflow_id] == 1:
            found = record_problems(record, lemma1)
            if found:
                failed += 1
                problems.extend(found)
    return failed, problems


def record_key(group: Hashable, record) -> Tuple:
    """The exact identity of one record's outcome inside a digest."""
    return (group, record.coflow_id, record.completion_time.hex(), record.switching_count)


def digest(items: Iterable[Tuple]) -> str:
    """SHA-256 over the sorted items' reprs (order of arrival is ignored)."""
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


class CheckingStreamingReport(StreamingReport):
    """A :class:`StreamingReport` that checks each record before folding
    it in, so the bounded-memory replay is checked in O(1) memory.

    Missing or duplicated records are caught at the end by
    :meth:`finish`, from the record count and two id power sums.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.failed = 0
        self.problems: List[str] = []
        self.ratio_sum = 0.0
        self.id_sum = 0
        self.id_square_sum = 0

    def add(self, record) -> None:
        found = record_problems(record, lemma1=False)
        if found:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.extend(found)
        self.ratio_sum += (record.completion_time - record.arrival_time) / record.circuit_lower
        cid = record.coflow_id
        self.id_sum += cid
        self.id_square_sum += cid * cid
        super().add(record)

    def finish(self, expected: Dict[str, int]) -> Tuple[int, List[str]]:
        """Failed operations, given ``expected`` ``count``, ``id_sum`` and
        ``id_square_sum`` of the input."""
        failed = min(expected["count"], self.failed + abs(expected["count"] - self.count))
        problems = list(self.problems)
        if self.count != expected["count"]:
            problems.append(f"{self.count} records for {expected['count']} Coflows")
        elif (self.id_sum, self.id_square_sum) != (expected["id_sum"], expected["id_square_sum"]):
            failed = expected["count"]
            problems.append("record ids differ from the input's")
        return failed, problems

    def outcome_digest(self) -> str:
        """Digest over the report's exact aggregates."""
        return digest(
            [
                ("count", self.count),
                ("cct_sum", self.cct_sum.hex()),
                ("ratio_sum", self.ratio_sum.hex()),
                ("switching_total", self.switching_total),
                ("flows_total", self.flows_total),
                ("bytes_total", self.bytes_total.hex()),
                ("last_completion", self.last_completion.hex()),
                ("categories", tuple(sorted(self.category_counts.items()))),
                ("id_sum", self.id_sum),
                ("id_square_sum", self.id_square_sum),
            ]
        )
