import dataclasses

import pytest

from checks import CheckingStreamingReport, check_records, digest, record_key, record_problems
from paper_workloads import PassResult
from repro.core.coflow import Coflow
from repro.sim.results import make_record
from worker import judge_digests

B, DELTA = 1e9, 0.01


@pytest.fixture
def records():
    coflows = [
        Coflow.from_demand(cid, {(0, 1): 5e6, (2, 1): 3e6}, arrival_time=float(cid))
        for cid in range(3)
    ]
    out = []
    for coflow in coflows:
        probe = make_record(coflow, coflow.arrival_time, B, DELTA)
        out.append(
            make_record(
                coflow, coflow.arrival_time + 1.5 * probe.circuit_lower, B, DELTA, switching_count=2
            )
        )
    return out


def _late(record, completion):
    return dataclasses.replace(record, completion_time=completion)


def test_clean_records_pass(records):
    assert check_records(records, [0, 1, 2], lemma1=True) == (0, [])


def test_each_bound_check_fires(records):
    record = records[0]
    below_packet = _late(record, record.arrival_time + 0.5 * record.packet_lower)
    assert any("T^p_L" in p for p in record_problems(below_packet, lemma1=False))
    between = record.arrival_time + 0.5 * (record.packet_lower + record.circuit_lower)
    problems = record_problems(_late(record, between), lemma1=False)
    assert any("T^c_L" in p for p in problems) and not any("T^p_L" in p for p in problems)
    beyond_lemma1 = _late(record, record.arrival_time + 2.5 * record.circuit_lower)
    assert record_problems(beyond_lemma1, lemma1=False) == []
    assert any("Lemma 1" in p for p in record_problems(beyond_lemma1, lemma1=True))
    failed, _ = check_records([below_packet] + records[1:], [0, 1, 2])
    assert failed == 1


def test_missing_duplicate_and_foreign_records_fail(records):
    assert check_records(records[:2], [0, 1, 2])[0] == 1
    assert check_records(records + [records[1]], [0, 1, 2])[0] == 1
    foreign = dataclasses.replace(records[0], coflow_id=99)
    assert check_records(records + [foreign], [0, 1, 2])[0] == 1


def test_digest_ignores_order_and_sees_one_ulp(records):
    keys = [record_key("g", r) for r in records]
    assert digest(keys) == digest(list(reversed(keys)))
    nudged = list(records)
    nudged[1] = _late(records[1], records[1].completion_time + 2e-16 * records[1].completion_time)
    assert nudged[1].completion_time != records[1].completion_time
    assert digest([record_key("g", r) for r in nudged]) != digest(keys)


def test_checking_streaming_report(records):
    expected = {"count": 3, "id_sum": 3, "id_square_sum": 5}
    report = CheckingStreamingReport("sunflow", B, DELTA)
    for record in records:
        report.add(record)
    assert report.finish(expected) == (0, [])
    assert report.count == 3  # the base report folded every record in
    first = report.outcome_digest()

    again = CheckingStreamingReport("sunflow", B, DELTA)
    for record in reversed(records):
        again.add(record)
    assert again.outcome_digest() == first

    short = CheckingStreamingReport("sunflow", B, DELTA)
    for record in records[:2] + [records[1]]:
        short.add(record)
    failed, problems = short.finish(expected)
    assert failed == 3 and "ids differ" in problems[0]

    bad = CheckingStreamingReport("sunflow", B, DELTA)
    bad.add(_late(records[0], records[0].arrival_time))
    assert bad.finish({"count": 1, "id_sum": 0, "id_square_sum": 0})[0] == 1


def test_digest_mismatch_fails_the_whole_pass():
    passes = [PassResult(attempted=4, digest="a"), PassResult(attempted=4, digest="b")]
    assert judge_digests(passes, None) == "none"
    assert [p.failed for p in passes] == [0, 4]
    golden = [PassResult(attempted=4, digest="a"), PassResult(attempted=4, digest="a")]
    assert judge_digests(golden, "c") == "mismatch"
    assert [p.failed for p in golden] == [4, 4]
