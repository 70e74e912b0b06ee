import pytest

from measure import (
    columnwise_median,
    percentile,
    quartiles,
    samples_beyond,
    speed_probe,
    tail_percentile,
    verdict,
)
from paper_workloads import HostClock


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert percentile([1.0, 2.0, 3.0], 100) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    values = [float(i) for i in range(1000)]
    assert tail_percentile(values, 99) == percentile(values, 99)
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile(values[:999], 99)
    # p50 of 20 samples has 10 beyond it.
    assert tail_percentile(values[:20], 50) == percentile(values[:20], 50)


def test_columnwise_median_takes_each_decision_over_the_passes():
    passes = [[1.0, 9.0], [3.0, 2.0], [2.0, 4.0]]
    assert columnwise_median(passes) == [2.0, 4.0]
    with pytest.raises(ValueError, match="different lengths"):
        columnwise_median([[1.0, 2.0], [1.0]])


def test_host_clock_scales_by_the_latest_probe():
    assert speed_probe() > 0
    host = HostClock()
    host.factor = 2.0
    assert host.scaled(0.5) == 1.0
    host.since -= 1.0  # one second has passed since the probe
    assert host.stop() == pytest.approx(2.0, rel=1e-3)


def test_quartiles_match_statistics_and_handle_one_value():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [1.5, 3.0, 4.5]
    assert quartiles([7.0]) == [7.0, 7.0, 7.0]


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert verdict(parent, list(parent), "lower", 0.1)["verdict"] == "identical"
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert verdict(parent, faster, "higher", 0.1)["verdict"] == "worse"
    # Within the bound and winning too few pairs: no change claimed.
    nudged = [v * (1.001 if i % 2 else 0.999) for i, v in enumerate(parent)]
    assert verdict(parent, nudged, "lower", 0.1)["verdict"] == "same"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # Three pairs are too few to claim a gain, however clear.
    assert verdict(parent[:3], faster[:3], "lower", 0.1)["verdict"] == "unresolved"


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "sideways", 0.1)
