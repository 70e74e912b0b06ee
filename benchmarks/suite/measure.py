"""Host-speed probe, order statistics and the parent-versus-change verdict.

Kept free of any ``repro`` import: the benchmark's own arithmetic must
not change when the program under test does.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Sequence

#: A timing percentile is reported only when at least this many samples
#: lie beyond it (a p99 therefore needs 1,000 samples).
MIN_TAIL = 10
#: A gain is claimed only over at least this many parent/change pairs.
MIN_PAIRS = 10
#: Host times are reported at the speed of a host on which
#: :func:`speed_probe` takes this long: each measured interval is scaled
#: by ``REFERENCE_PROBE_S / probe``, the probe taken just before it.
#: 0.1 ms is the probe on the calibration host (README.md) in a quiet
#: period, so there the reported times read as quiet-period times.
REFERENCE_PROBE_S = 1.0e-4


def _probe_loop(n: int) -> float:
    table = {}
    acc = 0.0
    for i in range(n):
        acc += (i % 7) * 0.5
        table[i & 63] = acc
    return acc


def speed_probe(rounds: int = 3, n: int = 1000) -> float:
    """Least host time of ``rounds`` runs of a fixed pure-Python loop.

    It measures how fast the host runs interpreted code right now: on a
    shared host that speed changes by up to 2x, in periods from a
    fraction of a second to minutes.  The least of a few rounds drops
    an interrupt that hits one of them.
    """
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        _probe_loop(n)
        best = min(best, time.perf_counter() - start)
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: int) -> int:
    """How many of ``count`` samples lie beyond the integer ``q``-th
    percentile (integer arithmetic, so 1,000 samples give exactly 10
    beyond p99)."""
    return count * (100 - q) // 100


def tail_percentile(values: Sequence[float], q: int, min_tail: int = MIN_TAIL) -> float:
    """``percentile(values, q)``, refused when fewer than ``min_tail``
    samples lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_tail:
        raise ValueError(
            f"p{q} of {len(values)} samples has {beyond} beyond it; "
            f"at least {min_tail} are required"
        )
    return percentile(values, q)


def columnwise_median(rows: Sequence[Sequence[float]]) -> List[float]:
    """The median of each position over equally long rows (one row per
    pass, one position per decision)."""
    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise ValueError(f"rows of different lengths: {sorted(lengths)}")
    return [statistics.median(column) for column in zip(*rows)]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, object]:
    """Judge one (workload, metric) cell of a comparison.

    ``parent`` and ``change`` are paired by position (the same seed on
    both sides).  The verdict is:

    * ``better`` — the change wins at least nine tenths of the pairs
      (ties count for neither) and the medians differ by more than the
      parent's interquartile distance, over at least ``MIN_PAIRS``
      pairs (with fewer, such a gain is ``unresolved``);
    * ``worse`` — the change's median is worse than the parent's by more
      than ``bound`` (a share of the parent median);
    * ``unresolved`` — either side's spread exceeds ``bound`` and no
      side reads better in every run;
    * ``same`` otherwise (``identical`` when every pair is equal).
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {better!r}")
    sign = -1.0 if better == "lower" else 1.0
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c > sign * p)
    losses = sum(1 for p, c in pairs if sign * c < sign * p)
    gain = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    spread = max(relative_spread(parent), relative_spread(change))
    # Scores read "higher is better" whatever the metric's direction.
    parent_scores = [sign * v for v in parent]
    change_scores = [sign * v for v in change]
    all_better = min(change_scores) > max(parent_scores)
    all_worse = max(change_scores) < min(parent_scores)
    if pairs and wins == 0 and losses == 0:
        label = "identical"
    elif wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1 and gain > 0:
        label = "better" if len(pairs) >= MIN_PAIRS else "unresolved"
    elif spread > bound and not (all_better or all_worse):
        label = "unresolved"
    elif -gain > bound:
        label = "worse"
    else:
        label = "same"
    return {
        "verdict": label,
        "parent": [pq1, pmed, pq3],
        "change": [cq1, cmed, cq3],
        "gain": gain,
        "spread": spread,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
    }
