"""Trace transformations used by the paper's evaluation (§5.1, §5.4).

* **Perturbation** — the trace rounds sizes to the megabyte, so many
  subflows are exactly equal; the paper adds ±5 % size noise, floored at
  1 MB, which also pins Lemma 2's ``α`` to 1.25 and the CCT/``T^p_L``
  bound to 4.5 at 1 Gbps / δ = 10 ms.
* **Byte scaling to a target idleness** — §5.4 evaluates inter-Coflow
  scheduling under 12/20/40/81/98 % network idleness by scaling Coflow
  byte sizes while preserving structure.  Idleness is monotone in the
  scale factor, so a bisection finds the factor for any achievable target.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from repro.analysis.idleness import network_idleness
from repro.core.coflow import Coflow, CoflowTrace, Flow
from repro.units import MB


def perturb_sizes(
    trace: CoflowTrace,
    fraction: float = 0.05,
    min_bytes: float = 1 * MB,
    seed: int = 0,
) -> CoflowTrace:
    """Add uniform ±``fraction`` noise to every flow size, floored at ``min_bytes``.

    The materialized form of :func:`perturb_sizes_iter`: one RNG walks
    Coflows in trace order and flows in flow order.
    """
    coflows = list(perturb_sizes_iter(trace.coflows, fraction, min_bytes, seed))
    return CoflowTrace(trace.num_ports, coflows)


def perturb_sizes_iter(
    coflows: Iterable[Coflow],
    fraction: float = 0.05,
    min_bytes: float = 1 * MB,
    seed: int = 0,
) -> Iterator[Coflow]:
    """Streaming form of :func:`perturb_sizes` — O(1) memory.

    Walks one RNG over Coflows in iteration order and flows in flow order,
    so both produce bit-identical sizes for the same Coflow sequence; the
    streaming facade relies on this to keep perturbed replays comparable
    with the in-memory path.
    """
    if not 0 <= fraction < 1:
        raise ValueError(f"fraction must be in [0, 1), got {fraction!r}")
    source = random.Random(seed)
    for coflow in coflows:
        flows = []
        for flow in coflow.flows:
            factor = 1.0 + source.uniform(-fraction, fraction)
            flows.append(
                Flow(flow.src, flow.dst, max(min_bytes, flow.size_bytes * factor))
            )
        yield Coflow(coflow.coflow_id, coflow.arrival_time, flows)


def scale_bytes(trace: CoflowTrace, factor: float, min_bytes: float = 0.0) -> CoflowTrace:
    """Multiply every flow size by ``factor`` (optionally floored)."""
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor!r}")
    return trace.map_sizes(lambda flow: max(min_bytes, flow.size_bytes * factor))


def scale_to_idleness(
    trace: CoflowTrace,
    bandwidth_bps: float,
    target: float,
    tolerance: float = 0.005,
    max_iterations: int = 60,
) -> CoflowTrace:
    """Scale Coflow bytes so the trace attains ``target`` network idleness.

    Larger Coflows stay active longer, so idleness decreases monotonically
    in the scale factor; a bracketing bisection converges to within
    ``tolerance``.  Structure (endpoints, relative sizes, arrivals) is
    preserved, exactly as §5.4 requires.

    Raises:
        ValueError: if the target is outside (0, 1) or unattainable (even
            infinitesimal Coflows cannot push idleness above the fraction
            of time with no arrivals at all).
    """
    if not 0 < target < 1:
        raise ValueError(f"target idleness must be in (0, 1), got {target!r}")

    def idleness_at(factor: float) -> float:
        return network_idleness(scale_bytes(trace, factor), bandwidth_bps)

    low, high = 1.0, 1.0
    # Bracket the target: smaller factor -> more idleness.
    current = idleness_at(1.0)
    if current < target:
        while idleness_at(low) < target:
            low /= 2.0
            if low < 1e-9:
                raise ValueError(
                    f"target idleness {target} unattainable: even near-zero "
                    "sizes leave the network busier than that"
                )
        high = low * 2.0
    elif current > target:
        while idleness_at(high) > target:
            high *= 2.0
            if high > 1e9:
                raise ValueError(
                    f"target idleness {target} unattainable by growing sizes"
                )
        low = high / 2.0
    else:
        return trace

    factor = 1.0
    for _ in range(max_iterations):
        factor = (low + high) / 2.0
        achieved = idleness_at(factor)
        if abs(achieved - target) <= tolerance:
            break
        if achieved < target:
            high = factor
        else:
            low = factor
    return scale_bytes(trace, factor)
