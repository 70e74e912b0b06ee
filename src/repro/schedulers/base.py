"""Assignment-based circuit scheduling abstractions (paper §3.1.1).

The baselines Sunflow is compared against (Edmond, TMS, Solstice) all share
one shape: given a single demand matrix, emit a sequence of *assignments*
``{A_1, …, A_m}`` — each a one-to-one matching of input ports to output
ports — with a planned transmission duration per assignment.  The switch
then holds ``A_k`` for its duration, reconfigures, and moves to ``A_(k+1)``.

The classes here express that contract; :mod:`repro.sim.assignment_exec`
executes a schedule under the all-stop or not-all-stop switch model and
measures CCT/switching counts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.prt import TIME_EPS
from repro.kernels import as_demand_matrix

Circuit = Tuple[int, int]


@dataclass(frozen=True)
class Assignment:
    """One circuit configuration: a matching held for ``duration`` seconds.

    ``duration`` is planned *transmission* time and excludes the
    reconfiguration delay, which the executor charges according to the
    switch model.
    """

    circuits: Tuple[Circuit, ...]
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"assignment duration must be positive, got {self.duration!r}")
        sources = [src for src, _ in self.circuits]
        destinations = [dst for _, dst in self.circuits]
        if len(set(sources)) != len(sources) or len(set(destinations)) != len(destinations):
            raise ValueError(
                f"assignment is not a matching (port used twice): {self.circuits}"
            )

    @property
    def circuit_set(self) -> frozenset:
        return frozenset(self.circuits)


@dataclass
class AssignmentSchedule:
    """An ordered sequence of assignments produced by a baseline scheduler."""

    assignments: List[Assignment]

    @property
    def num_assignments(self) -> int:
        return len(self.assignments)

    @property
    def total_transmission_time(self) -> float:
        return sum(a.duration for a in self.assignments)

    def service_per_circuit(self) -> Dict[Circuit, float]:
        """Planned seconds of service per circuit across all assignments."""
        service: Dict[Circuit, float] = {}
        for assignment in self.assignments:
            for circuit in assignment.circuits:
                service[circuit] = service.get(circuit, 0.0) + assignment.duration
        return service

    def covers(self, demand_times: Mapping[Circuit, float]) -> bool:
        """True if planned service meets or exceeds every demand entry."""
        service = self.service_per_circuit()
        return all(
            service.get(circuit, 0.0) >= seconds - TIME_EPS
            for circuit, seconds in demand_times.items()
            if seconds > 0
        )


def top_up(
    assignments: List[Assignment],
    demand_times: Mapping[Circuit, float],
    tolerance: float,
) -> AssignmentSchedule:
    """Close a decomposition's numerical shortfalls with dedicated slots.

    Appends one single-circuit assignment for every demand entry above
    ``tolerance`` that ``assignments`` serve more than ``tolerance``
    seconds short.  The slots go last, and an executor stops once the
    real demand drains, so a schedule that covered its demand without
    them runs exactly as before.
    """
    service = AssignmentSchedule(assignments=assignments).service_per_circuit()
    for circuit, seconds in demand_times.items():
        shortfall = seconds - service.get(circuit, 0.0)
        if seconds > tolerance and shortfall > tolerance:
            assignments.append(
                Assignment(circuits=(circuit,), duration=shortfall * (1 + 1e-9))
            )
    return AssignmentSchedule(assignments=assignments)


class AssignmentScheduler(abc.ABC):
    """A single-demand-matrix circuit scheduler (the baseline family)."""

    #: Scheduler name used in reports and the CLI.
    name: str = "assignment-scheduler"

    @abc.abstractmethod
    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        """Plan assignments for one demand matrix.

        Args:
            demand_times: ``{(src, dst): processing seconds}`` — demand
                already converted to circuit-holding time at line rate.
            num_ports: fabric size ``N``; ports are ``0 … N-1``.
        """

    @staticmethod
    def demand_matrix(
        demand_times: Mapping[Circuit, float], num_ports: int
    ) -> np.ndarray:
        """Densify sparse demand into an ``N × N`` float64 ndarray of seconds.

        This is the canonicalization boundary of the scheduler pipeline:
        demand becomes a contiguous ``float64`` ndarray here and flows to
        the kernels without further dtype conversions.
        """
        matrix = np.zeros((num_ports, num_ports), dtype=np.float64)
        for (src, dst), seconds in demand_times.items():
            if src >= num_ports or dst >= num_ports:
                raise ValueError(
                    f"circuit ({src}, {dst}) outside a {num_ports}-port fabric"
                )
            if seconds > 0:
                matrix[src, dst] += seconds
        return matrix

    @staticmethod
    def used_ports(demand_times: Mapping[Circuit, float]) -> Tuple[List[int], List[int]]:
        """Distinct sources and destinations with positive demand, sorted."""
        sources = sorted({src for (src, _), p in demand_times.items() if p > 0})
        destinations = sorted({dst for (_, dst), p in demand_times.items() if p > 0})
        return sources, destinations


def compact_demand(
    demand_times: Mapping[Circuit, float]
) -> Tuple[np.ndarray, List[int], List[int]]:
    """Project sparse demand onto the square sub-matrix of used ports.

    The baselines' running time depends on the matrix dimension, so they
    operate on the ``k × k`` matrix over the ``k = max(#sources, #dests)``
    used ports rather than the full fabric.  Returns the compact matrix as
    a contiguous ``float64`` ndarray — the canonical demand representation
    of the scheduler pipeline — plus the source/destination port labels
    for mapping matchings back.
    """
    sources = sorted({src for (src, _), p in demand_times.items() if p > 0})
    destinations = sorted({dst for (_, dst), p in demand_times.items() if p > 0})
    size = max(len(sources), len(destinations))
    # Pad the shorter side with unused (virtual) ports so the matrix is
    # square; virtual ports simply never receive demand.
    src_labels = list(sources) + [-1 - k for k in range(size - len(sources))]
    dst_labels = list(destinations) + [-1 - k for k in range(size - len(destinations))]
    index_of_src = {port: i for i, port in enumerate(src_labels)}
    index_of_dst = {port: j for j, port in enumerate(dst_labels)}
    matrix = np.zeros((size, size), dtype=np.float64)
    for (src, dst), seconds in demand_times.items():
        if seconds > 0:
            matrix[index_of_src[src], index_of_dst[dst]] += seconds
    return matrix, src_labels, dst_labels


def canonical_demand(matrix) -> np.ndarray:
    """Canonicalize matrix-shaped demand to a contiguous float64 ndarray.

    Accepts nested lists or any ndarray dtype/layout and converts exactly
    once (no copy when the input is already contiguous float64) — the
    entry point for callers holding a densified matrix rather than sparse
    ``{(src, dst): seconds}`` demand.
    """
    return as_demand_matrix(matrix)
