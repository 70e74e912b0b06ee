"""Declarative experiment grids: ``SweepSpec`` → cells.

A sweep is a base :class:`~repro.api.spec.SimulationSpec` plus ordered
axes, each a dotted override path with a list of values
(``"network.delta": [0.1, 0.01, 0.001]``).  The cells are the cartesian
product of the axes, every cell a complete ``SimulationSpec`` with a
stable human-readable id and a deterministic derived seed.

Specs load from TOML or JSON files (see ``docs/usage.md`` for the layout)
so grids can live next to the benchmarks that run them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.spec import (
    SimulationSpec,
    TraceSpec,
    override_spec,
    spec_from_payload,
    spec_to_payload,
)
from repro.sweep.cache import canonical_bytes, content_key

Axes = Tuple[Tuple[str, Tuple[object, ...]], ...]


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a complete runnable scenario.

    Attributes:
        index: position in axis-major (cartesian product) order.
        cell_id: stable human-readable id, ``"axis=value/axis2=value2"``.
        overrides: the axis values applied to the base spec.
        spec: the resolved :class:`SimulationSpec`, seed already derived —
            or None when the overrides were rejected (see ``error``).
        error: the spec-construction error for a poisoned cell, else None.
    """

    index: int
    cell_id: str
    overrides: Tuple[Tuple[str, object], ...]
    spec: Optional[SimulationSpec]
    error: Optional[str] = None


def derive_cell_seed(spec: SimulationSpec) -> int:
    """Deterministic per-cell seed from the cell's own content.

    Stable across runs, processes and machines — two cells differing in
    any spec field get (almost surely) different seeds, and re-running a
    sweep reproduces every cell's seed exactly.
    """
    key = content_key(spec_to_payload(spec))
    return int(key[:8], 16)


@dataclass(frozen=True)
class SweepSpec:
    """A named grid of simulation scenarios.

    Attributes:
        name: sweep identifier, used in reports and output files.
        base: the spec every cell starts from.  For process-parallel runs
            the trace should be declarative (a
            :class:`~repro.api.spec.TraceSpec` or a small inline trace).
        axes: ordered ``(path, values)`` pairs; the cartesian product in
            axis-major order defines the cells.
    """

    name: str
    base: SimulationSpec
    axes: Axes = ()

    def __init__(
        self,
        name: str,
        base: SimulationSpec,
        axes: Union[Mapping[str, Sequence], Axes] = (),
    ) -> None:
        if isinstance(axes, Mapping):
            normalized = tuple((path, tuple(values)) for path, values in axes.items())
        else:
            normalized = tuple((path, tuple(values)) for path, values in axes)
        for path, values in normalized:
            if not values:
                raise ValueError(f"axis {path!r} has no values")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", normalized)

    # ------------------------------------------------------------------
    def num_cells(self) -> int:
        count = 1
        for _, values in self.axes:
            count *= len(values)
        return count

    def cells(self) -> List[SweepCell]:
        """The grid, axis-major, each cell with its derived seed.

        A cell whose axis values violate spec invariants (an invalid
        scheduler name, a negative delta) still becomes a cell — carrying
        the construction error instead of a spec — so one poisoned axis
        value cannot prevent the rest of the grid from running.  Such
        cells surface as ``error`` results in the sweep.
        """
        paths = [path for path, _ in self.axes]
        cells: List[SweepCell] = []
        for index, combo in enumerate(
            itertools.product(*(values for _, values in self.axes))
        ):
            overrides = tuple(zip(paths, combo))
            cell_id = (
                "/".join(f"{p}={_format_value(v)}" for p, v in overrides) or "base"
            )
            spec = self.base
            error = None
            try:
                for path, value in overrides:
                    spec = override_spec(spec, path, value)
                if spec.seed is None:
                    spec = override_spec(spec, "seed", derive_cell_seed(spec))
            except (TypeError, ValueError) as exc:
                spec, error = None, f"{type(exc).__name__}: {exc}"
            cells.append(
                SweepCell(
                    index=index,
                    cell_id=cell_id,
                    overrides=overrides,
                    spec=spec,
                    error=error,
                )
            )
        return cells

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "base": spec_to_payload(self.base),
            "axes": [[path, list(values)] for path, values in self.axes],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SweepSpec":
        base_payload = dict(payload["base"])
        # File-friendly shorthand: a bare [base.trace] table means a
        # declarative TraceSpec.
        trace = base_payload.get("trace")
        if isinstance(trace, Mapping) and "__trace__" not in trace:
            base_payload["trace"] = {"__trace__": "spec", **trace}
        base_payload.setdefault("trace", {"__trace__": "spec"})
        axes = payload.get("axes", [])
        if isinstance(axes, Mapping):
            axes = list(axes.items())
        return cls(
            name=payload.get("name", "sweep"),
            base=spec_from_payload({"version": 1, **base_payload}),
            axes=[(path, tuple(values)) for path, values in axes],
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a sweep from a ``.toml`` or ``.json`` grid file."""
        path = Path(path)
        if path.suffix == ".toml":
            import tomllib

            payload = tomllib.loads(path.read_text(encoding="utf-8"))
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
        return cls.from_payload(payload)

    def write(self, path: Union[str, Path]) -> None:
        """Save the sweep as a JSON grid file (round-trips from_file)."""
        Path(path).write_bytes(canonical_bytes(self.to_payload()) + b"\n")
