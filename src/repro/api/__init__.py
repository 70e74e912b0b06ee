"""Unified simulation facade (``repro.api``).

The one-call surface over the repository's seven historical entry points:
build a frozen :class:`SimulationSpec` and hand it to :func:`simulate`.
Specs are declarative and JSON-serializable, which is what lets the
:mod:`repro.sweep` engine fan grids of them across worker processes and
content-hash them for its result cache.

    from repro.api import NetworkSpec, SimulationSpec, TraceSpec, simulate

    spec = SimulationSpec(
        trace=TraceSpec(num_coflows=200, max_width=40, seed=2016, perturb=0.05),
        mode="inter",
        scheduler="sunflow",
        network=NetworkSpec(bandwidth_bps=1e9, delta=0.01),
    )
    report = simulate(spec)

The ``simulate_*`` functions it dispatches to stay public and take the
same canonical ``bandwidth_bps``/``delta`` keywords.
"""

from repro.api.facade import simulate
from repro.api.spec import (
    MODES,
    PAYLOAD_VERSION,
    SCHEDULERS,
    GuardSpec,
    NetworkSpec,
    SimulationSpec,
    TraceSpec,
    override_spec,
    spec_from_payload,
    spec_to_payload,
)

__all__ = [
    "simulate",
    "MODES",
    "SCHEDULERS",
    "PAYLOAD_VERSION",
    "GuardSpec",
    "NetworkSpec",
    "SimulationSpec",
    "TraceSpec",
    "override_spec",
    "spec_from_payload",
    "spec_to_payload",
]
