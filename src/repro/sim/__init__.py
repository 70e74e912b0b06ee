"""Flow-level discrete-event simulators for circuit and packet networks."""

from repro.sim.aalo import AaloAllocator
from repro.sim.assignment_exec import ExecutionResult, SwitchModel, execute_assignments
from repro.sim.circuit_sim import (
    InterCoflowSimulator,
    simulate_inter_sunflow,
    simulate_intra_assignment,
    simulate_intra_sunflow,
)
from repro.sim.engine import Event, EventQueue
from repro.sim.hybrid import (
    HybridConfig,
    simulate_inter_hybrid,
    simulate_intra_hybrid,
    split_coflow,
    split_trace,
)
from repro.sim.multicore_sim import (
    MultiCoreInterSimulator,
    simulate_inter_multicore,
    simulate_intra_multicore,
)
from repro.sim.packet_sim import (
    PacketCoflowState,
    PacketSimulator,
    RateAllocator,
    simulate_packet,
)
from repro.sim.packet_vector import VectorPacketSimulator, vector_capable
from repro.sim.results import (
    CoflowRecord,
    SimulationReport,
    make_record,
    mean,
    percentile,
    summarize,
)
from repro.sim.streaming import (
    StreamingReport,
    StreamingResult,
    simulate_inter_sunflow_stream,
)
from repro.sim.varys import VarysAllocator

__all__ = [
    "AaloAllocator",
    "ExecutionResult",
    "SwitchModel",
    "execute_assignments",
    "InterCoflowSimulator",
    "simulate_inter_sunflow",
    "simulate_intra_assignment",
    "simulate_intra_sunflow",
    "MultiCoreInterSimulator",
    "simulate_inter_multicore",
    "simulate_intra_multicore",
    "Event",
    "EventQueue",
    "HybridConfig",
    "simulate_inter_hybrid",
    "simulate_intra_hybrid",
    "split_coflow",
    "split_trace",
    "PacketCoflowState",
    "PacketSimulator",
    "RateAllocator",
    "VectorPacketSimulator",
    "vector_capable",
    "simulate_packet",
    "CoflowRecord",
    "SimulationReport",
    "make_record",
    "mean",
    "percentile",
    "summarize",
    "StreamingReport",
    "StreamingResult",
    "simulate_inter_sunflow_stream",
    "VarysAllocator",
]
