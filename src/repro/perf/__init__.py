"""Performance observability for the simulation hot paths.

* :class:`PerfCounters` — named counters and per-phase wall timers used by
  the inter-Coflow simulator to report replans avoided, reservations
  made/replayed, and where time went.
* :mod:`repro.perf.replay_bench` — the end-to-end trace-replay benchmark
  comparing the incremental replanner against the full-replan path.
* :func:`bench_provenance` — backend/host provenance (kernel backend,
  native-extension availability, cpu count, python version) attached to
  every ``BENCH_*.json`` by the bench CLIs.
* :data:`scheduler_counters` — process-wide counters for the baseline
  scheduler layer (``matchings_extracted``, ``stuffing_iterations``,
  ``slices_emitted``, ``bvn_permutations``, ``hungarian_solves``),
  incremented by the kernel layer and the scheduler pipeline and surfaced
  in ``BENCH_schedulers.json``.
* :data:`packet_counters` — process-wide counters for the fluid packet
  simulators (``rate_reallocations``, ``allocator_passes``,
  ``flows_active_peak``, ``events_processed``), incremented identically
  by the reference and array-backed engines and surfaced in
  ``BENCH_packet_sim.json``.
"""

from typing import Any, Dict, Optional

from repro.perf.counters import (
    PLAN_SUBTIMERS,
    PerfCounters,
    process_timers,
    reset_process_timers,
)


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, in bytes (None if unknown).

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — kilobytes on Linux, bytes
    on macOS — so the value is a high-water mark over the whole process
    lifetime: it can only grow.  The streaming benchmark asserts its
    memory ceiling on this number (a flat peak across a million-coflow
    replay is the whole point), and :func:`bench_provenance` stamps it
    into every ``BENCH_*.json``.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> Optional[int]:
    """Current resident set size in bytes via ``/proc`` (None elsewhere).

    Unlike :func:`peak_rss_bytes` this can go down, so the streaming
    benchmark samples it at checkpoints to show the *trajectory* is flat,
    not just the final high-water mark.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as statm:
            fields = statm.read().split()
        import os

        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def bench_provenance() -> Dict[str, Any]:
    """Machine and backend provenance stamped into every ``BENCH_*.json``.

    Perf trajectories are only comparable when the runs they came from
    are: the same bench is 2× faster with the compiled planner built, and
    multicore numbers depend on the host's core count.  Every bench CLI
    attaches this dict under a ``"provenance"`` key so a committed JSON
    records *what* produced it, not just the numbers.

    Keys:
        ``repro_kernel``
            The selected backend (:func:`repro.backend.active_backend`).
        ``planner_backend``
            Which planner and PRT-transaction loops actually run:
            ``"native"`` when the extension is built and selected (the
            default when built), else ``"python"``.
        ``native_extension_available``
            Whether :mod:`repro._native` is built and layout-compatible
            (independent of whether it is selected).
        ``cpu_count`` / ``python_version`` / ``platform``
            The host context.
        ``peak_rss_bytes``
            Process peak resident memory at stamping time (None when the
            platform cannot report it) — so every committed bench payload
            records memory alongside wall time.
    """
    import os
    import platform as platform_mod

    from repro import backend

    return {
        "repro_kernel": backend.active_backend(),
        "planner_backend": backend.planner_backend(),
        "native_extension_available": backend.native_available(),
        "cpu_count": os.cpu_count(),
        "python_version": platform_mod.python_version(),
        "platform": platform_mod.platform(),
        "peak_rss_bytes": peak_rss_bytes(),
    }

#: Process-wide counters for the baseline scheduler / kernel layer.
#: Benchmarks ``reset()`` this before a run and ``snapshot()`` it after;
#: leaving it always-on costs one dict update per decomposition step.
scheduler_counters = PerfCounters()

#: Process-wide counters for the packet-switched simulators (both the
#: reference and the vectorized engine increment the same names, so a
#: mismatch in ``events_processed`` between backends is itself a bug
#: signal).  ``flows_active_peak`` is an ``observe_max`` high-water mark.
packet_counters = PerfCounters()

__all__ = [
    "PLAN_SUBTIMERS",
    "PerfCounters",
    "bench_provenance",
    "peak_rss_bytes",
    "current_rss_bytes",
    "process_timers",
    "reset_process_timers",
    "scheduler_counters",
    "packet_counters",
]
