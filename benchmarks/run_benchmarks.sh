#!/bin/sh
# Entry point for the repository's performance benchmarks.
#
# Runs the end-to-end trace-replay benchmark (the inter-Coflow replay at
# paper scale; with the extension built, the python and native planners
# must produce identical records), the sweep-engine benchmark
# (serial vs parallel vs cache-warm over a δ × seed grid), the
# scheduler-kernel benchmark (numpy kernels vs the pure-Python oracle
# pipelines in tests/oracles/), the packet-simulator benchmark
# (vectorized engine vs the dict-based PacketSimulator), and
# the K-core fabric benchmark (CCT vs lower bound over K ∈ {1,2,4,8}
# with bitwise differentials), and the streaming-replay benchmark
# (bounded-memory engine with a hard peak-RSS ceiling and the
# 500-coflow byte-identity check; REPRO_STREAM_COFLOWS shrinks it for
# CI), leaving the summaries in BENCH_trace_replay.json,
# BENCH_streaming.json, BENCH_sweep_engine.json,
# BENCH_schedulers.json, BENCH_packet_sim.json, and
# BENCH_multicore.json at the repository root.  Extra arguments are
# forwarded to the trace-replay bench, e.g.:
#
#   benchmarks/run_benchmarks.sh --coflows 120 --max-width 30
#
# The paper-figure benches (bench_fig*.py etc.) stay on pytest-benchmark:
#
#   PYTHONPATH=src python -m pytest benchmarks/ -q
#
# and the δ-sensitivity figures accept REPRO_SWEEP_WORKERS=N /
# REPRO_SWEEP_CACHE=dir to parallelize and cache their sweep grids.

set -e
cd "$(dirname "$0")/.."

# When the compiled planner (repro._native) is built — and so runs by
# default — the replay bench also replays under the Python planner
# (--compare-backends), so the committed file records both backends.
replay_flags=""
if PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
        python -c "import repro._native" >/dev/null 2>&1; then
    replay_flags="--compare-backends"
fi

# Perf smoke: remember the committed replay wall before the bench
# overwrites BENCH_trace_replay.json, then warn (non-fatally) if the
# fresh run regressed by more than 25%.  Machine-to-machine variance is
# larger than that, so this only flags regressions against a baseline
# produced on the same machine — and only when the committed run used
# the planner backend this run resolves to (a native run vs a
# pure-Python baseline is a 2× "improvement" that says nothing about
# regressions).
baseline_wall=""
if [ -f BENCH_trace_replay.json ]; then
    baseline_wall=$(PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'EOF'
import json
from repro.core.sunflow import planner_backend
data = json.load(open("BENCH_trace_replay.json"))
committed = data.get("provenance", {}).get("planner_backend", "python")
print(data.get("wall_s", "") if committed == planner_backend() else "")
EOF
    )
fi
# A custom --output (or non-default trace config) diverts the summary
# away from the committed file, so the smoke comparison below would be
# apples-to-oranges — skip it.
if [ "$#" -gt 0 ]; then
    baseline_wall=""
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_trace_replay.py $replay_flags "$@"

if [ -n "$baseline_wall" ]; then
    python - "$baseline_wall" <<'EOF'
import json, sys
baseline = float(sys.argv[1])
wall = json.load(open("BENCH_trace_replay.json"))["wall_s"]
ratio = wall / baseline if baseline > 0 else 0.0
if ratio > 1.25:
    print(
        f"WARNING: trace replay took {wall:.2f}s vs committed baseline "
        f"{baseline:.2f}s ({ratio:.2f}x) — possible performance regression",
        file=sys.stderr,
    )
else:
    print(f"perf smoke: replay wall {wall:.2f}s vs baseline {baseline:.2f}s ({ratio:.2f}x)")
EOF
fi

# Streaming replay: the bench itself exits nonzero on any divergence
# from the in-memory engine or a sketch-accuracy violation; on top of
# that, same perf-smoke pattern as the replay bench.  The comparison
# only makes sense at the committed scale, so REPRO_STREAM_COFLOWS
# (the CI shrink knob) skips it.
streaming_baseline=""
if [ -f BENCH_streaming.json ] && [ -z "${REPRO_STREAM_COFLOWS:-}" ]; then
    streaming_baseline=$(python -c "import json; print(json.load(open('BENCH_streaming.json')).get('wall_s', ''))")
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_streaming.py --assert-peak-rss-mb 256

if [ -n "$streaming_baseline" ]; then
    python - "$streaming_baseline" <<'EOF'
import json, sys
baseline = float(sys.argv[1])
wall = json.load(open("BENCH_streaming.json"))["wall_s"]
ratio = wall / baseline if baseline > 0 else 0.0
if ratio > 1.25:
    print(
        f"WARNING: streaming replay took {wall:.2f}s vs committed baseline "
        f"{baseline:.2f}s ({ratio:.2f}x) — possible performance regression",
        file=sys.stderr,
    )
else:
    print(f"perf smoke: streaming replay wall {wall:.2f}s vs baseline {baseline:.2f}s ({ratio:.2f}x)")
EOF
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_sweep_engine.py

# Scheduler kernels: same perf-smoke pattern as the replay bench —
# remember the committed kernel walls, rerun, warn (non-fatally) past 25%.
sched_baseline=""
if [ -f BENCH_schedulers.json ]; then
    sched_baseline=$(python -c "import json; d = json.load(open('BENCH_schedulers.json')); print(sum(s['kernel_wall_s'] for s in d['schedulers'].values()))")
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_schedulers.py

if [ -n "$sched_baseline" ]; then
    python - "$sched_baseline" <<'EOF'
import json, sys
baseline = float(sys.argv[1])
data = json.load(open("BENCH_schedulers.json"))
wall = sum(s["kernel_wall_s"] for s in data["schedulers"].values())
ratio = wall / baseline if baseline > 0 else 0.0
if ratio > 1.25:
    print(
        f"WARNING: scheduler kernels took {wall:.2f}s vs committed baseline "
        f"{baseline:.2f}s ({ratio:.2f}x) — possible performance regression",
        file=sys.stderr,
    )
else:
    print(f"perf smoke: scheduler kernel wall {wall:.2f}s vs baseline {baseline:.2f}s ({ratio:.2f}x)")
EOF
fi

# Packet simulator: same perf-smoke pattern — remember the committed
# vectorized walls, rerun, warn (non-fatally) past 25%.
packet_baseline=""
if [ -f BENCH_packet_sim.json ]; then
    packet_baseline=$(python -c "import json; d = json.load(open('BENCH_packet_sim.json')); print(sum(s['vector_wall_s'] for s in d['scenarios'].values()))")
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_packet_sim.py

if [ -n "$packet_baseline" ]; then
    python - "$packet_baseline" <<'EOF'
import json, sys
baseline = float(sys.argv[1])
data = json.load(open("BENCH_packet_sim.json"))
wall = sum(s["vector_wall_s"] for s in data["scenarios"].values())
ratio = wall / baseline if baseline > 0 else 0.0
if ratio > 1.25:
    print(
        f"WARNING: packet simulator took {wall:.2f}s vs committed baseline "
        f"{baseline:.2f}s ({ratio:.2f}x) — possible performance regression",
        file=sys.stderr,
    )
else:
    print(f"perf smoke: packet simulator wall {wall:.2f}s vs baseline {baseline:.2f}s ({ratio:.2f}x)")
EOF
fi

# K-core fabric: same perf-smoke pattern — remember the committed sweep
# wall, rerun (the bench itself exits nonzero on any differential
# mismatch), warn (non-fatally) past 25%.
multicore_baseline=""
if [ -f BENCH_multicore.json ]; then
    multicore_baseline=$(python -c "import json; print(json.load(open('BENCH_multicore.json')).get('wall_s', ''))")
fi

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python benchmarks/bench_multicore.py

if [ -n "$multicore_baseline" ]; then
    python - "$multicore_baseline" <<'EOF'
import json, sys
baseline = float(sys.argv[1])
wall = json.load(open("BENCH_multicore.json"))["wall_s"]
ratio = wall / baseline if baseline > 0 else 0.0
if ratio > 1.25:
    print(
        f"WARNING: K-core sweep took {wall:.2f}s vs committed baseline "
        f"{baseline:.2f}s ({ratio:.2f}x) — possible performance regression",
        file=sys.stderr,
    )
else:
    print(f"perf smoke: K-core sweep wall {wall:.2f}s vs baseline {baseline:.2f}s ({ratio:.2f}x)")
EOF
fi
