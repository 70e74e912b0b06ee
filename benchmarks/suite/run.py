"""The repository benchmark: four paper-traffic workloads, one command.

Run from the root of a checkout::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
                                    [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/suite/run.py compare PARENT.jsonl CHANGE.jsonl

The tree under test (``src/``, ``setup.py``, ``pyproject.toml``) is
copied into ``.bench_build/suite/`` and its optional C extension built
there once per source digest; a failed compile falls back to pure
Python and is recorded.  Every workload then runs in its own
single-threaded process with ``PYTHONPATH`` on that copy and
``REPRO_KERNEL`` unset, so the numbers are on the default
configuration.  Without ``--workload`` all four run one after another.

Each run prints its metrics by name with units, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  ``--out`` appends the run to a JSON-lines file that
``compare`` reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD_ROOT = ROOT / ".bench_build" / "suite"
SPANS_DIR = ROOT / "benchmarks" / "results" / "suite"
WORKLOADS = ("fb-replay", "stream-narrow", "intra-baselines", "control-plane")
#: Fresh processes that only set up; with the measuring worker's own
#: set-up, ``setup_s`` is the median of five samples.
SETUP_PROBES = 4
#: What the installed copy holds.
TREE = ("src", "setup.py", "pyproject.toml")

sys.path.insert(0, str(SUITE))
from measure import verdict  # noqa: E402


class BenchmarkError(RuntimeError):
    """The benchmark could not run (missing tree, worker crash)."""


# ----------------------------------------------------------------------
# Installing the tree under test
# ----------------------------------------------------------------------
def _tree_files(root: Path) -> List[Path]:
    files = []
    for entry in TREE:
        path = root / entry
        if path.is_dir():
            files += sorted(
                p
                for p in path.rglob("*")
                if p.is_file()
                and "__pycache__" not in p.parts
                and p.suffix not in (".pyc", ".so", ".o")
                and not any(part.endswith(".egg-info") for part in p.parts)
            )
        elif path.is_file():
            files.append(path)
        else:
            raise BenchmarkError(f"{path} is missing: nothing to benchmark")
    return files


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and contents of the tree."""
    sha = hashlib.sha256()
    for path in _tree_files(root):
        sha.update(str(path.relative_to(root)).encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    return sha.hexdigest()


def worker_env(site: Optional[Path]) -> Dict[str, str]:
    """Default configuration, one thread, the installed copy first."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    if site is not None:
        env["PYTHONPATH"] = str(site / "src")
    return env


def install(root: Path) -> Dict[str, object]:
    """Copy the tree and build it once per source digest; returns the
    install record (``site`` directory, ``native_built``, ``log``)."""
    tree = tree_digest(root)
    site = BUILD_ROOT / f"tree-{tree[:16]}"
    record_path = site / "install.json"
    if record_path.exists():
        return {**json.loads(record_path.read_text()), "site": str(site)}
    staging = BUILD_ROOT / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        for entry in TREE:
            source = root / entry
            if source.is_dir():
                shutil.copytree(
                    source,
                    staging / entry,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.o", "*.egg-info"),
                )
            else:
                shutil.copy2(source, staging / entry)
        env = worker_env(None)
        build = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=staging,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        native_built = any((staging / "src" / "repro").glob("_native*.so"))
        log = (build.stdout + build.stderr).strip().splitlines()[-3:]
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src"],
            cwd=staging,
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
        record = {
            "tree": tree,
            "native_built": native_built,
            "build_exit": build.returncode,
            "log": [] if native_built else log,
        }
        (staging / "install.json").write_text(json.dumps(record))
        if site.exists():  # another run finished first
            shutil.rmtree(staging)
        else:
            staging.rename(site)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return {**json.loads(record_path.read_text()), "site": str(site)}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` directly (the benchmark
    must not pick up an enclosing repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------
# Running workloads
# ----------------------------------------------------------------------
def run_worker(args: List[str], env: Dict[str, str], timeout: float) -> Dict[str, object]:
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(SUITE / "worker.py"), "--workdir", str(BUILD_ROOT)] + args
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {args}") from exc
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"worker exited with {done.returncode}: {args}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    name: str, seed: int, seconds: float, trace: bool, env: Dict[str, str]
) -> Dict[str, object]:
    """One run of one workload: the measuring worker between set-up
    probes, half before and half after it, so the five set-up samples
    span the run."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = 0 if trace else SETUP_PROBES

    def probe() -> float:
        return run_worker(base + ["--setup-only"], env, 120)["setup_s"]

    setups = [probe() for _ in range(probes // 2)]
    extra = ["--trace", str(int(trace))]
    if trace:
        extra += ["--spans-out", str(SPANS_DIR / f"{name}-seed{seed}.spans.jsonl")]
    worker = run_worker(base + extra, env, 6 * seconds + 120)
    metrics = dict(worker["metrics"])
    if not trace:
        setups += [worker["setup_s"]] + [probe() for _ in range(probes - probes // 2)]
        metrics["setup_s"] = statistics.median(setups)
    worker["setup_samples_s"] = setups
    worker["metrics"] = metrics
    return worker


def load_benchmark() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(worker: Dict[str, object], units: Dict[str, str]) -> Dict[str, object]:
    """The contract's result object for one run."""
    metrics = worker["metrics"]
    return {
        "correct": worker["failed"] == 0 and worker["golden"] != "mismatch",
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def report(worker: Dict[str, object], result: Dict[str, object]) -> None:
    print(
        f"{worker['workload']} seed={worker['seed']} passes={worker['passes']} "
        f"decisions/pass={worker['decisions_per_pass']} attempted={worker['attempted']} "
        f"failed={worker['failed']} golden={worker['golden']} digest={worker['digest'][:16]}"
    )
    for problem in worker["problems"]:
        print(f"  problem: {problem}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    if worker["trace"]:
        print(
            f"  self times sum to {worker['self_sum_s']:.6f} s; "
            f"traced pass wall {worker['traced_wall_s']:.6f} s"
        )
        if worker["absent"]:
            print(f"  absent: {', '.join(worker['absent'])}")
        print(f"  spans: {worker.get('spans_file')}")
    else:
        ratio = worker["failed"] / worker["attempted"] if worker["attempted"] else 0.0
        print(f"  {'failed_ratio':<44} {ratio:>14.6g} fraction")


def run(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in bench[key]}
    installed = install(ROOT)
    env = worker_env(Path(installed["site"]))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        worker = measure(name, args.seed, args.seconds, bool(args.trace), env)
        worker["provenance"].update(
            commit=git_commit(ROOT),
            tree=installed["tree"],
            native_built=installed["native_built"],
        )
        result = result_line(worker, units)
        print(f"provenance {json.dumps(worker['provenance'], sort_keys=True)}")
        if not installed["native_built"]:
            print(f"  native build failed, pure Python: {installed['log']}")
        report(worker, result)
        results[name] = result
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": name, "seed": args.seed,
                                      "trace": args.trace, "result": result,
                                      "worker": worker}) + "\n")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------
def _load_runs(path: Path) -> Dict[str, Dict[int, Dict[str, float]]]:
    """``workload -> seed -> metric -> value`` for the end-to-end runs."""
    runs: Dict[str, Dict[int, Dict[str, float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        if entry["trace"]:
            continue
        values = {name: m["value"] for name, m in entry["result"]["metrics"].items()}
        runs.setdefault(entry["workload"], {})[entry["seed"]] = values
    return runs


def compare(parent_path: Path, change_path: Path) -> int:
    """Print each side's quartiles and a verdict per workload and metric."""
    bench = load_benchmark()
    parent, change = _load_runs(parent_path), _load_runs(change_path)
    print(
        f"{'workload':<16} {'metric':<16} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'gain':>7} {'spread':>7} {'maxgap':>7} "
        f"{'wins':>7} {'bound':>6} verdict"
    )
    for workload in WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if not seeds:
            print(f"{workload}: no seed was run on both sides")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [parent[workload][s][name] for s in seeds]
            b = [change[workload][s][name] for s in seeds]
            v = verdict(a, b, metric["better"], metric["bound"])
            gap = max(abs(y - x) / abs(x) if x else 0.0 for x, y in zip(a, b))
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(
                f"{workload:<16} {name:<16} {fmt(v['parent']):>32} {fmt(v['change']):>32} "
                f"{v['gain']:>+7.3f} {v['spread']:>7.3f} {gap:>7.3f} "
                f"{v['wins']:>3}/{v['pairs']:<3} {metric['bound']:>6.2f} {v['verdict']}"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="append each run to this JSON-lines file")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
