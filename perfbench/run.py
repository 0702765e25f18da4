#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spapt verdict pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory and
the package is loaded from its ``src``. The workload's inputs are made from
the seed, every output is checked against the independent oracle, and the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; ``--trace 1`` gives the per-layer ones instead, from a run
that wraps the package's public functions. Lines before it record the
environment, sample counts and the same numbers under their workload names.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TRACE_OPS = {"classify-docs": 100, "scan-grid": 2, "cold-start": 3, "channel-weights": 3}
TRACE_ROUNDS = 2
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import spapt.cli; "
    "print(time.perf_counter() - t)"
)
# Workload-specific names of the end-to-end metrics, as the project's plans cite them.
ALIASES = {
    "classify-docs": {"ops_per_s": "classify_docs_per_s", "p50_ms": "classify_p50_ms",
                      "tail_ms": "classify_p99_ms"},
    "scan-grid": {"ops_per_s": "scan_rows_per_s"},
    "cold-start": {},
    "channel-weights": {"p50_ms": "weights_p50_ms"},
}
UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(HERE)
    return env


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "numba_imports": has_numba,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def tail(values):
    """p99 when at least ten samples lie beyond it, else the highest
    percentile that does have ten beyond it (the 11th-slowest sample), or
    the slowest when there are ten or fewer. Returns (value, percentile)."""
    s = sorted(values)
    i = min(math.ceil(0.99 * len(s)) - 1, len(s) - 11) if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def worker(plan: dict, workdir: Path, timeout: float) -> dict:
    plan_path, result_path = workdir / "plan.json", workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(plan_path), str(result_path)],
                   cwd=ROOT, env=program_env(), check=True, timeout=timeout)
    report = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return report


def cold_process(argv, spans_path: Path | None = None, op: int = 0) -> dict:
    """One fresh process; traced through worker.py when spans_path is set."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "spapt.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "cold", str(spans_path), str(op), *argv]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=60)
    return {"t": time.perf_counter() - start, "rc": done.returncode, "out": done.stdout, "err": done.stderr}


def cold_pair(op: dict, spans_dir: Path | None = None, op_id: int = 0) -> dict:
    runs = [cold_process(argv, spans_dir and spans_dir / f"spans-{op_id}.{k}.json", op_id)
            for k, argv in enumerate(op["runs"])]
    return {"t": sum(r["t"] for r in runs), "runs": runs}


def cold_setup() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=program_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Tally:
    """Verified units, failures with their first reasons, and latencies."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.attempted = self.failed = 0
        self.reasons: list[str] = []
        self.latencies: list[float] = []  # per op, its seconds per unit
        self.by_kind: dict[str, list[float]] = {}

    def add(self, result: dict) -> None:
        outcome = self.wl.checks[result["op"]](result)
        self.attempted += len(outcome)
        bad = [r for r in outcome if r is not None]
        self.failed += len(bad)
        self.reasons.extend(bad[: max(0, 5 - len(self.reasons))])
        lat = result["t"] / len(outcome)
        self.latencies.append(lat)
        self.by_kind.setdefault(self.wl.kinds[result["op"]], []).append(lat)
        for k, run in enumerate(result.get("runs", [])):
            self.by_kind.setdefault(("classify", "reproduce")[k], []).append(run["t"])


def measure(wl: workloads.Workload, seconds: float, workdir: Path):
    tally = Tally(wl)
    if wl.name == "cold-start":
        setups = [cold_setup() for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        i = 0
        while time.perf_counter() < start + seconds:
            result = cold_pair(wl.ops[i % len(wl.ops)])
            result["op"] = i % len(wl.ops)
            tally.add(result)
            i += 1
        elapsed = time.perf_counter() - start
    else:
        plan = {"ops": wl.ops, "seconds": seconds, "block": wl.block, "mode": "setup"}
        setups = [worker(plan, workdir, 120)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        report = worker(dict(plan, mode="measure"), workdir, seconds + 120)
        setups.append(report["setup_s"])
        first = dict(report["first"], op=0)
        if any(wl.checks[0](first)):
            tally.reasons.append("set-up op failed its check")
        for result in report["results"]:
            tally.add(result)
        elapsed = report["elapsed"]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    tail_value, tail_pct = tail(tally.latencies)
    metrics = {
        "ops_per_s": (tally.attempted - tally.failed) / elapsed,
        "p50_ms": 1e3 * statistics.median(tally.latencies),
        "tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "elapsed_s": elapsed,
        "samples": len(tally.latencies),
        "tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(tally.by_kind.items())},
    }
    return tally, metrics, detail


def _merge_spans(merged: list, spans: list) -> None:
    offset = len(merged)
    for name, start, end, parent, op, n, error in spans:
        merged.append((name, start, end, parent + offset if parent >= 0 else -1, op, n, error))


def trace(wl: workloads.Workload, workdir: Path):
    tally = Tally(wl)
    ops = wl.ops[: TRACE_OPS[wl.name]]
    if wl.name == "cold-start":
        spans, walls, untraced, traced = [], [], 0.0, 0.0
        for _ in range(TRACE_ROUNDS):
            for i, op in enumerate(ops):
                untraced += cold_pair(op)["t"]
                op_id = len(walls)
                result = cold_pair(op, workdir, op_id)
                for k in range(len(op["runs"])):
                    path = workdir / f"spans-{op_id}.{k}.json"
                    _merge_spans(spans, json.loads(path.read_text(encoding="utf-8")))
                    path.unlink()
                result["op"] = i
                tally.add(result)
                walls.append(result["t"])
                traced += result["t"]
        wrapped = None
    else:
        plan = {"ops": ops, "mode": "trace", "trace_ops": len(ops), "rounds": TRACE_ROUNDS}
        report = worker(plan, workdir, 170)
        for result in report["results"]:
            tally.add(result)
        spans, walls = [tuple(s) for s in report["spans"]], [r["t"] for r in report["results"]]
        untraced, traced, wrapped = report["untraced_s"], report["traced_s"], report["wrapped"]
    metrics = tracer.layer_metrics(spans, tally.attempted, sum(walls))
    metrics["trace.overhead_ratio"] = traced / untraced
    detail = {"traced_units": tally.attempted, "spans": len(spans), "wrapped": wrapped}
    return tally, metrics, detail, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spapt" / "cli.py").is_file():
        print(f"error: no spapt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir))
        env = environment(args.seed)
        if args.trace:
            tally, metrics, detail, spans = trace(wl, workdir)
            units = PER_LAYER_UNITS
        else:
            tally, metrics, detail = measure(wl, args.seconds, workdir)
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        spans_out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        spans_out.write_text(json.dumps(spans), encoding="utf-8")
        detail["spans_file"] = str(spans_out.relative_to(ROOT))
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))
    print("# detail " + json.dumps(detail))
    for name, value in metrics.items():
        alias = ALIASES[args.workload].get(name)
        print(f"{name:44s} {value:14.6g} {units[name]}" + (f"   ({alias})" if alias else ""))
    print(f"{'fail_share':44s} {tally.failed}/{tally.attempted} {wl.unit}")
    for reason in tally.reasons:
        print(f"# failed: {reason}")
    correct = tally.failed == 0 and not tally.reasons and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracer.ALL_LAYERS:
        units[f"{layer}.calls_per_op"] = "calls/op"
        units[f"{layer}.self_ms_per_op"] = "ms/op"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.errors"] = "count"
        if layer == tracer.SIZED_LAYER:
            for n in tracer.SIZES:
                units[f"{layer}.calls_per_op.n{n}"] = "calls/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()

if __name__ == "__main__":
    sys.exit(main())
