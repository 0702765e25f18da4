"""The process that runs the program under test.

    python worker.py run PLAN RESULT
        Import spapt.cli, run the plan's first operation untimed (set-up),
        then, by the plan's mode: stop ("setup"), run operations in order,
        cycling, for the plan's seconds ("measure"), or run the first
        ``trace_ops`` operations, each untraced and then traced ("trace").
        Writes timings, outputs and spans to RESULT as JSON.

    python worker.py cold SPANS OP ARGV...
        A traced cold process: time `import spapt.cli` as the process.import
        span, run ``spapt.cli.main(ARGV)`` under the tracer, write the spans
        to SPANS and exit with main's code.

Kept free of numpy and of the benchmark's other modules except the tracer,
so the process holds the program and little else.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback

from tracer import IMPORT_LAYER, Tracer


def run_op(op: dict) -> dict:
    """Run one operation in-process; the time covers the call to its return."""
    if "weights" in op:
        from spapt import spa
        values = {}
        start = time.perf_counter()
        try:
            for q in op["weights"]:
                values[q] = [spa.min_cp_parameter(q), spa.min_choi_psd_parameter(q)]
        except Exception:  # the program failed this op; the run goes on
            values = {"error": traceback.format_exc()}
        return {"t": time.perf_counter() - start, "values": values}
    import spapt.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        rc = spapt.cli.main(list(op["argv"]))
    except Exception:  # the program failed this op; the run goes on
        rc = None
        err.write(traceback.format_exc())
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    return {"t": end - start, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def _measure(ops, seconds, block):
    """Run ops in order, cycling, until the deadline passes.

    Each block of ops runs on the next CPU in turn. The host slows each
    virtual CPU on its own, for seconds at a time, so a run that stayed on
    one CPU would measure that CPU's luck; taking turns samples them all.
    Only this thread is moved, so the BLAS pool keeps its default size.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        if i % block == 0:
            os.sched_setaffinity(0, {cpus[(i // block) % len(cpus)]})
        result = run_op(ops[i % len(ops)])
        result["op"] = i % len(ops)
        results.append(result)
        i += 1
    return {"elapsed": time.perf_counter() - start, "results": results}


def _trace(ops, rounds):
    """Run each op untraced and then traced, after one untimed pass that
    warms every code path. Pairing at the op keeps the host's drifting
    speed out of the overhead ratio."""
    tracer = Tracer()
    untraced = traced = 0.0
    results, wrapped = [], []
    for op in ops:
        run_op(op)
    for _ in range(rounds):
        for i, op in enumerate(ops):
            untraced += run_op(op)["t"]
            wrapped = tracer.install()
            try:
                tracer.op = len(results)
                result = run_op(op)
            finally:
                tracer.uninstall()
            traced += result["t"]
            result["op"] = i
            results.append(result)
    return {"untraced_s": untraced, "traced_s": traced, "results": results,
            "spans": tracer.spans, "wrapped": wrapped}


def run(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import spapt.cli  # noqa: F401  (the import is part of set-up)
    first = run_op(plan["ops"][0])
    report = {"setup_s": time.perf_counter() - start, "first": first}
    if plan["mode"] == "measure":
        report.update(_measure(plan["ops"], plan["seconds"], plan["block"]))
    elif plan["mode"] == "trace":
        report.update(_trace(plan["ops"][:plan["trace_ops"]], plan["rounds"]))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def cold(spans_path, op, argv):
    start = time.perf_counter()
    import spapt.cli
    end = time.perf_counter()
    tracer = Tracer()
    tracer.op = op
    tracer.record(IMPORT_LAYER, start, end)
    tracer.install()
    try:
        rc = spapt.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "cold":
        sys.exit(cold(sys.argv[2], int(sys.argv[3]), sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
