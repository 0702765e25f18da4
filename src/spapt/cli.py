"""Command-line front end.

Subcommands:

* ``classify``   read a JSON state document, print a full report.
* ``reproduce``  recompute the bundled reference tables and emit CSV with
                 computed-vs-reference deltas.
* ``scan``       sweep a catalog family over a parameter grid, emit CSV.

Each command writes into a buffer that reaches stdout only when the command
returns, so stdout holds a complete result or nothing. Exit codes: 0
success, 1 internal numerical failure, 2 bad input (both leave stdout empty).
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from .classify import DEFAULT_EPS, channel_minima, decide_minima
from .errors import InputError, NumericalFailure
from .linalg import hermitian_eigenvalues
from .ptranspose import QUBITS, partial_transpose
from .spa import CANONICAL_WEIGHT, THRESHOLD
from .states import (
    STATE_TOL,
    catalog,
    catalog_names,
    catalog_param_names,
    parse_state_file,
    pure_amplitudes,
    spec_to_obj,
    to_density,
)
from .tangle import three_tangle_pure


def _fmt(x: float) -> str:
    """Shortest decimal form within 12 significant digits (parameters, references)."""
    return f"{float(x):.12g}"


def _fmt_computed(x: float) -> str:
    """``_fmt`` of a computed number rounded to 1e-12 (``+ 0.0`` folds -0.0)."""
    return f"{round(float(x), 12) + 0.0:.12g}"


def _csv_line(cells) -> str:
    return ",".join(str(c) for c in cells) + "\n"


def _minima_cells(minima: dict[str, float]) -> list[str]:
    """CSV cells lam_a, lam_b, lam_c, lam_max."""
    return [_fmt_computed(minima[q]) for q in QUBITS] + [_fmt_computed(max(minima.values()))]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def build_report(spec, eps: float = DEFAULT_EPS, want_tangle: bool = False) -> dict:
    """Full classification report for a parsed state specification."""
    rho = to_density(spec)
    started = time.perf_counter()
    # first, so that a solver failure names its cut; the same solves then cannot fail
    minima = channel_minima(rho)
    pt_spectra = {q: hermitian_eigenvalues(partial_transpose(rho, q)).tolist() for q in QUBITS}
    verdict = decide_minima(minima, eps)
    report = {
        "input": spec_to_obj(spec),
        "p": CANONICAL_WEIGHT,
        "threshold": THRESHOLD,
        "pt_spectra": pt_spectra,
        "spa_min": dict(minima, max=max(minima.values())),
        "verdict": dict(asdict(verdict), cuts=list(verdict.cuts)),
        "tangle": None,
        "timing": None,
    }
    if want_tangle:
        psi = pure_amplitudes(spec)
        if psi is None:
            raise InputError("--tangle requires a pure state input")
        report["tangle"] = three_tangle_pure(psi)
    report["timing"] = {"seconds": time.perf_counter() - started}
    return report


def _pretty_report(report: dict, out) -> None:
    out.write(f"weight p = {_fmt(report['p'])}, threshold = {_fmt(report['threshold'])}\n")
    for q, spectrum in report["pt_spectra"].items():
        out.write(f"PT spectrum {q}: " + " ".join(_fmt_computed(x) for x in spectrum) + "\n")
    for q, lam in report["spa_min"].items():
        out.write(f"channel minimum {q}: {_fmt_computed(lam)}\n")
    v = report["verdict"]
    cuts = f" [{', '.join(v['cuts'])}]" if v["cuts"] else ""
    out.write(f"verdict: {v['kind']}{cuts} (margin {_fmt_computed(v['margin'])})\n")
    out.write("note: separability verdicts are necessary-condition based\n")
    if report["tangle"] is not None:
        out.write(f"three-tangle: {_fmt_computed(report['tangle'])}\n")


def cmd_classify(args, out) -> None:
    try:
        if args.state_file == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise OSError("stdin is closed")
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.state_file, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"$: cannot read {args.state_file}: {exc}") from exc
    spec = parse_state_file(text)
    report = build_report(spec, args.eps, args.tangle)
    if args.pretty:
        _pretty_report(report, out)
    else:
        out.write(json.dumps(report, indent=2))
        out.write("\n")


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# Reference rows: parameters with the published minima for the
# l0|000>+l1|100>+l2|111> family (first value column belongs to cut A; the
# family is symmetric under swapping its last two qubits, so cuts B and C
# share the second column), then the published overall maximum.
TABLE1_ROWS = [
    ((0.7, 0.1, 0.707107), 0.00101, 1.295e-18, 0.00101),
    ((0.3, 0.4, 0.866), 0.048, 0.0134, 0.048),
    ((0.7, 0.3, 0.648), 0.0093, 0.0013, 0.0093),
    ((0.1, 0.2, 0.9747), 0.0805, 0.056, 0.0805),
    ((0.2, 0.4, 0.8944), 0.0642, 0.02, 0.0642),
]

# Reference rows for l0|001>+l1|101>+l2|111> (cuts A and B share a column,
# the product cut C sits exactly at the threshold).
TABLE2_ROWS = [
    ((0.1, 0.4, 0.911), 0.0818, 0.1, 0.1),
    ((0.2, 0.4, 0.8944), 0.0642, 0.1, 0.1),
    ((0.6, 0.1, 0.7937), 0.00475, 0.1, 0.1),
    ((0.5, 0.4, 0.7681), 0.0232, 0.1, 0.1),
]


def _ghz_w_reference(q: float) -> float:
    q1 = (4.0 - q - np.sqrt(1.0 - 2.0 * q + 10.0 * q * q)) / 30.0
    q2 = (6.0 + 3.0 * q - np.sqrt(32.0 - 64.0 * q + 41.0 * q * q)) / 60.0
    return float(min(q1, q2))


def _rho2_reference(q1: float, q2: float) -> float:
    rad = 1.0 - 2.0 * q1 + 10.0 * q1 * q1 - 4.0 * q2 + 4.0 * q1 * q2 + 4.0 * q2 * q2
    return float((4.0 - q1 - np.sqrt(rad)) / 30.0)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# (label, family, params, reference overall minimum). The s2 reference is the
# published closed form; it disagrees with the value implied by the family's
# own definition (alpha/8), and the delta column makes that visible.
EXAMPLE_ROWS = [
    ("g1", "ghz", (_INV_SQRT2, _INV_SQRT2), 0.0),
    ("g2", "g2", (), 0.0434315),
    ("g3", "g3", (0.7, 0.1, 0.707107), 0.00101),
    ("ghz-w", "ghz-w", (0.5,), _ghz_w_reference(0.5)),
    ("b1", "b1", (0.3,), 0.1),
    ("b2", "b2", (0.6, 0.1, 0.7937), 0.1),
    ("kye", "kye", (4.0,), 0.11),
    ("s2", "s2", (0.9,), (0.9 + 4.0) / 40.0),
    ("s3", "s3", (0.5,), 0.1),
    ("rho1", "rho1", (0.5,), 0.05),
    ("rho2", "rho2", (0.5, 0.25), _rho2_reference(0.5, 0.25)),
]


def _reproduce_table(rows, family, pair_cuts, pair_label, other_label, out) -> None:
    """One CSV row per reference row; cuts in ``pair_cuts`` share the first
    reference column, the others the second."""
    out.write(_csv_line(
        ["l0", "l1", "l2", "renormalized", "lam_a", "lam_b", "lam_c", "lam_max",
         f"ref_{pair_label}", f"ref_{other_label}", "ref_max", "delta_max", "verdict"]
    ))
    for params, ref_pair, ref_other, ref_max in rows:
        norm2 = sum(x * x for x in params)
        minima = channel_minima(to_density(catalog(family, *params)))
        deltas = [abs(minima[q] - (ref_pair if q in pair_cuts else ref_other)) for q in QUBITS]
        deltas.append(abs(max(minima.values()) - ref_max))
        out.write(_csv_line(
            [_fmt(params[0]), _fmt(params[1]), _fmt(params[2]),
             "yes" if abs(norm2 - 1.0) > STATE_TOL else "no",
             *_minima_cells(minima),
             _fmt(ref_pair), _fmt(ref_other), _fmt(ref_max), _fmt_computed(max(deltas)),
             decide_minima(minima).label]
        ))


def cmd_reproduce(args, out) -> None:
    if args.target == "table1":
        _reproduce_table(TABLE1_ROWS, "g3", "A", "a", "bc", out)
    elif args.target == "table2":
        _reproduce_table(TABLE2_ROWS, "b2", "AB", "ab", "c", out)
    else:
        out.write(_csv_line(
            ["example", "params", "lam_a", "lam_b", "lam_c", "lam_max",
             "ref_max", "delta", "verdict"]
        ))
        for label, family, params, ref_max in EXAMPLE_ROWS:
            minima = channel_minima(to_density(catalog(family, *params)))
            out.write(_csv_line(
                [label, ";".join(_fmt(p) for p in params), *_minima_cells(minima),
                 _fmt(ref_max), _fmt_computed(max(minima.values()) - ref_max),
                 decide_minima(minima).label]
            ))


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

MAX_SCAN_ROWS = 100_000  # rows of one scan, so one argument cannot set its memory


def _parse_grid(text: str) -> tuple[str, list[float]]:
    """Parse 'name=lo:hi:count' or 'name=v1,v2,...' (one value is a one-item list)."""
    if "=" not in text:
        raise InputError(f"--grid: expected name=values, got {text!r}")
    name, _, body = text.partition("=")
    name = name.strip()
    body = body.strip()
    try:
        if ":" in body:
            lo_s, hi_s, n_s = body.split(":")
            count = int(n_s)
            if not 1 <= count <= MAX_SCAN_ROWS:
                raise ValueError(f"count must be between 1 and {MAX_SCAN_ROWS}")
            if not math.isfinite(float(hi_s) - float(lo_s)):  # so are both ends and the step
                raise ValueError("the range must be finite")
            values = np.linspace(float(lo_s), float(hi_s), count).tolist()
        else:
            values = [float(x) for x in body.split(",")]
    except ValueError as exc:
        raise InputError(f"--grid: cannot parse {text!r}: {exc}") from exc
    return name, values


def cmd_scan(args, out) -> None:
    family = args.family.lower()
    param_names = catalog_param_names(family)
    grids = {}
    for name, values in map(_parse_grid, args.grid or []):
        if name in grids:
            raise InputError(f"--grid: parameter {name!r} is given more than once")
        grids[name] = values
    rows = math.prod(len(v) for v in grids.values())
    if rows > MAX_SCAN_ROWS:
        raise InputError(f"--grid: grids give {rows} rows, more than {MAX_SCAN_ROWS}")
    unknown = set(grids) - set(param_names)
    if unknown:
        raise InputError(
            f"{family} has parameters {param_names}; unknown grid name(s) {sorted(unknown)}"
        )
    missing = [n for n in param_names if n not in grids]
    if missing:
        raise InputError(f"missing --grid for parameter(s) {missing} of {family}")

    header = list(param_names) + ["lam_a", "lam_b", "lam_c", "lam_max", "verdict"]
    if args.tangle:
        header.append("tau")
    out.write(_csv_line(header))

    for params in itertools.product(*(grids[n] for n in param_names)):
        spec = catalog(family, *params)
        minima = channel_minima(to_density(spec))
        cells = [_fmt(v) for v in params] + _minima_cells(minima)
        cells.append(decide_minima(minima, args.eps).label)
        if args.tangle:
            psi = pure_amplitudes(spec)
            if psi is None:
                raise InputError(f"--tangle requires a pure family, {family} is mixed")
            cells.append(_fmt_computed(three_tangle_pure(psi)))
        out.write(_csv_line(cells))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on the first call, not at import, with that call's cmd_* functions
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spapt",
        description="Three-qubit entanglement detection and classification "
                    "via structurally approximated partial transposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify a state from a JSON document")
    p_cls.add_argument("state_file", help="path to a JSON state document, or - for stdin")
    p_cls.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="threshold comparison tolerance, in [0, 0.1)")
    p_cls.add_argument("--tangle", action="store_true",
                       help="include the pure-state three-tangle")
    p_cls.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of JSON")
    p_cls.set_defaults(fn=cmd_classify)

    p_rep = sub.add_parser("reproduce", help="recompute bundled reference tables as CSV")
    p_rep.add_argument("target", choices=["table1", "table2", "examples"])
    p_rep.set_defaults(fn=cmd_reproduce)

    p_scan = sub.add_parser("scan", help="sweep a catalog family over a parameter grid")
    p_scan.add_argument("family", help=f"one of {', '.join(catalog_names())}")
    p_scan.add_argument("--grid", action="append", metavar="NAME=LO:HI:N",
                        help="grid for one parameter (also NAME=v1,v2,... or NAME=value)")
    p_scan.add_argument("--eps", type=float, default=DEFAULT_EPS, help="as for classify")
    p_scan.add_argument("--tangle", action="store_true",
                        help="append the three-tangle column (pure families only)")
    p_scan.set_defaults(fn=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    out = io.StringIO()
    try:
        args.fn(args, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
