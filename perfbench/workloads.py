"""Seeded inputs for the four workloads, with their oracle checks.

``build(name, seed, workdir)`` writes any input files into ``workdir`` and
returns a :class:`Workload`: the operations to run, in order, and one check
per operation. The same seed gives byte-identical files and identical
operations. The program under test sees only the files and argv.

An operation's check returns one entry per unit of work it counts (one per
document, one per CSV row, one per weights op, one per cold pair), ``None``
for a verified unit and a reason string for a failed one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

NAMES = ("classify-docs", "scan-grid", "cold-start", "channel-weights")
CORPUS_SIZE = 420
DOC_KINDS = ("dense", "lowrank", "pure", "mix", "catalog")
INVALID_KINDS = ("schema", "off-norm", "nan-amplitude", "param-count")
# One invalid document closes each block of 21, so every block holds four of
# each valid kind and each CPU the worker turns to gets the same mix.
INVALID_EVERY = 21
SCAN_GRIDS = 4
RHO2_SIDE = 12
GHZW_POINTS = 48
COLD_DOCS = 8


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[dict]
    checks: list[Callable[[dict], list]]
    kinds: list[str]  # per op, for per-kind medians
    block: int = 1  # consecutive ops the worker runs on one CPU before moving on


def _dense(rng, rank=8) -> np.ndarray:
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def _matrix_doc(rho):
    return {"matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()}}


def _pure_doc(rng):
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi = psi / np.linalg.norm(psi)
    return {"pure": {"amplitudes": [[float(a.real), float(a.imag)] for a in psi]}}


def _unit_params(rng, n):
    v = np.abs(rng.standard_normal(n))
    return [float(x) for x in v / np.linalg.norm(v)]


def _catalog_doc(rng):
    """A catalog entry across the families, including states that sit exactly
    on the threshold: b2 and s3 (product in cut C) and product states."""
    pick = int(rng.integers(16))
    q = float(rng.uniform())
    name, params = [
        ("ghz", _unit_params(rng, 2)),
        ("w", _unit_params(rng, 3)),
        ("wtilde", []),
        ("g2", []),
        ("g3", _unit_params(rng, 3)),
        ("b2", _unit_params(rng, 3)),
        ("ghz-w", [q]),
        ("b1", [q]),
        ("kye", [2.0 + 4.0 * q]),
        ("s2", [q]),
        ("s3", [q]),
        ("rho1", [q]),
        ("rho2", [q / 2.0, float(rng.uniform(0.0, 1.0 - q / 2.0))]),
        ("ghz", [1.0, 0.0]),
        ("w", [0.0, 0.0, 1.0]),
        ("b2", [0.0, 0.0, 1.0]),
    ][pick]
    return {"catalog": {"name": name, "params": params}}


def _mix_doc(rng):
    """Nested mix: a pure part and an inner mix of a catalog and a matrix part."""
    w, u = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
    inner = {"mix": {"parts": [
        {"weight": u, "state": _catalog_doc(rng)},
        {"weight": 1.0 - u, "state": _matrix_doc(_dense(rng))},
    ]}}
    return {"mix": {"parts": [
        {"weight": w, "state": _pure_doc(rng)},
        {"weight": 1.0 - w, "state": inner},
    ]}}


def _invalid_doc(rng, kind):
    if kind == "schema":
        return {"pure": {"amps": _pure_doc(rng)["pure"]["amplitudes"]}}
    if kind == "off-norm":
        doc = _pure_doc(rng)
        doc["pure"]["amplitudes"] = [[1.2 * re, 1.2 * im] for re, im in doc["pure"]["amplitudes"]]
        return doc
    if kind == "nan-amplitude":
        doc = _pure_doc(rng)
        doc["pure"]["amplitudes"][int(rng.integers(8))] = float("nan")
        return doc
    return {"catalog": {"name": "g3", "params": _unit_params(rng, 2)}}


def make_doc(rng, kind):
    if kind == "dense":
        return _matrix_doc(_dense(rng))
    if kind == "lowrank":
        return _matrix_doc(_dense(rng, rank=int(rng.integers(2, 5))))
    if kind == "pure":
        return _pure_doc(rng)
    if kind == "mix":
        return _mix_doc(rng)
    if kind == "catalog":
        return _catalog_doc(rng)
    return _invalid_doc(rng, kind)


def corpus_kinds(n: int) -> list[str]:
    """Kind of each corpus position: valid kinds in equal shares, in a fixed
    cycle, with the last document of every block of INVALID_EVERY invalid."""
    kinds, valid = [], 0
    for i in range(n):
        if i % INVALID_EVERY == INVALID_EVERY - 1:
            kinds.append(INVALID_KINDS[(i // INVALID_EVERY) % len(INVALID_KINDS)])
        else:
            kinds.append(DOC_KINDS[valid % len(DOC_KINDS)])
            valid += 1
    return kinds


def _classify_check(expected):
    return lambda r: [oracle.check_classify(expected, r["rc"], r["out"], r["err"])]


def _write_doc(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def classify_docs(seed, workdir, n=CORPUS_SIZE) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops, checks, kinds = [], [], corpus_kinds(n)
    for i, kind in enumerate(kinds):
        doc = make_doc(rng, kind)
        path = os.path.join(workdir, f"doc-{i:04d}.json")
        _write_doc(path, doc)
        tangle = kind == "pure"
        ops.append({"argv": ["classify", path] + (["--tangle"] if tangle else [])})
        checks.append(_classify_check(None if kind in INVALID_KINDS else oracle.expect_classify(doc, tangle)))
    return Workload("classify-docs", "docs", ops, checks, kinds, INVALID_EVERY)


def _grid_arg(name, values):
    return f"{name}=" + ",".join(repr(float(v)) for v in values)


def _scan_check(param_names, expected):
    return lambda r: oracle.check_scan_rows(param_names, expected, r["out"]) if r["rc"] == 0 \
        else [f"exit {r['rc']}: {r['err'].strip()[:200]}"] * len(expected)


def scan_grid(seed, workdir=None) -> Workload:
    """rho2 over 2-D grids inside q1 + q2 <= 1, alternating with ghz-w over
    1-D grids. Every grid point is a valid state."""
    rng = np.random.default_rng([seed, 2])
    ops, checks, kinds = [], [], []
    for _ in range(SCAN_GRIDS):
        s = float(rng.uniform(0.3, 0.7))
        q1 = np.sort(rng.uniform(0.0, s, RHO2_SIDE))
        q2 = np.sort(rng.uniform(0.0, 1.0 - s, RHO2_SIDE))
        grid = [(float(a), float(b)) for a in q1 for b in q2]
        ops.append({"argv": ["scan", "rho2", "--grid", _grid_arg("q1", q1), "--grid", _grid_arg("q2", q2)]})
        checks.append(_scan_check(("q1", "q2"), oracle.expect_scan("rho2", grid)))
        kinds.append("rho2")
        q = np.sort(rng.uniform(0.0, 1.0, GHZW_POINTS))
        ops.append({"argv": ["scan", "ghz-w", "--grid", _grid_arg("q", q)]})
        checks.append(_scan_check(("q",), oracle.expect_scan("ghz-w", [(float(v),) for v in q])))
        kinds.append("ghz-w")
    return Workload("scan-grid", "rows", ops, checks, kinds, 2)


def _cold_check(expected):
    def check(r):
        classify, reproduce = r["runs"]
        reason = oracle.check_classify(expected, classify["rc"], classify["out"], classify["err"])
        return [reason or oracle.check_examples(reproduce["rc"], reproduce["out"], reproduce["err"])]
    return check


def cold_start(seed, workdir) -> Workload:
    """Pairs of fresh processes: classify a small catalog doc, then
    reproduce examples."""
    rng = np.random.default_rng([seed, 3])
    ops, checks = [], []
    for i in range(COLD_DOCS):
        doc = _catalog_doc(rng)
        path = os.path.join(workdir, f"cold-{i}.json")
        _write_doc(path, doc)
        ops.append({"runs": [["classify", path], ["reproduce", "examples"]]})
        checks.append(_cold_check(oracle.expect_classify(doc, False)))
    return Workload("cold-start", "pairs", ops, checks, ["pair"] * len(ops))


def channel_weights(seed, workdir=None) -> Workload:
    """Both weight functions for all three cuts per op, cut order seeded.
    The weights take no state input, so the seed only orders the cuts."""
    rng = np.random.default_rng([seed, 4])
    ops = [{"weights": "".join(rng.permutation(list(oracle.CUTS)))} for _ in range(6)]
    checks = [lambda r: [oracle.check_weights(r["values"])]] * len(ops)
    return Workload("channel-weights", "ops", ops, checks, ["weights"] * len(ops))


BUILDERS = {
    "classify-docs": classify_docs,
    "scan-grid": scan_grid,
    "cold-start": cold_start,
    "channel-weights": channel_weights,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    return BUILDERS[name](seed, workdir)
