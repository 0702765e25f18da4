"""Three-qubit state construction, validation, the named catalog, and JSON I/O.

Basis convention: the computational label ``abc`` maps to index ``4a + 2b + c``,
so the first qubit (A) is the most significant bit and an 8x8 density matrix
splits into a 4x4 grid of 2x2 blocks indexed by the A and B bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadWeights,
    InvariantViolation,
    NotNormalized,
    ParamOutOfRange,
    SchemaError,
    UnknownName,
)
from .linalg import dagger, hermiticity_defect, min_eigenvalue

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
RAW_HERM_TOL = 1e-8
# Named catalog entries renormalize their amplitude parameters when the norm
# is off by at most this much; direct "pure" input stays strict at NORM_TOL.
CATALOG_NORM_SLACK = 1e-3
# Deepest accepted nesting of "mix" objects in a state document. A fixed limit,
# so acceptance does not depend on how deep the caller's stack already is.
MAX_MIX_DEPTH = 64

DIM = 8


def ket(label: str) -> np.ndarray:
    """Computational basis vector for a label like '010'."""
    if len(label) != 3 or any(ch not in "01" for ch in label):
        raise ValueError(f"bad basis label {label!r}")
    v = np.zeros(DIM, dtype=np.complex128)
    v[int(label, 2)] = 1.0
    return v


def _first_nonfinite(values: np.ndarray) -> int | None:
    """Flat index of the first NaN or infinite entry, or None."""
    bad = np.flatnonzero(~np.isfinite(values))
    return int(bad[0]) if bad.size else None


def pure_state(amplitudes: Sequence[complex]) -> np.ndarray:
    """Validate and return an 8-amplitude pure state (unit norm required)."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if psi.shape != (DIM,):
        raise NotNormalized(f"expected 8 amplitudes, got {psi.shape}")
    i = _first_nonfinite(psi)
    if i is not None:
        raise NotNormalized(f"amplitude {i} is {psi[i]!r}, not finite")
    norm2 = float(np.sum(np.abs(psi) ** 2))
    if abs(norm2 - 1.0) > NORM_TOL:
        raise NotNormalized(f"squared norm {norm2!r} differs from 1 beyond {NORM_TOL}")
    return psi


def density_from_pure(psi: Sequence[complex]) -> np.ndarray:
    """Rank-one density matrix of a normalized pure state."""
    psi = pure_state(psi)
    return np.outer(psi, psi.conj())


def as_density_matrix(m: np.ndarray) -> np.ndarray:
    """Validate an 8x8 density matrix (Hermitian, unit trace, PSD).

    Hermiticity defects below ``RAW_HERM_TOL`` are symmetrized away, which
    tolerates benign I/O rounding; anything larger is rejected.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (DIM, DIM):
        raise InvariantViolation("shape", f"expected 8x8, got {m.shape}")
    i = _first_nonfinite(m)
    if i is not None:
        raise InvariantViolation("finite", f"entry {divmod(i, DIM)} is {m.flat[i]!r}")
    defect = hermiticity_defect(m)
    if defect > RAW_HERM_TOL:
        raise InvariantViolation("hermitian", f"defect {defect:.3e}")
    m = (m + dagger(m)) / 2.0
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation("trace", f"trace {tr!r}")
    lo = min_eigenvalue(m)
    if lo < -PSD_TOL:
        raise InvariantViolation("psd", f"minimum eigenvalue {lo:.3e}")
    return m


def convex_mix(parts: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Probabilistic mixture of density matrices."""
    parts = list(parts)
    if not parts:
        raise BadWeights("empty mixture")
    weights = np.array([float(w) for w, _ in parts])
    i = _first_nonfinite(weights)
    if i is not None:
        raise BadWeights(f"weight {i} is {weights[i]!r}, not finite")
    if np.any(weights < 0.0):
        raise BadWeights(f"negative weight {weights.min()!r}")
    if abs(weights.sum() - 1.0) > NORM_TOL:
        raise BadWeights(f"weights sum to {weights.sum()!r}")
    out = np.zeros((DIM, DIM), dtype=np.complex128)
    for w, rho in parts:
        out += w * np.asarray(rho, dtype=np.complex128)
    return as_density_matrix(out)


# ---------------------------------------------------------------------------
# State specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Parsed description of a state: pure amplitudes, a raw matrix, a
    weighted mixture of nested specs, or a named catalog entry."""

    kind: str
    amplitudes: tuple[complex, ...] | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None
    parts: tuple[tuple[float, "StateSpec"], ...] | None = None
    name: str | None = None
    params: tuple[float, ...] | None = None


# name -> (parameter names, realization); realizations defined below
_CATALOG: dict[str, tuple[tuple[str, ...], object]] = {}


def _register(name, param_names):
    def deco(fn):
        _CATALOG[name] = (param_names, fn)
        return fn

    return deco


def _unit_params(params, where):
    """Renormalize a real amplitude-parameter vector, within the catalog slack."""
    v = np.asarray(params, dtype=float)
    norm2 = float(np.sum(v * v))
    if abs(norm2 - 1.0) > CATALOG_NORM_SLACK:
        raise ParamOutOfRange(f"{where}: squared norm {norm2!r} too far from 1")
    return v / np.sqrt(norm2)


def _probability(x, where):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ParamOutOfRange(f"{where}: {x!r} outside [0, 1]")
    return x


def _balanced_ghz() -> np.ndarray:
    return (ket("000") + ket("111")) / np.sqrt(2.0)


def _symmetric_w() -> np.ndarray:
    return (ket("001") + ket("010") + ket("100")) / np.sqrt(3.0)


@_register("ghz", ("alpha", "beta"))
def _ghz(alpha, beta):
    a, b = _unit_params((alpha, beta), "ghz")
    return a * ket("000") + b * ket("111")


@_register("w", ("l0", "l1", "l2"))
def _w(l0, l1, l2):
    l0, l1, l2 = _unit_params((l0, l1, l2), "w")
    return l0 * ket("001") + l1 * ket("010") + l2 * ket("100")


@_register("wtilde", ())
def _wtilde():
    return (ket("110") + ket("101") + ket("011")) / np.sqrt(3.0)


@_register("g2", ())
def _g2():
    return (ket("000") + ket("100") + ket("101") + ket("110") + ket("111")) / np.sqrt(5.0)


@_register("g3", ("l0", "l1", "l2"))
def _g3(l0, l1, l2):
    l0, l1, l2 = _unit_params((l0, l1, l2), "g3")
    return l0 * ket("000") + l1 * ket("100") + l2 * ket("111")


@_register("b2", ("l0", "l1", "l2"))
def _b2(l0, l1, l2):
    l0, l1, l2 = _unit_params((l0, l1, l2), "b2")
    return l0 * ket("001") + l1 * ket("101") + l2 * ket("111")


@_register("ghz-w", ("q",))
def _ghz_w(q):
    q = _probability(q, "ghz-w")
    return [(q, _balanced_ghz()), (1.0 - q, _symmetric_w())]


@_register("b1", ("q",))
def _b1(q):
    q = _probability(q, "b1")
    plus = (ket("000") + ket("011")) / np.sqrt(2.0)
    minus = (ket("100") - ket("111")) / np.sqrt(2.0)
    return [(q, plus), (1.0 - q, minus)]


@_register("kye", ("a",))
def _kye(a):
    a = float(a)
    if a < 0.0:
        raise ParamOutOfRange(f"kye: a={a!r} must be >= 0")
    m = np.diag([4 + a, a, a, a, a, a, a, 4 + a]).astype(np.complex128)
    m[0, 7] = m[7, 0] = 2.0
    m[1, 6] = m[6, 1] = 2.0
    m[2, 5] = m[5, 2] = -2.0
    m[3, 4] = m[4, 3] = 2.0
    return m / (8.0 + 8.0 * a)


@_register("s2", ("alpha",))
def _s2(alpha):
    alpha = _probability(alpha, "s2")
    ghz = _balanced_ghz()
    return (1.0 - alpha) * np.outer(ghz, ghz.conj()) + (alpha / 8.0) * np.eye(DIM)


@_register("s3", ("q",))
def _s3(q):
    q = _probability(q, "s3")
    psi = (ket("001") + ket("101")) / np.sqrt(2.0)
    return [(q, psi), (1.0 - q, ket("111"))]


@_register("rho1", ("q",))
def _rho1(q):
    q = _probability(q, "rho1")
    return [(q, ket("000")), (1.0 - q, _balanced_ghz())]


@_register("rho2", ("q1", "q2"))
def _rho2(q1, q2):
    q1 = _probability(q1, "rho2")
    q2 = _probability(q2, "rho2")
    if q1 + q2 > 1.0 + 1e-12:
        raise ParamOutOfRange(f"rho2: q1+q2={q1 + q2!r} exceeds 1")
    return [(q1, _balanced_ghz()), (q2, _symmetric_w()), (max(0.0, 1.0 - q1 - q2), _wtilde())]


def catalog(name: str, *params: float) -> StateSpec:
    """StateSpec for a named state family with the given real parameters."""
    param_names = catalog_param_names(name)
    key = str(name).lower()
    if len(params) != len(param_names):
        raise ParamOutOfRange(
            f"{key}: expected {len(param_names)} parameter(s) {param_names}, got {len(params)}"
        )
    values = tuple(float(p) for p in params)
    for pname, v in zip(param_names, values):
        if not math.isfinite(v):
            raise ParamOutOfRange(f"{key}: {pname}={v!r} is not finite")
    _CATALOG[key][1](*values)  # validate eagerly so bad specs never leave this call
    return StateSpec(kind="catalog", name=key, params=values)


def catalog_param_names(name: str) -> tuple[str, ...]:
    key = str(name).lower()
    if key not in _CATALOG:
        raise UnknownName(f"unknown catalog state {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[key][0]


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def _realize_catalog(name: str, params: tuple[float, ...]):
    raw = _CATALOG[name][1](*params)
    if isinstance(raw, list):
        parts = []
        for w, item in raw:
            rho = np.outer(item, item.conj()) if item.ndim == 1 else item
            parts.append((w, rho))
        return convex_mix(parts)
    if raw.ndim == 1:
        return density_from_pure(raw)
    return as_density_matrix(raw)


def pure_amplitudes(spec: StateSpec) -> np.ndarray | None:
    """Amplitude vector when the spec describes a pure state, else None."""
    if spec.kind == "pure":
        return pure_state(spec.amplitudes)
    if spec.kind == "catalog":
        raw = _CATALOG[spec.name][1](*spec.params)
        if isinstance(raw, np.ndarray) and raw.ndim == 1:
            return raw
        if isinstance(raw, list):
            live = [(w, s) for w, s in raw if w > 0.0]
            if len(live) == 1 and live[0][1].ndim == 1:
                return live[0][1]
    return None


def to_density(spec: StateSpec) -> np.ndarray:
    """Realize a StateSpec as a validated density matrix."""
    if spec.kind == "pure":
        return density_from_pure(spec.amplitudes)
    if spec.kind == "matrix":
        return as_density_matrix(np.asarray(spec.matrix, dtype=np.complex128))
    if spec.kind == "mix":
        return convex_mix((w, to_density(s)) for w, s in spec.parts)
    if spec.kind == "catalog":
        return _realize_catalog(spec.name, spec.params)
    raise SchemaError("$", f"unknown spec kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x, path) -> float:
    """``x`` as a float; ``json`` decodes NaN and Infinity, which are rejected here."""
    if not math.isfinite(x):
        raise SchemaError(path, f"expected a finite number, got {x!r}")
    return float(x)


def _parse_complex(obj, path):
    if _is_number(obj):
        return complex(_finite(obj, path), 0.0)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(x) for x in obj):
        return complex(_finite(obj[0], f"{path}[0]"), _finite(obj[1], f"{path}[1]"))
    raise SchemaError(path, "expected a number or a [re, im] pair")


def _parse_real_grid(obj, path):
    if (
        not isinstance(obj, list)
        or len(obj) != DIM
        or any(not isinstance(row, list) or len(row) != DIM for row in obj)
    ):
        raise SchemaError(path, "expected an 8x8 array of numbers")
    for i, row in enumerate(obj):
        for j, x in enumerate(row):
            if not _is_number(x):
                raise SchemaError(f"{path}[{i}][{j}]", "expected a number")
            _finite(x, f"{path}[{i}][{j}]")
    return np.asarray(obj, dtype=float)


def spec_from_obj(obj, path: str = "$", depth: int = 0) -> StateSpec:
    """Build a StateSpec from decoded JSON, validating shape and invariants.

    ``depth`` counts the enclosing ``mix`` objects; a ``mix`` inside
    ``MAX_MIX_DEPTH`` others is rejected.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    keys = set(obj)
    known = {"pure", "matrix", "mix", "catalog"}
    if len(keys) != 1 or not keys <= known:
        raise SchemaError(path, f"expected exactly one of {sorted(known)}, got {sorted(keys)}")

    if "pure" in obj:
        body = obj["pure"]
        if not isinstance(body, dict) or set(body) != {"amplitudes"}:
            raise SchemaError(f"{path}.pure", "expected an object with 'amplitudes'")
        amps = body["amplitudes"]
        if not isinstance(amps, list) or len(amps) != DIM:
            raise SchemaError(f"{path}.pure.amplitudes", "expected 8 entries")
        values = [
            _parse_complex(a, f"{path}.pure.amplitudes[{i}]") for i, a in enumerate(amps)
        ]
        spec = StateSpec(kind="pure", amplitudes=tuple(values))
        pure_state(spec.amplitudes)  # norm invariant at parse time
        return spec

    if "matrix" in obj:
        body = obj["matrix"]
        if not isinstance(body, dict) or not set(body) <= {"re", "im"} or "re" not in body:
            raise SchemaError(f"{path}.matrix", "expected an object with 're' (and optional 'im')")
        re = _parse_real_grid(body["re"], f"{path}.matrix.re")
        im = (
            _parse_real_grid(body["im"], f"{path}.matrix.im")
            if "im" in body
            else np.zeros((DIM, DIM))
        )
        spec = StateSpec(kind="matrix", matrix=tuple(tuple(row) for row in re + 1j * im))
        to_density(spec)  # hermitian/trace/PSD invariants at parse time
        return spec

    if "mix" in obj:
        if depth >= MAX_MIX_DEPTH:
            raise SchemaError(f"{path}.mix", f"mix nested more than {MAX_MIX_DEPTH} levels deep")
        body = obj["mix"]
        if not isinstance(body, dict) or set(body) != {"parts"}:
            raise SchemaError(f"{path}.mix", "expected an object with 'parts'")
        parts = body["parts"]
        if not isinstance(parts, list) or not parts:
            raise SchemaError(f"{path}.mix.parts", "expected a non-empty list")
        out = []
        for i, part in enumerate(parts):
            ppath = f"{path}.mix.parts[{i}]"
            if not isinstance(part, dict) or set(part) != {"weight", "state"}:
                raise SchemaError(ppath, "expected an object with 'weight' and 'state'")
            w = part["weight"]
            if not _is_number(w):
                raise SchemaError(f"{ppath}.weight", "expected a number")
            w = _finite(w, f"{ppath}.weight")
            out.append((w, spec_from_obj(part["state"], f"{ppath}.state", depth + 1)))
        weights = np.array([w for w, _ in out])
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > NORM_TOL:
            raise BadWeights(f"{path}.mix: weights sum to {weights.sum()!r}")
        return StateSpec(kind="mix", parts=tuple(out))

    body = obj["catalog"]
    if not isinstance(body, dict) or not {"name"} <= set(body) or not set(body) <= {"name", "params"}:
        raise SchemaError(f"{path}.catalog", "expected an object with 'name' and optional 'params'")
    if not isinstance(body["name"], str):
        raise SchemaError(f"{path}.catalog.name", "expected a string")
    params = body.get("params", [])
    if not isinstance(params, list) or not all(_is_number(p) for p in params):
        raise SchemaError(f"{path}.catalog.params", "expected a list of numbers")
    return catalog(body["name"], *(_finite(p, f"{path}.catalog.params[{i}]")
                                   for i, p in enumerate(params)))


def spec_to_obj(spec: StateSpec):
    """JSON-ready form of a StateSpec; inverse of :func:`spec_from_obj`."""
    if spec.kind == "pure":
        return {
            "pure": {
                "amplitudes": [
                    a.real if a.imag == 0.0 else [a.real, a.imag] for a in spec.amplitudes
                ]
            }
        }
    if spec.kind == "matrix":
        m = np.asarray(spec.matrix)
        return {"matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
    if spec.kind == "mix":
        return {
            "mix": {
                "parts": [
                    {"weight": w, "state": spec_to_obj(s)} for w, s in spec.parts
                ]
            }
        }
    return {"catalog": {"name": spec.name, "params": list(spec.params)}}


def parse_state_file(text: str) -> StateSpec:
    """Parse a JSON state document (see README for the schema)."""
    try:
        return spec_from_obj(json.loads(text))
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("$", "document is nested too deeply") from exc
