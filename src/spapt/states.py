"""Three-qubit state construction, validation, the named catalog, and JSON I/O.

Basis convention: the computational label ``abc`` maps to index ``4a + 2b + c``,
so the first qubit (A) is the most significant bit and an 8x8 density matrix
splits into a 4x4 grid of 2x2 blocks indexed by the A and B bits.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .linalg import dagger, hermiticity_defect, min_eigenvalue

STATE_TOL = 1e-10  # norm, weights, trace, PSD minimum; classify and cli reuse it
RAW_HERM_TOL = 1e-8
# Named catalog entries renormalize their amplitude parameters when the norm
# is off by at most this much; direct "pure" input stays strict at STATE_TOL.
CATALOG_NORM_SLACK = 1e-3
# Deepest accepted nesting of "mix" objects in a state document. A fixed limit,
# so acceptance does not depend on how deep the caller's stack already is.
MAX_MIX_DEPTH = 64
# Largest modulus of an amplitude, matrix entry or amplitude parameter. A valid
# state has none above 1; below it, squares and sums of products cannot overflow.
MAX_MODULUS = 1e150
_TOO_LARGE = f"above {MAX_MODULUS:g} in modulus"

DIM = 8


def ket(label: str) -> np.ndarray:
    """Computational basis vector for a label like '010'."""
    if len(label) != 3 or any(ch not in "01" for ch in label):
        raise InputError(f"bad basis label {label!r}")
    v = np.zeros(DIM, dtype=np.complex128)
    v[int(label, 2)] = 1.0
    return v


def _first_unbounded(values: np.ndarray) -> int | None:
    """Flat index of the first NaN, infinite or above-``MAX_MODULUS`` entry, or None."""
    bad = np.flatnonzero(~(np.abs(values) <= MAX_MODULUS))
    return int(bad[0]) if bad.size else None


def pure_state(amplitudes: Sequence[complex]) -> np.ndarray:
    """Validate and return an 8-amplitude pure state (unit norm required)."""
    psi = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if psi.shape != (DIM,):
        raise InputError(f"expected 8 amplitudes, got {psi.shape}")
    i = _first_unbounded(psi)
    if i is not None:
        v = complex(psi[i])
        raise InputError(f"amplitude {i} is {v}, {_TOO_LARGE if np.isfinite(v) else 'not finite'}")
    norm2 = float(np.sum(np.abs(psi) ** 2))
    if abs(norm2 - 1.0) > STATE_TOL:
        raise InputError(f"squared norm {norm2!r} differs from 1 beyond {STATE_TOL}")
    return psi


def density_from_pure(psi: Sequence[complex]) -> np.ndarray:
    """Rank-one density matrix of a normalized pure state."""
    psi = pure_state(psi)
    return np.outer(psi, psi.conj())


@functools.lru_cache(maxsize=64)
def _pure_density(amplitudes: tuple) -> np.ndarray:
    """Read-only ``density_from_pure``, so the fixed parts of catalog mixtures are
    built once; amplitudes equal as numbers (0.0 and -0.0) share one entry."""
    rho = density_from_pure(amplitudes)
    rho.flags.writeable = False
    return rho


def as_density_matrix(m: np.ndarray) -> np.ndarray:
    """Validate an 8x8 density matrix (Hermitian, unit trace, PSD).

    Hermiticity defects below ``RAW_HERM_TOL`` are symmetrized away, which
    tolerates benign I/O rounding; anything larger is rejected.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (DIM, DIM):
        raise InputError(f"shape: expected 8x8, got {m.shape}")
    i = _first_unbounded(m)
    if i is not None:
        v, at = complex(m.flat[i]), divmod(i, DIM)
        raise InputError(f"modulus: entry {at} is {v}, {_TOO_LARGE}" if np.isfinite(v)
                         else f"finite: entry {at} is {v}")
    defect = hermiticity_defect(m)
    if defect > RAW_HERM_TOL:
        raise InputError(f"hermitian: defect {defect:.3e}")
    m = (m + dagger(m)) / 2.0
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > STATE_TOL:
        raise InputError(f"trace: trace {tr!r}")
    lo = min_eigenvalue(m)
    if lo < -STATE_TOL:
        raise InputError(f"psd: minimum eigenvalue {lo:.3e}")
    return m


def check_weights(weights: Iterable[float], where: str = "") -> list[float]:
    """Mixture weights as floats, each finite and >= 0, summing to 1 within ``STATE_TOL``.

    ``where``, the JSON path of a ``mix``, prefixes messages with the offending field.
    """
    weights = [float(w) for w in weights]
    for i, w in enumerate(weights):
        if not (math.isfinite(w) and w >= 0.0):
            at = f"{where}.parts[{i}].weight: " if where else ""
            why = "not finite" if not math.isfinite(w) else "negative"
            raise InputError(f"{at}weight {i} = {w} is {why}")
    if abs(sum(weights) - 1.0) > STATE_TOL:
        raise InputError(f"{where + ': ' if where else ''}weights sum to {sum(weights)}, not 1")
    return weights


def convex_mix(parts: Iterable[tuple[float, np.ndarray]]) -> np.ndarray:
    """Probabilistic mixture of density matrices."""
    parts = list(parts)
    out = np.zeros((DIM, DIM), dtype=np.complex128)
    for w, (_, rho) in zip(check_weights(w for w, _ in parts), parts):
        out += w * np.asarray(rho, dtype=np.complex128)
    return as_density_matrix(out)


# ---------------------------------------------------------------------------
# State specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Parsed description of a state, whose form is its body: ``amplitudes``
    (pure), ``matrix`` (raw) or ``parts`` (a weighted mixture of nested specs),
    read in that order. A named catalog entry carries one of those bodies
    beside its ``name`` and ``params``."""

    amplitudes: tuple[complex, ...] | None = None
    matrix: tuple[tuple[complex, ...], ...] | None = None
    parts: tuple[tuple[float, "StateSpec"], ...] | None = None
    name: str | None = None
    params: tuple[float, ...] | None = None


_NO_BODY = "spec has no amplitudes, matrix or parts"


def _unit_params(params):
    """Renormalize a real amplitude-parameter vector, within the catalog slack."""
    if max(map(abs, params)) > MAX_MODULUS:
        raise InputError(f"a parameter in {params} is {_TOO_LARGE}")
    v = np.asarray(params, dtype=float)
    norm2 = float(np.sum(v * v))
    if abs(norm2 - 1.0) > CATALOG_NORM_SLACK:
        raise InputError(f"squared norm {norm2!r} too far from 1")
    return v / np.sqrt(norm2)


def _pure(v: np.ndarray) -> StateSpec:
    return StateSpec(amplitudes=tuple(v.tolist()))


def _matrix(m: np.ndarray) -> StateSpec:
    return StateSpec(matrix=tuple(map(tuple, m.tolist())))


def _uniform(*labels) -> StateSpec:
    """Equal superposition of the given basis states."""
    return _pure(sum(ket(label) for label in labels) / np.sqrt(len(labels)))


def _amplitudes_on(*labels):
    """Family ``x0|labels[0]> + x1|labels[1]> + ...`` of renormalized real amplitudes."""
    def build(*params):
        terms = [x * ket(label) for x, label in zip(_unit_params(params), labels)]
        return _pure(sum(terms[1:], terms[0]))  # not sum(terms): 0 + -0.0 would flip zero signs

    return build


def _mix_of(*parts):
    """Family ``w1 parts[0] + ... + w(n-1) parts[n-2] + (1 - w1 - ...) parts[n-1]``,
    whose parameters are the first n-1 weights."""
    def build(*weights):
        rest = 1.0
        for w in weights:
            if not 0.0 <= w <= 1.0:
                raise InputError(f"{w!r} outside [0, 1]")
            rest -= w  # left to right, so rho2's last weight is 1.0 - q1 - q2
        if sum(weights) > 1.0 + 1e-12:
            raise InputError(f"weights sum to {sum(weights)!r}, more than 1")
        return StateSpec(parts=tuple(zip(weights + (max(0.0, rest),), parts)))

    return build


def _kye(a):
    a = float(a)
    if a < 0.0:
        raise InputError(f"a={a!r} must be >= 0")
    m = np.diag([4 + a, a, a, a, a, a, a, 4 + a]).astype(np.complex128)
    m[0, 7] = m[7, 0] = 2.0
    m[1, 6] = m[6, 1] = 2.0
    m[2, 5] = m[5, 2] = -2.0
    m[3, 4] = m[4, 3] = 2.0
    return _matrix(m / 8.0 / (1.0 + a))  # not / (8 + 8a), which overflows for a near 1e308


_GHZ = _uniform("000", "111")
_W = _uniform("001", "010", "100")
_WTILDE = _uniform("110", "101", "011")
_MAXMIX = _matrix(np.eye(DIM) / DIM)

# name -> (parameter names, builder returning a pure, matrix or mix StateSpec);
# catalog() puts the name in front of a builder's error messages
_CATALOG = {
    "ghz": (("alpha", "beta"), _amplitudes_on("000", "111")),
    "w": (("l0", "l1", "l2"), _amplitudes_on("001", "010", "100")),
    "wtilde": ((), lambda: _WTILDE),
    "g2": ((), lambda: _uniform("000", "100", "101", "110", "111")),
    "g3": (("l0", "l1", "l2"), _amplitudes_on("000", "100", "111")),
    "b2": (("l0", "l1", "l2"), _amplitudes_on("001", "101", "111")),
    "ghz-w": (("q",), _mix_of(_GHZ, _W)),
    "b1": (("q",), _mix_of(_uniform("000", "011"),
                           _pure((ket("100") - ket("111")) / np.sqrt(2.0)))),
    "kye": (("a",), _kye),
    "s2": (("alpha",), _mix_of(_MAXMIX, _GHZ)),
    "s3": (("q",), _mix_of(_uniform("001", "101"), _pure(ket("111")))),
    "rho1": (("q",), _mix_of(_pure(ket("000")), _GHZ)),
    "rho2": (("q1", "q2"), _mix_of(_GHZ, _W, _WTILDE)),
}


def catalog(name: str, *params: float) -> StateSpec:
    """StateSpec for a named state family; its pure, matrix or mix body is built here, once."""
    param_names = catalog_param_names(name)
    key = str(name).lower()
    if len(params) != len(param_names):
        raise InputError(
            f"{key}: expected {len(param_names)} parameter(s) {param_names}, got {len(params)}"
        )
    values = tuple(float(p) for p in params)
    for pname, v in zip(param_names, values):
        if not math.isfinite(v):
            raise InputError(f"{key}: {pname}={v!r} is not finite")
    body = _at(key, _CATALOG[key][1], *values)
    return replace(body, name=key, params=values)


def catalog_param_names(name: str) -> tuple[str, ...]:
    key = str(name).lower()
    if key not in _CATALOG:
        raise InputError(f"unknown catalog state {name!r}; known: {sorted(_CATALOG)}")
    return _CATALOG[key][0]


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def pure_amplitudes(spec: StateSpec) -> np.ndarray | None:
    """Amplitude vector when the spec is pure, or a mix whose one positive-weight part is."""
    if spec.amplitudes is not None:
        return pure_state(spec.amplitudes)
    live = [s for w, s in spec.parts or () if w > 0.0]
    return pure_amplitudes(live[0]) if len(live) == 1 else None


def _at(where: str, fn, *args):
    """``fn(*args)``, with ``where`` put in front of the message of an InputError it raises."""
    try:
        return fn(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def to_density(spec: StateSpec) -> np.ndarray:
    """Realize a StateSpec as a validated density matrix; a family's errors start with its name."""
    return _realise(spec) if spec.name is None else _at(spec.name, _realise, spec)


def _realise(spec: StateSpec) -> np.ndarray:
    if spec.amplitudes is not None:
        return _pure_density(tuple(spec.amplitudes)).copy()
    if spec.matrix is not None:
        return as_density_matrix(np.asarray(spec.matrix, dtype=np.complex128))
    if spec.parts is not None:
        return convex_mix((w, to_density(s)) for w, s in spec.parts)
    raise InputError(_NO_BODY)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x, path) -> float:
    """``x`` as a float; ``json`` decodes NaN, Infinity and integers too large for
    a double, which are rejected here."""
    try:
        x = float(x)
    except OverflowError:
        raise InputError(f"{path}: expected a finite number, got an integer too large") from None
    if not math.isfinite(x):
        raise InputError(f"{path}: expected a finite number, got {x!r}")
    return x


def _parse_complex(obj, path):
    if _is_number(obj):
        return complex(_finite(obj, path), 0.0)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(x) for x in obj):
        return complex(_finite(obj[0], f"{path}[0]"), _finite(obj[1], f"{path}[1]"))
    raise InputError(f"{path}: expected a number or a [re, im] pair")


def _parse_real_grid(obj, path):
    if (
        not isinstance(obj, list)
        or len(obj) != DIM
        or any(not isinstance(row, list) or len(row) != DIM for row in obj)
    ):
        raise InputError(f"{path}: expected an 8x8 array of numbers")
    for i, row in enumerate(obj):
        for j, x in enumerate(row):
            if not _is_number(x):
                raise InputError(f"{path}[{i}][{j}]: expected a number")
            _finite(x, f"{path}[{i}][{j}]")
    return np.asarray(obj, dtype=float)


def spec_from_obj(obj, path: str = "$", depth: int = 0) -> StateSpec:
    """Build a StateSpec from decoded JSON, validating shape and invariants.

    ``depth`` counts the enclosing ``mix`` objects; a ``mix`` inside
    ``MAX_MIX_DEPTH`` others is rejected.
    """
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected an object")
    keys = set(obj)
    known = {"pure", "matrix", "mix", "catalog"}
    if len(keys) != 1 or not keys <= known:
        raise InputError(f"{path}: expected exactly one of {sorted(known)}, got {sorted(keys)}")

    if "pure" in obj:
        body = obj["pure"]
        if not isinstance(body, dict) or set(body) != {"amplitudes"}:
            raise InputError(f"{path}.pure: expected an object with 'amplitudes'")
        amps = body["amplitudes"]
        if not isinstance(amps, list) or len(amps) != DIM:
            raise InputError(f"{path}.pure.amplitudes: expected 8 entries")
        values = [
            _parse_complex(a, f"{path}.pure.amplitudes[{i}]") for i, a in enumerate(amps)
        ]
        spec = StateSpec(amplitudes=tuple(values))
        _at(f"{path}.pure.amplitudes", pure_state, spec.amplitudes)  # norm, at parse time
        return spec

    if "matrix" in obj:
        body = obj["matrix"]
        if not isinstance(body, dict) or not set(body) <= {"re", "im"} or "re" not in body:
            raise InputError(f"{path}.matrix: expected an object with 're' (and optional 'im')")
        re = _parse_real_grid(body["re"], f"{path}.matrix.re")
        im = (
            _parse_real_grid(body["im"], f"{path}.matrix.im")
            if "im" in body
            else np.zeros((DIM, DIM))
        )
        spec = _matrix(re + 1j * im)
        _at(f"{path}.matrix", to_density, spec)  # hermitian/trace/PSD, at parse time
        return spec

    if "mix" in obj:
        if depth >= MAX_MIX_DEPTH:
            raise InputError(f"{path}.mix: mix nested more than {MAX_MIX_DEPTH} levels deep")
        body = obj["mix"]
        if not isinstance(body, dict) or set(body) != {"parts"}:
            raise InputError(f"{path}.mix: expected an object with 'parts'")
        parts = body["parts"]
        if not isinstance(parts, list) or not parts:
            raise InputError(f"{path}.mix.parts: expected a non-empty list")
        out = []
        for i, part in enumerate(parts):
            ppath = f"{path}.mix.parts[{i}]"
            if not isinstance(part, dict) or set(part) != {"weight", "state"}:
                raise InputError(f"{ppath}: expected an object with 'weight' and 'state'")
            w = part["weight"]
            if not _is_number(w):
                raise InputError(f"{ppath}.weight: expected a number")
            w = _finite(w, f"{ppath}.weight")
            out.append((w, spec_from_obj(part["state"], f"{ppath}.state", depth + 1)))
        check_weights((w for w, _ in out), f"{path}.mix")
        return StateSpec(parts=tuple(out))

    body = obj["catalog"]
    if not isinstance(body, dict) or not {"name"} <= set(body) or not set(body) <= {"name", "params"}:
        raise InputError(f"{path}.catalog: expected an object with 'name' and optional 'params'")
    if not isinstance(body["name"], str):
        raise InputError(f"{path}.catalog.name: expected a string")
    params = body.get("params", [])
    if not isinstance(params, list) or not all(_is_number(p) for p in params):
        raise InputError(f"{path}.catalog.params: expected a list of numbers")
    return _at(f"{path}.catalog", catalog, body["name"],
               *(_finite(p, f"{path}.catalog.params[{i}]") for i, p in enumerate(params)))


def spec_to_obj(spec: StateSpec):
    """JSON-ready form of a StateSpec; inverse of :func:`spec_from_obj`."""
    if spec.name is not None:
        return {"catalog": {"name": spec.name, "params": list(spec.params)}}
    if spec.amplitudes is not None:
        return {"pure": {"amplitudes": [a.real if a.imag == 0.0 else [a.real, a.imag]
                                        for a in spec.amplitudes]}}
    if spec.matrix is not None:
        m = np.asarray(spec.matrix)
        return {"matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
    if spec.parts is not None:
        return {"mix": {"parts": [{"weight": w, "state": spec_to_obj(s)} for w, s in spec.parts]}}
    raise InputError(_NO_BODY)


def parse_state_file(text: str) -> StateSpec:
    """Parse a JSON state document (see README for the schema)."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past the int-string digit limit
        raise InputError(f"$: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("$: document is nested too deeply") from exc
    return spec_from_obj(obj)
