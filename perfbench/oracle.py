"""Independent reference for every output the benchmark checks.

Nothing here imports spapt. States are rebuilt from their documents with
plain numpy, the partial transpose is an axis swap written here, and spectra
come from ``numpy.linalg.eigvalsh`` (LAPACK), the same ground truth the
package's own kernel tests use. The tangle reference is the CKW residual
(one-vs-rest entanglement minus both pairwise concurrences), not the
hyperdeterminant the package evaluates.

Each ``check_*`` function returns ``None`` for a correct output or a short
reason string for a wrong one.
"""

from __future__ import annotations

import json

import numpy as np

P = 0.8
THRESHOLD = P / 8.0
EPS = 1e-9
MIN_TOL = 1e-9
TANGLE_TOL = 1e-8
CP_WEIGHT, CHOI_WEIGHT, WEIGHT_TOL = 4.0 / 5.0, 32.0 / 33.0, 1e-6
CUTS = ("A", "B", "C")
CUT_NAMES = {"A": "A-BC", "B": "B-AC", "C": "C-AB"}
REPORT_KEYS = {"input", "p", "threshold", "pt_spectra", "spa_min", "verdict", "tangle", "timing"}


def ket(label: str) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[int(label, 2)] = 1.0
    return v


def proj(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def _unit(*xs) -> np.ndarray:
    v = np.asarray(xs, dtype=float)
    return v / np.sqrt(np.sum(v * v))


_GHZ = (ket("000") + ket("111")) / np.sqrt(2.0)
_W = (ket("001") + ket("010") + ket("100")) / np.sqrt(3.0)
_WT = (ket("110") + ket("101") + ket("011")) / np.sqrt(3.0)


def _kye(a):
    m = np.diag([4 + a, a, a, a, a, a, a, 4 + a]).astype(complex)
    for (i, j), v in {(0, 7): 2.0, (1, 6): 2.0, (2, 5): -2.0, (3, 4): 2.0}.items():
        m[i, j] = m[j, i] = v
    return m / (8.0 + 8.0 * a)


def _amp(labels, coeffs):
    return proj(sum(c * ket(s) for s, c in zip(labels, coeffs)))


# Catalog families as density matrices, written from the README's table.
FAMILIES = {
    "ghz": lambda a, b: _amp(("000", "111"), _unit(a, b)),
    "w": lambda *l: _amp(("001", "010", "100"), _unit(*l)),
    "wtilde": lambda: proj(_WT),
    "g2": lambda: _amp(("000", "100", "101", "110", "111"), [5 ** -0.5] * 5),
    "g3": lambda *l: _amp(("000", "100", "111"), _unit(*l)),
    "b2": lambda *l: _amp(("001", "101", "111"), _unit(*l)),
    "ghz-w": lambda q: q * proj(_GHZ) + (1 - q) * proj(_W),
    "b1": lambda q: q * proj((ket("000") + ket("011")) / np.sqrt(2.0))
    + (1 - q) * proj((ket("100") - ket("111")) / np.sqrt(2.0)),
    "kye": _kye,
    "s2": lambda al: (1 - al) * proj(_GHZ) + al / 8.0 * np.eye(8),
    "s3": lambda q: q * proj((ket("001") + ket("101")) / np.sqrt(2.0)) + (1 - q) * proj(ket("111")),
    "rho1": lambda q: q * proj(ket("000")) + (1 - q) * proj(_GHZ),
    "rho2": lambda q1, q2: q1 * proj(_GHZ) + q2 * proj(_W) + max(0.0, 1 - q1 - q2) * proj(_WT),
}


def _amplitudes(body) -> np.ndarray:
    return np.array([complex(*a) if isinstance(a, list) else complex(a) for a in body["amplitudes"]])


def density(doc) -> np.ndarray:
    """Density matrix of a valid state document (decoded JSON)."""
    (kind, body), = doc.items()
    if kind == "pure":
        return proj(_amplitudes(body))
    if kind == "matrix":
        m = np.asarray(body["re"], dtype=float) + 1j * np.asarray(body.get("im", 0.0), dtype=float)
        return (m + m.conj().T) / 2.0
    if kind == "mix":
        return sum(p["weight"] * density(p["state"]) for p in body["parts"])
    return FAMILIES[body["name"]](*body.get("params", []))


def partial_transpose(rho: np.ndarray, q: str) -> np.ndarray:
    bit = CUTS.index(q)
    axes = list(range(6))
    axes[bit], axes[3 + bit] = axes[3 + bit], axes[bit]
    return rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)


def pt_spectra(rho: np.ndarray) -> dict[str, np.ndarray]:
    return {q: np.linalg.eigvalsh(partial_transpose(rho, q)) for q in CUTS}


def channel_minima(rho: np.ndarray) -> dict[str, float]:
    """Smallest eigenvalue of (p/8) I + (1-p) PT_q(rho) for each cut."""
    return {
        q: float(np.linalg.eigvalsh(P / 8.0 * np.eye(8) + (1 - P) * partial_transpose(rho, q))[0])
        for q in CUTS
    }


def verdict(minima: dict[str, float]) -> tuple[str, list[str]]:
    """Decision table: how many cuts reach the threshold (within EPS)."""
    passing = [CUT_NAMES[q] for q in CUTS if minima[q] >= THRESHOLD - EPS]
    if not passing:
        return "genuine-entangled", []
    if len(passing) == 3:
        return "fully-separable", passing
    return "biseparable", passing


def verdict_label(minima: dict[str, float]) -> str:
    """The CSV verdict cell: kind, plus ':cut+cut' for biseparable rows."""
    kind, cuts = verdict(minima)
    return kind + (":" + "+".join(cuts) if kind == "biseparable" else "")


def _concurrence_sq(rho_2q: np.ndarray) -> float:
    sysy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    w, v = np.linalg.eigh(rho_2q)
    psi = v * np.sqrt(np.clip(w, 0.0, None))
    mu = np.linalg.svd(psi.T @ sysy @ psi, compute_uv=False)
    return max(0.0, mu[0] - mu[1] - mu[2] - mu[3]) ** 2


def tangle(psi: np.ndarray) -> float:
    """Three-tangle as the CKW residual of a pure state."""
    t = proj(psi).reshape((2,) * 6)
    rho_a = np.einsum("abcdbc->ad", t)
    rho_ab = np.einsum("abcdec->abde", t).reshape(4, 4)
    rho_ac = np.einsum("abcdbf->acdf", t).reshape(4, 4)
    return 4.0 * float(np.linalg.det(rho_a).real) - _concurrence_sq(rho_ab) - _concurrence_sq(rho_ac)


def expect_classify(doc, want_tangle: bool) -> dict:
    """Reference for one valid document: PT spectra, channel minima, verdict."""
    rho = density(doc)
    minima = channel_minima(rho)
    kind, cuts = verdict(minima)
    return {
        "pt_spectra": {q: s.tolist() for q, s in pt_spectra(rho).items()},
        "spa_min": minima,
        "kind": kind,
        "cuts": cuts,
        "tangle": tangle(_amplitudes(doc["pure"])) if want_tangle else None,
    }


def check_invalid(rc: int, out: str, err: str):
    """A rejected document: exit 2, nothing on stdout, 'error:' on stderr."""
    if rc != 2:
        return f"exit {rc}, want 2"
    if out:
        return "stdout not empty"
    if not err.startswith("error:"):
        return "stderr does not start with 'error:'"
    return None


def check_classify(expected: dict | None, rc: int, out: str, err: str):
    """Check a classify run against its reference (None: invalid document)."""
    if expected is None:
        return check_invalid(rc, out, err)
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one complete JSON document"
    if not isinstance(report, dict) or not REPORT_KEYS <= set(report):
        return "report keys missing"
    try:
        return _report_reason(expected, report)
    except (KeyError, TypeError, ValueError) as exc:
        return f"report malformed: {exc!r}"


def _report_reason(expected: dict, report: dict):
    v = report["verdict"]
    if not isinstance(v, dict) or v.get("kind") != expected["kind"] or v.get("cuts") != expected["cuts"]:
        return f"verdict {v!r}, want {expected['kind']} {expected['cuts']}"
    spa_min = report["spa_min"]
    for q in CUTS:
        if abs(spa_min[q] - expected["spa_min"][q]) > MIN_TOL:
            return f"spa_min {q} {spa_min[q]!r}, want {expected['spa_min'][q]!r}"
        if np.max(np.abs(np.subtract(report["pt_spectra"][q], expected["pt_spectra"][q]))) > MIN_TOL:
            return f"pt spectrum {q} differs"
    if abs(spa_min["max"] - max(expected["spa_min"].values())) > MIN_TOL:
        return "spa_min max differs"
    if expected["tangle"] is None:
        if report["tangle"] is not None:
            return "unrequested tangle"
    elif report["tangle"] is None or abs(report["tangle"] - expected["tangle"]) > TANGLE_TOL:
        return f"tangle {report['tangle']!r}, want {expected['tangle']!r}"
    return None


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def expect_scan(family: str, grid: list[tuple[float, ...]]) -> list[tuple[list[str], dict, str]]:
    """Per grid point: the formatted parameter cells, minima and verdict cell."""
    rows = []
    for params in grid:
        minima = channel_minima(FAMILIES[family](*params))
        rows.append(([_fmt(p) for p in params], minima, verdict_label(minima)))
    return rows


def check_scan_rows(param_names, expected, out: str) -> list:
    """Check scan CSV; returns one entry per expected row (None when right).

    A missing, extra or garbled line fails every expected row, so a
    truncated CSV counts as failed work, not as a shorter run.
    """
    header = list(param_names) + ["lam_a", "lam_b", "lam_c", "lam_max", "verdict"]
    lines = out.split("\n")
    if lines[-1] != "" or lines[0] != ",".join(header) or len(lines) != len(expected) + 2:
        return ["CSV header, row count or final newline wrong"] * len(expected)
    results = []
    for line, row in zip(lines[1:-1], expected):
        try:
            reason = _scan_row_reason(line.split(","), len(header), *row)
        except ValueError:
            reason = "unparseable number"
        results.append(reason and f"row {line!r}: {reason}")
    return results


def _scan_row_reason(got, width, cells, minima, label):
    n = len(cells)
    if len(got) != width or got[:n] != cells:
        return "columns or parameters differ"
    if got[-1] != label:
        return f"verdict, want {label}"
    if any(abs(float(g) - minima[q]) > MIN_TOL for g, q in zip(got[n:n + 3], CUTS)):
        return "minima differ"
    if abs(float(got[n + 3]) - max(minima.values())) > MIN_TOL:
        return "lam_max differs"
    return None


def check_examples(rc: int, out: str, err: str):
    """`reproduce examples`: eleven rows, each verdict recomputed here.

    The first column is the family name, except g1, the balanced GHZ state.
    """
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    lines = out.split("\n")
    if lines[-1] != "" or len(lines) != 13 or not lines[0].startswith("example,params,"):
        return "examples CSV header or row count wrong"
    for line in lines[1:-1]:
        cells = line.split(",")
        family = "ghz" if cells[0] == "g1" else cells[0]
        if family not in FAMILIES or len(cells) < 3:
            return f"unknown example {line!r}"
        try:
            want = verdict_label(channel_minima(FAMILIES[family](*[float(x) for x in cells[1].split(";") if x])))
        except (TypeError, ValueError):
            return f"example {line!r}: parameters do not parse"
        if cells[-1] != want:
            return f"example {cells[0]}: verdict {cells[-1]!r}"
    return None


def check_weights(values: dict) -> str | None:
    """Each cut's weights: 4/5 and 32/33 within the functions' default tol."""
    if set(values) != set(CUTS):
        return "missing cuts"
    for q, (cp, choi) in values.items():
        if abs(cp - CP_WEIGHT) > WEIGHT_TOL or abs(choi - CHOI_WEIGHT) > WEIGHT_TOL:
            return f"cut {q}: weights {cp!r}, {choi!r}"
    return None
