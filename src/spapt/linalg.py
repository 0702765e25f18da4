"""Dense complex matrix helpers and the Hermitian eigensolver.

Matrices are plain complex128 ``numpy.ndarray`` values, agnostic of the
quantum layers above. The one eigensolver is a cyclic Jacobi kernel in numpy,
sized for the 8x8 working matrices and the 64x64 operators of :mod:`spapt.spa`.

Each rotation zeroes one off-diagonal pair (p, q) with the unitary

    U[p, p] = c          U[p, q] = -s * exp(i*phi)
    U[q, p] = s * exp(-i*phi)   U[q, q] = c

where ``a[p, q] = m * exp(i*phi)`` and ``t = s/c`` is the smaller-magnitude
root of ``t^2 - 2*tau*t - 1 = 0`` with ``tau = (a[q,q] - a[p,p]) / (2*m)``.
Sweeps stop when the off-diagonal Frobenius norm drops below ``OFFDIAG_TOL``
or after ``MAX_SWEEPS`` passes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericalFailure

HERMITICITY_TOL = 1e-10
OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def _offdiag_norm(a: np.ndarray) -> float:
    s = a - np.diag(np.diagonal(a))
    return float(np.sqrt(np.sum(np.abs(s) ** 2)))


def _rotation(app: float, aqq: float, apq: complex):
    """Return (c, s, phase) zeroing the (p, q) element of a 2x2 Hermitian block."""
    m = abs(apq)
    phase = apq / m
    tau = float(aqq - app) / float(2.0 * m)  # Python floats: past the range, inf and no warning
    if abs(tau) > 1e150:
        t = -0.5 / tau  # sqrt(1 + tau^2) would overflow; asymptotic root
    elif tau >= 0.0:
        t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, phase


def _jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix by Jacobi sweeps."""
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    for _ in range(MAX_SWEEPS):
        if _offdiag_norm(a) < OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                c, s, ph = _rotation(a[p, p].real, a[q, q].real, apq)
                phc = ph.conjugate()
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + (s * phc) * colq
                a[:, q] = (-s * ph) * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + (s * ph) * rowq
                a[q, :] = (-s * phc) * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diagonal(a).real.copy())


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    ``HERMITICITY_TOL`` bounds the hermiticity defect and the trace-moment
    residuals; the input is symmetrized before the solve so the defect never
    biases the spectrum. The spectrum is verified against the first two trace
    moments (scaled by the second moment for large-norm inputs); a violation,
    NaN included, raises :class:`NumericalFailure` (the sweeps did not converge).
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise InputError(f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.3e}")
    h = (m + dagger(m)) / 2.0
    w = _jacobi_eigvalsh(h)
    tr = float(np.trace(h).real)
    tr2 = float(np.trace(h @ h).real)
    bound = HERMITICITY_TOL * max(1.0, abs(tr2))
    if not (abs(tr - w.sum()) <= bound and abs(tr2 - (w ** 2).sum()) <= bound):
        raise NumericalFailure(
            f"eigenvalue sweeps left trace residuals above {bound:.3e}"
        )
    return w


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(m)[0])
