"""Dense complex matrix helpers and the Hermitian eigensolver.

Matrices are plain complex128 ``numpy.ndarray`` values, agnostic of the
quantum layers above. The one eigensolver is a cyclic Jacobi kernel, sized for
the 8x8 working matrices and the 64x64 operators of :mod:`spapt.spa`. It acts
on Python rows, because numpy call overhead dominated its 8x8 rotations.

Each rotation zeroes one off-diagonal pair (p, q) with the unitary

    U[p, p] = c          U[p, q] = -s * exp(i*phi)
    U[q, p] = s * exp(-i*phi)   U[q, q] = c

where ``a[p, q] = m * exp(i*phi)`` and ``t = s/c`` is the smaller-magnitude
root of ``t^2 - 2*tau*t - 1 = 0`` with ``tau = (a[q,q] - a[p,p]) / (2*m)``.
Past ``|tau|`` of about 1.3e154, ``tau*tau`` is inf and t is +-0: the rotation
then only zeroes an entry over 150 orders of magnitude below its diagonal gap.
Sweeps are cyclic threshold Jacobi (Rutishauser; Wilkinson & Reinsch, 1971): a
pair with ``|a[p, q]| < OFFDIAG_TOL / n`` is skipped, and the sweeps stop after
one that rotates no pair (the off-diagonal Frobenius norm is then below
``sqrt(n(n-1)) * OFFDIAG_TOL / n < OFFDIAG_TOL``) or after ``MAX_SWEEPS``. A
rotation skips an entry pair of columns or rows p, q when both entries are zero.
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
    return float(np.max(np.abs(m - dagger(m))))


def _jacobi_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix by threshold Jacobi sweeps."""
    a = np.asarray(matrix, dtype=np.complex128).tolist()
    n = len(a)
    floor = OFFDIAG_TOL / n
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                m = abs(apq)
                if m < floor:
                    continue
                rotated = True
                rowp, rowq = a[p], a[q]
                ph = apq / m
                tau = (rowq[q].real - rowp[p].real) / (2.0 * m)  # Python floats: inf, no warning
                t = (-1.0 if tau >= 0.0 else 1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                phc = ph.conjugate()
                for row in a:  # columns p and q
                    x, y = row[p], row[q]
                    if x or y:
                        row[p] = c * x + (s * phc) * y
                        row[q] = (-s * ph) * x + c * y
                for k, (x, y) in enumerate(zip(rowp, rowq)):  # rows p and q
                    if x or y:
                        rowp[k] = c * x + (s * ph) * y
                        rowq[k] = (-s * phc) * x + c * y
                rowp[q] = rowq[p] = 0j
        if not rotated:
            break
    return np.sort([a[k][k].real for k in range(n)])


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    ``HERMITICITY_TOL`` bounds the hermiticity defect and the trace-moment
    residuals; the input is symmetrized before the solve so the defect never
    biases the spectrum. The spectrum is verified against the first two trace
    moments (scaled by the second moment for large-norm inputs); a violation,
    NaN or an infinite bound included, raises :class:`NumericalFailure`. An empty
    or non-finite input raises :class:`InputError`, naming its shape or entry.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InputError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        i = int(np.flatnonzero(~np.isfinite(m))[0])
        raise InputError(f"entry {divmod(i, len(m))} is {complex(m.flat[i])}, not finite")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise InputError(f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.3e}")
    h = m / 2.0 + dagger(m) / 2.0  # halves first: m + dagger(m) overflows near 1e308
    w = _jacobi_eigvalsh(h)
    tr2 = float(np.vdot(h, h).real)  # sum of |h_ij|^2, the trace of h @ h
    bound = HERMITICITY_TOL * max(tr2, 1.0)  # tr2 first: a NaN tr2 gives a NaN bound
    for name, residual in (("trace", float(np.trace(h).real) - w.sum()),
                           ("trace of square", tr2 - float(np.vdot(w, w)))):
        if not abs(residual) <= bound < math.inf:
            raise NumericalFailure(f"eigenvalue sweeps left trace residuals out of bound: "
                                   f"{name} residual {residual:.3e}, bound {bound:.3e}")
    return w


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eigenvalues(m)[0])
