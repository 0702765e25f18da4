"""Cyclic Jacobi eigenvalue kernels for complex Hermitian matrices.

The sweep kernel exists in two interchangeable forms: a loop version compiled
with numba's ``@njit`` and a vectorized pure-numpy version. The compiled form
runs exactly when numba imports; otherwise the numpy form does.
``benchmarks/bench_eigensolver.py`` times both.

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

OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100


def _offdiag_norm(a: np.ndarray) -> float:
    s = a - np.diag(np.diagonal(a))
    return float(np.sqrt(np.sum(np.abs(s) ** 2)))


def _rotation(app: float, aqq: float, apq: complex):
    """Return (c, s, phase) zeroing the (p, q) element of a 2x2 Hermitian block."""
    m = abs(apq)
    phase = apq / m
    tau = (aqq - app) / (2.0 * m)
    if abs(tau) > 1e150:
        t = -0.5 / tau  # sqrt(1 + tau^2) would overflow; asymptotic root
    elif tau >= 0.0:
        t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, t * c, phase


def jacobi_eigvalsh_numpy(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex Hermitian matrix, numpy sweeps."""
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


def _sweep_loops(a, off_tol, max_sweeps):
    # Same rotations as jacobi_eigvalsh_numpy, written with explicit loops so
    # numba can compile them. `a` is overwritten.
    n = a.shape[0]
    for _ in range(max_sweeps):
        off2 = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                x = a[p, q]
                off2 += x.real * x.real + x.imag * x.imag
        if math.sqrt(2.0 * off2) < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                m = abs(apq)
                if m < 1e-300:
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * m)
                if abs(tau) > 1e150:
                    t = -0.5 / tau
                elif tau >= 0.0:
                    t = -1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = 1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ph = apq / m
                phc = ph.conjugate()
                for k in range(n):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp + (s * phc) * akq
                    a[k, q] = (-s * ph) * akp + c * akq
                for k in range(n):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk + (s * ph) * aqk
                    a[q, k] = (-s * phc) * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
    out = np.empty(n, np.float64)
    for i in range(n):
        out[i] = a[i, i].real
    return np.sort(out)


try:
    from numba import njit

    _sweep_jit = njit(cache=True)(_sweep_loops)

    def jacobi_eigvalsh_jit(matrix: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of a complex Hermitian matrix, numba sweeps."""
        a = np.array(matrix, dtype=np.complex128, order="C")
        return _sweep_jit(a, OFFDIAG_TOL, MAX_SWEEPS)

except ImportError:
    jacobi_eigvalsh_jit = None

if jacobi_eigvalsh_jit is not None:
    BACKEND = "numba"
    jacobi_eigvalsh = jacobi_eigvalsh_jit
else:
    BACKEND = "numpy"
    jacobi_eigvalsh = jacobi_eigvalsh_numpy
