"""Dense complex matrix helpers and the Hermitian eigensolver.

Matrices are plain complex128 ``numpy.ndarray`` values, agnostic of the
quantum layers above. The one eigensolver is a cyclic Jacobi kernel, sized for
the 8x8 working matrices and the 64x64 operators of :mod:`spapt.spa`. It acts
on Python rows, because numpy call overhead dominated its 8x8 rotations. The
rows hold Python floats when every imaginary part is zero (complex otherwise):
complex arithmetic on zero imaginary parts rounds like real arithmetic, so
real rows give the same spectrum, bit for bit, at less cost. The indices split
into the connected blocks of the exactly nonzero off-diagonal pattern, and each
block is swept in place on the full rows, at its own indices only, with no
copy: entries between blocks are zero, so the spectrum is again the same.
Every catalog state is real; the partial transposes of ``ghz-w`` and ``rho2``
split into blocks of at most three, a 64x64 Choi operator into 8, 4, 4 and 48 of one.

Each rotation zeroes one off-diagonal pair (p, q) with the unitary

    U[p, p] = c          U[p, q] = -s * exp(i*phi)
    U[q, p] = s * exp(-i*phi)   U[q, q] = c

where ``a[p, q] = m * exp(i*phi)`` and ``t = s/c`` is the smaller-magnitude
root of ``t^2 - 2*tau*t - 1 = 0`` with ``tau = (a[q,q] - a[p,p]) / (2*m)``.
Past ``|tau|`` of about 1.3e154, ``tau*tau`` is inf and t is +-0: the rotation
then only zeroes an entry over 150 orders of magnitude below its diagonal gap.
Sweeps are cyclic threshold Jacobi (Rutishauser; Wilkinson & Reinsch, 1971): a
pair with ``|a[p, q]| < OFFDIAG_TOL / n`` is skipped, and a block's sweeps stop
after one that rotates no pair (the off-diagonal Frobenius norm is then below
``sqrt(n(n-1)) * OFFDIAG_TOL / n < OFFDIAG_TOL``) or after ``MAX_SWEEPS``. The
floor keeps the full n in every block, so that bound still holds: entries
between blocks are zero, and entries within one are below ``OFFDIAG_TOL / n``.
"""

from __future__ import annotations

import math
from itertools import combinations, compress

import numpy as np

from .errors import InputError, NumericalFailure

HERMITICITY_TOL = 1e-10
OFFDIAG_TOL = 1e-13
MAX_SWEEPS = 100


def as_float(x, what: str) -> float:
    """``x`` as a finite float, the one finiteness rule for scalars from outside: NaN, an
    infinity, an integer too large for a double or a non-number is an InputError."""
    try:
        v = float(x)
        if math.isfinite(v):
            return v
        got = repr(v)
    except (OverflowError, TypeError, ValueError) as exc:
        got = "an integer too large" if isinstance(exc, OverflowError) else repr(x)
    raise InputError(f"{what}: expected a finite number, got {got}")


def as_complex_array(x, what: str) -> np.ndarray:
    """``x`` as a complex128 array; a conversion error is an InputError naming ``what``."""
    try:
        return np.asarray(x, dtype=np.complex128)
    except (OverflowError, TypeError, ValueError) as exc:  # too large, not a number, ragged
        raise InputError(f"{what}: expected an array of numbers ({exc})") from None


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))


def _blocks(a: list) -> list[list[int]]:
    """Ascending index lists of the connected blocks of the exactly nonzero
    off-diagonal pattern of the Hermitian rows ``a``; each row is scanned once."""
    index = range(len(a))
    seen = [False] * len(a)
    blocks = []
    for i in index:
        if not seen[i]:
            seen[i] = True
            block = [i]
            for k in block:  # grows while it is read: a breadth-first search
                for j in compress(index, a[k]):  # the columns of row k's nonzero entries
                    if not seen[j]:
                        seen[j] = True
                        block.append(j)
            blocks.append(sorted(block))  # ascending: pairs in the order of a full sweep
    return blocks


def _jacobi_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex128 Hermitian array by threshold Jacobi sweeps,
    block by block, on rows of Python floats when every imaginary part is zero."""
    rows = (m if m.imag.any() else m.real).tolist()
    for block in _blocks(rows):  # the floor takes the full n, whatever the block size
        _sweep(rows, block, OFFDIAG_TOL / len(rows))
    return np.sort([row[k].real for k, row in enumerate(rows)])


def _sweep(a: list, block: list[int], floor: float) -> None:
    """Threshold Jacobi sweeps, in place on the rows ``a`` at ``block``'s indices only."""
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p, q in combinations(block, 2):
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
            for i in block:  # columns p and q
                row = a[i]
                x, y = row[p], row[q]
                row[p] = c * x + (s * phc) * y
                row[q] = (-s * ph) * x + c * y
            for k in block:  # rows p and q
                x, y = rowp[k], rowq[k]
                rowp[k] = c * x + (s * ph) * y
                rowq[k] = (-s * phc) * x + c * y
            rowp[q] = rowq[p] = 0.0
        if not rotated:
            break


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    ``HERMITICITY_TOL`` bounds the hermiticity defect and the trace-moment
    residuals; the input is symmetrized before the solve so the defect never
    biases the spectrum. The spectrum is verified against the first two trace
    moments (scaled by the second moment for large-norm inputs); a violation,
    NaN or an infinite bound included, raises :class:`NumericalFailure`. An empty
    or non-finite input raises :class:`InputError`, naming its shape or entry.
    """
    m = as_complex_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InputError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        i = int(np.flatnonzero(~np.isfinite(m))[0])
        raise InputError(f"entry {divmod(i, len(m))} is {complex(m.flat[i])}, not finite")
    defect = hermiticity_defect(m)
    if not defect <= HERMITICITY_TOL:
        raise InputError(f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.3e}")
    h = m / 2.0 + m.conj().T / 2.0  # halves first: m + m.conj().T overflows near 1e308
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
