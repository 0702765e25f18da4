"""Structural physical approximation of single-qubit partial transposition.

The approximated channel mixes the fully depolarizing output with the partial
transpose:

    output(rho) = (p/8) * I  +  (1 - p) * PT_q(rho)

Because the identity commutes with everything, the output spectrum is the
affine image ``p/8 + (1-p) * mu`` of the partial-transpose spectrum. At the
canonical weight ``p = 4/5`` the PPT test "PT_q(rho) is PSD" becomes
"min eigenvalue of the channel output >= 1/10", which is the threshold used
by :mod:`spapt.classify`.

Two different weights matter and are deliberately kept apart:

* :func:`min_cp_parameter` returns the smallest weight at which the channel
  output is PSD for every three-qubit input state (worst case over inputs).
  That weight is 4/5 and it is what fixes the 1/10 threshold.
* :func:`min_choi_psd_parameter` returns the smallest weight at which the
  channel's Choi operator is PSD, i.e. the channel extends positively to
  entangled inputs on a doubled system. That weight is larger (32/33), so
  outputs on ordinary inputs being PSD from 4/5 on does not by itself make
  the mixed map completely positive there.

Both weights follow in closed form from the same affine law, one
eigensolve each. With ``mu`` the most negative partial-transpose eigenvalue
over all input states, ``p* = -8 mu / (1 - 8 mu)``; with ``mu_c`` the minimum
of the bare (``p = 0``) Choi operator, ``p*_choi = -64 mu_c / (1 - 64 mu_c)``.
A single qubit against the rest is a 2x4 cut, so pure inputs have Schmidt
rank at most 2 and ``mu >= -sqrt(l1 l2) >= -1/2``; the balanced GHZ state
attains -1/2 on every cut (see :func:`worst_case_pt_min`). ``mu_c`` is -1/2
as well, which gives 4/5 and 32/33.
"""

from __future__ import annotations

import numpy as np

from .linalg import min_eigenvalue
from .errors import ParamOutOfRange
from .ptranspose import partial_transpose, qubit_index, transpose_bits
from .states import PSD_TOL

CANONICAL_WEIGHT = 4.0 / 5.0
THRESHOLD = CANONICAL_WEIGHT / 8.0  # 1/10


def _check_weight(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRange(f"mixing weight p={p!r} outside [0, 1]")
    return p


def spa_pt(rho: np.ndarray, q: str, p: float) -> np.ndarray:
    """Channel output ``(p/8) I + (1-p) PT_q(rho)``."""
    p = _check_weight(p)
    return (p / 8.0) * np.eye(8, dtype=np.complex128) + (1.0 - p) * partial_transpose(rho, q)


def choi_matrix(q: str, p: float) -> np.ndarray:
    """Choi operator of the channel at weight ``p``.

    Applies the channel to the second half of the maximally entangled
     8 x 8 pair state (amplitudes 1/sqrt(8)), giving a Hermitian unit-trace
    64x64 operator whose spectrum decides complete positivity.
    """
    p = _check_weight(p)
    bit = qubit_index(q)
    psi = np.eye(8, dtype=np.complex128).reshape(-1) / np.sqrt(8.0)
    phi = np.outer(psi, psi.conj())
    pt_choi = transpose_bits(phi, 6, 3 + bit)
    return p * np.eye(64, dtype=np.complex128) / 64.0 + (1.0 - p) * pt_choi


def worst_case_pt_min(q: str) -> float:
    """Most negative partial-transpose eigenvalue over all input states, cut ``q``.

    The value is -1/2 on every cut, read off one 8x8 solve:

    * A single qubit against the other two is a 2x4 cut, so a pure input has
      Schmidt rank at most 2, with coefficients ``l1 + l2 = 1``.
    * The partial transpose of such a state has spectrum ``l1, l2,
      +sqrt(l1*l2), -sqrt(l1*l2)`` and zeros, so its minimum is
      ``-sqrt(l1*l2) >= -(l1 + l2)/2 = -1/2``.
    * A mixed input is a convex sum of pure ones, partial transposition is
      linear and the smallest eigenvalue is concave, so the bound holds for
      every input state.
    * The balanced GHZ state has ``l1 = l2 = 1/2`` on every cut and attains
      the bound; its partial-transpose minimum is returned.
    """
    ghz = np.zeros((8, 8), dtype=np.complex128)
    ghz[np.ix_((0, 7), (0, 7))] = 0.5
    return min_eigenvalue(partial_transpose(ghz, q))


def _psd_weight(mu: float, dim: int) -> float:
    """Smallest ``p`` with ``p/dim + (1-p)*mu >= 0``; 0 when ``mu >= -PSD_TOL``."""
    if mu >= -PSD_TOL:
        return 0.0
    return -dim * mu / (1.0 - dim * mu)


def min_cp_parameter(q: str) -> float:
    """Smallest weight at which every input state yields a PSD output (4/5).

    The worst-case output eigenvalue at weight ``p`` is
    ``p/8 + (1-p) * mu`` with ``mu = worst_case_pt_min(q)`` by the affine
    spectrum law, which is zero at ``p = -8 mu / (1 - 8 mu)``. The closed
    form is exact to solver precision.
    """
    return _psd_weight(worst_case_pt_min(q), 8)


def min_choi_psd_parameter(q: str) -> float:
    """Smallest weight at which the Choi operator itself is PSD (32/33).

    The Choi operator at weight ``p`` is ``p I/64 + (1-p) C0`` with
    ``C0 = choi_matrix(q, 0)``, so its minimum is ``p/64 + (1-p) * mu_c``
    for ``mu_c`` the minimum of ``C0`` (-1/2), which is zero at
    ``p = -64 mu_c / (1 - 64 mu_c)``.
    """
    return _psd_weight(min_eigenvalue(choi_matrix(q, 0.0)), 64)
