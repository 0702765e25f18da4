"""Partial transposition over a single qubit of a three-qubit density matrix.

The implementation is the index rule: transposing qubit X swaps X's bit
between the row and column indices. Written on the matrix reshaped to a rank-6
tensor (row bits a, b, c then column bits a', b', c'), that is an axis swap.
The equivalent 2x2-block rearrangements are kept in the test suite as an
independent second route.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, ParamOutOfRange

QUBITS = ("A", "B", "C")
_BIT = {"A": 0, "B": 1, "C": 2}


def qubit_index(q: str) -> int:
    """Map a qubit label A/B/C to its bit position (A is most significant)."""
    key = str(q).upper()
    if key not in _BIT:
        raise ParamOutOfRange(f"qubit label must be one of {QUBITS}, got {q!r}")
    return _BIT[key]


def transpose_bits(m: np.ndarray, num_qubits: int, bit: int) -> np.ndarray:
    """Swap one qubit's bit between row and column indices of a 2^n matrix."""
    dim = 2 ** num_qubits
    t = np.asarray(m, dtype=np.complex128).reshape((2,) * (2 * num_qubits))
    axes = list(range(2 * num_qubits))
    axes[bit], axes[num_qubits + bit] = axes[num_qubits + bit], axes[bit]
    return np.ascontiguousarray(t.transpose(axes)).reshape(dim, dim)


def partial_transpose(rho: np.ndarray, q: str) -> np.ndarray:
    """Partial transpose of an 8x8 density matrix with respect to qubit ``q``.

    The result stays Hermitian with unit trace but need not be PSD; a negative
    eigenvalue certifies entanglement across the ``q`` vs rest cut.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (8, 8):
        raise InvariantViolation("shape", f"expected an 8x8 matrix, got {rho.shape}")
    return transpose_bits(rho, 3, qubit_index(q))
