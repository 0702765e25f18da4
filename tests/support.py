"""Shared fixtures-in-plain-python: random state factories and independent
oracles used to cross-check the library's own code paths.

Everything here deliberately avoids the library's implementation choices:
the eigenvalue oracle goes through characteristic-polynomial coefficients
and companion-matrix roots, partial transposition is rebuilt from the 2x2
block prescriptions, the canonical qubit-A channel output is also assembled
entry by entry, the tangle oracle uses partial traces and concurrences,
and the worst partial-transpose eigenvalue over inputs is searched by a
randomized seesaw instead of read off the GHZ state (the seesaw reuses the
library's axis swap, which the block-prescription route checks).
"""

from __future__ import annotations

import numpy as np

from spapt.ptranspose import transpose_bits


# ---------------------------------------------------------------------------
# random matrices and states
# ---------------------------------------------------------------------------

def random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n: int = 8) -> np.ndarray:
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


def random_density(rng, n: int = 8) -> np.ndarray:
    g = random_complex(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng, n: int = 8) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_state_mixed_or_pure(rng) -> np.ndarray:
    if rng.random() < 0.5:
        psi = random_pure(rng)
        return np.outer(psi, psi.conj())
    return random_density(rng)


def random_qubit(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def product_state(x, y, z) -> np.ndarray:
    return np.kron(np.kron(x, y), z)


def bell_pair(rng) -> np.ndarray:
    """A random maximally entangled two-qubit state."""
    base = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    u = random_unitary(rng, 2)
    return np.kron(u, np.eye(2)) @ base


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def placed_bell(rng, position: int) -> np.ndarray:
    """Pure |single qubit> x |Bell> with the lone qubit at A, B, or C."""
    x = random_qubit(rng)
    pair = bell_pair(rng)
    psi = np.kron(x, pair)  # lone qubit at A
    if position == 0:
        return psi
    t = psi.reshape(2, 2, 2)
    if position == 1:  # lone qubit at B
        return t.transpose(1, 0, 2).reshape(8)
    return t.transpose(1, 2, 0).reshape(8)  # lone qubit at C


# ---------------------------------------------------------------------------
# eigenvalue oracle: characteristic polynomial -> companion-matrix roots
# ---------------------------------------------------------------------------

def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - m), leading first, by trace recursion."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        acc = m @ acc + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(m @ acc) / k
    return coeffs


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues via companion-matrix roots of det(m - xI)."""
    m = np.asarray(m, dtype=complex)
    scale = float(np.linalg.norm(m)) / np.sqrt(m.shape[0])
    if scale == 0.0:
        return np.zeros(m.shape[0])
    roots = np.roots(charpoly_coefficients(m / scale))
    return np.sort(roots.real) * scale


# ---------------------------------------------------------------------------
# partial transposition, second route: 2x2 block prescriptions
# ---------------------------------------------------------------------------

def _block_grid(rho: np.ndarray) -> np.ndarray:
    # grid[r, s] is the 2x2 block at block-row r=(2a+b), block-col s=(2a'+b')
    return rho.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).copy()


def _from_grid(grid: np.ndarray) -> np.ndarray:
    return grid.transpose(0, 2, 1, 3).reshape(8, 8)


def pt_block_form(rho: np.ndarray, q: str) -> np.ndarray:
    """Partial transpose from the block prescriptions.

    Cut A swaps the a-bit between block row and block column, cut B swaps the
    b-bit, and cut C transposes every 2x2 block in place.
    """
    grid = _block_grid(np.asarray(rho, dtype=complex))
    out = np.empty_like(grid)
    for a in range(2):
        for b in range(2):
            for ap in range(2):
                for bp in range(2):
                    r, s = 2 * a + b, 2 * ap + bp
                    if q == "A":
                        out[r, s] = grid[2 * ap + b, 2 * a + bp]
                    elif q == "B":
                        out[r, s] = grid[2 * a + bp, 2 * ap + b]
                    else:
                        out[r, s] = grid[r, s].T
    return _from_grid(out)


# ---------------------------------------------------------------------------
# canonical channel, second route: entry-by-entry assembly
# ---------------------------------------------------------------------------

def spa_element_map(rho: np.ndarray) -> np.ndarray:
    """Canonical qubit-A output assembled entry by entry.

    Writes each upper-triangle entry of the output directly from the input
    entries (diagonal gets 1/10 + t/5, the a=0/a'=1 corner pulls conjugated
    entries from the mirrored positions, everything else is t/5), then fills
    the lower triangle by Hermiticity. Must agree entrywise with
    ``spa_pt(rho, 'A', CANONICAL_WEIGHT)``; the two routes cross-check the
    transposition indexing.
    """
    t = np.asarray(rho, dtype=np.complex128)
    if t.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got {t.shape}")
    out = np.zeros((8, 8), dtype=np.complex128)
    for i in range(8):
        out[i, i] = 1.0 / 10.0 + t[i, i] / 5.0
    for i in range(8):
        for j in range(i + 1, 8):
            if i < 4 and j >= 4:
                out[i, j] = np.conj(t[j - 4, i + 4]) / 5.0
            else:
                out[i, j] = t[i, j] / 5.0
    for i in range(8):
        for j in range(i):
            out[i, j] = np.conj(out[j, i])
    return out


# ---------------------------------------------------------------------------
# tangle oracle: one-vs-rest entanglement minus both pairwise concurrences
# ---------------------------------------------------------------------------

_SY = np.array([[0, -1j], [1j, 0]])
_SYSY = np.kron(_SY, _SY)


def concurrence_squared(rho_2q: np.ndarray) -> float:
    """Squared two-qubit concurrence of a (possibly mixed) 4x4 state.

    Uses the symmetric tau-matrix form: with rho = Psi Psi^dagger, the
    spin-flip overlaps are the singular values of Psi^T (sy x sy) Psi.
    Computing them as singular values (not square roots of eigenvalues of a
    product) keeps the near-zero ones at machine precision.
    """
    w, v = np.linalg.eigh(rho_2q)
    psi = v * np.sqrt(np.clip(w, 0.0, None))
    tau = psi.T @ _SYSY @ psi
    mu = np.linalg.svd(tau, compute_uv=False)
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3])) ** 2


def ckw_residual_tangle(psi: np.ndarray) -> float:
    """Residual tangle of a pure three-qubit state from reduced states."""
    rho = np.outer(psi, psi.conj()).reshape((2,) * 6)
    rho_a = np.einsum("abcdbc->ad", rho)
    rho_ab = np.einsum("abcdec->abde", rho).reshape(4, 4)
    rho_ac = np.einsum("abcdbf->acdf", rho).reshape(4, 4)
    c_one_rest_sq = 4.0 * float(np.linalg.det(rho_a).real)
    return c_one_rest_sq - concurrence_squared(rho_ab) - concurrence_squared(rho_ac)


# ---------------------------------------------------------------------------
# worst partial-transpose eigenvalue over inputs: randomized seesaw
# ---------------------------------------------------------------------------

def seesaw_worst_pt_min(bit: int, restarts: int = 12, iters: int = 400) -> float:
    """Most negative reachable eigenvalue of PT over all input states.

    Minimizes <phi| PT(|psi><psi|) |phi| by alternating exact eigenvector
    steps in psi and phi (each step is optimal for the other held fixed, so
    the value decreases monotonically). Convexity puts the worst case on
    pure inputs. Uses numpy's eigensolver internally because the steps need
    eigenvectors, which the Jacobi kernel does not expose.
    """
    rng = np.random.default_rng(20240800 + bit)
    best = 0.0
    for _ in range(restarts):
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        prev = np.inf
        val = 0.0
        for _ in range(iters):
            rho = np.outer(psi, psi.conj())
            w, v = np.linalg.eigh(transpose_bits(rho, 3, bit))
            val = float(w[0])
            phi = v[:, 0]
            w2, v2 = np.linalg.eigh(
                transpose_bits(np.outer(phi, phi.conj()), 3, bit)
            )
            psi = v2[:, 0]
            if abs(val - prev) < 1e-15:
                break
            prev = val
        best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def swap_bc_matrix() -> np.ndarray:
    """Permutation matrix exchanging qubits B and C (basis 4a+2b+c)."""
    perm = np.zeros((8, 8))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                perm[4 * a + 2 * c + b, 4 * a + 2 * b + c] = 1.0
    return perm


def w_param_grid() -> list[tuple[float, float, float]]:
    """Twenty normalized parameter triples whose magnitudes are closed under
    permutations, so per-cut minima taken over the grid coincide exactly."""
    half = 1.0 / np.sqrt(2.0)
    third = 1.0 / np.sqrt(3.0)
    pts: set[tuple[float, float, float]] = set()

    def orbit(x, y, z):
        for t in {(x, y, z), (x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)}:
            pts.add(t)

    orbit(0.6, 0.48, 0.64)                      # generic, 6 points
    orbit(0.3, 0.5, np.sqrt(0.66))              # generic, 6 points
    orbit(0.5, 0.5, half)                       # reaches the -1/2 extremum, 3 points
    orbit(0.6, 0.6, np.sqrt(0.28))              # 3 points
    pts.add((third, third, third))
    pts.add((third, third, -third))             # sign variant, same magnitudes
    out = sorted(pts)
    assert len(out) == 20
    return out
