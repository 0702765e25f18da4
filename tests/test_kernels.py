"""Backend-level checks for the Jacobi eigenvalue kernels."""

import numpy as np

from spapt import kernels
from support import random_hermitian


def test_numpy_path_matches_lapack_8x8():
    rng = np.random.default_rng(11)
    for _ in range(25):
        h = random_hermitian(rng, 8)
        np.testing.assert_allclose(
            kernels.jacobi_eigvalsh_numpy(h), np.linalg.eigvalsh(h), atol=1e-12
        )


def test_active_backend_matches_numpy_twin():
    rng = np.random.default_rng(12)
    for n in (2, 5, 8, 16):
        h = random_hermitian(rng, n)
        np.testing.assert_allclose(
            kernels.jacobi_eigvalsh(h), kernels.jacobi_eigvalsh_numpy(h), atol=1e-12
        )


def test_backends_agree_at_choi_size():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 64)
    w_active = kernels.jacobi_eigvalsh(h)
    w_numpy = kernels.jacobi_eigvalsh_numpy(h)
    np.testing.assert_allclose(w_active, w_numpy, atol=1e-11)
    np.testing.assert_allclose(w_active, np.linalg.eigvalsh(h), atol=1e-11)


def test_diagonal_and_scalar_inputs():
    np.testing.assert_allclose(
        kernels.jacobi_eigvalsh(np.diag([3.0, 1.0, 2.0]).astype(complex)), [1, 2, 3]
    )
    np.testing.assert_allclose(kernels.jacobi_eigvalsh(np.array([[4.0 + 0j]])), [4.0])


def test_input_matrix_not_mutated():
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 8)
    before = h.copy()
    kernels.jacobi_eigvalsh(h)
    kernels.jacobi_eigvalsh_numpy(h)
    np.testing.assert_array_equal(h, before)
