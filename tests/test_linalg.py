"""Matrix helpers and the Hermitian eigensolver contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import dagger, hermitian_eigenvalues, min_eigenvalue
from spapt.errors import InputError, NumericalFailure
from spapt.states import density_from_pure, ket
from spapt.ptranspose import partial_transpose
from support import charpoly_eigenvalues, random_complex, random_hermitian


def ghz_pt_a():
    psi = (ket("000") + ket("111")) / np.sqrt(2.0)
    return partial_transpose(density_from_pure(psi), "A")


class TestDagger:
    def test_identity_self_adjoint(self):
        np.testing.assert_array_equal(dagger(np.eye(8)), np.eye(8))

    def test_forced_by_definition(self):
        m = np.array([[0.0, 1j], [0.0, 0.0]])
        np.testing.assert_array_equal(dagger(m), np.array([[0.0, 0.0], [-1j, 0.0]]))

    def test_involution_on_random_8x8(self):
        m = random_complex(np.random.default_rng(3), 8)
        np.testing.assert_array_equal(dagger(dagger(m)), m)


class TestKron:
    def test_projector_product(self):
        # np.kron puts qubit A in the most significant bit, as ``ket`` does
        e = np.eye(2)
        for label in ("000", "011", "101", "110"):
            a, b, c = (np.outer(e[int(x)], e[int(x)]) for x in label)
            np.testing.assert_array_equal(
                np.kron(np.kron(a, b), c), np.outer(ket(label), ket(label))
            )


def masked_hermitian(seed, n, keep):
    """Random Hermitian n x n whose entry pairs, diagonal included, are each kept with
    probability ``keep`` and otherwise zero, as in partial transposes and Choi operators."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    zero = np.triu(rng.random((n, n)) >= keep)
    h[zero | zero.T] = 0.0
    return h


class TestHermitianEigenvalues:
    def test_diagonal_sorted(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex)), [1, 2, 3]
        )

    def test_scalar_input(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.array([[4.0 + 0j]])), [4.0])

    def test_matches_lapack_8x8(self):
        rng = np.random.default_rng(11)
        inputs = [random_hermitian(rng, 8) for _ in range(25)]
        # a rotation skips an entry pair only when both entries are zero, so
        # inputs with exact zeros, permuted, must match too
        for density in (0.2, 0.4, 0.6):
            for _ in range(25):
                h = random_hermitian(rng, 8)
                zero = np.triu(rng.random((8, 8)) > density, 1)
                h[zero | zero.T] = 0.0
                perm = rng.permutation(8)
                inputs.append(h[np.ix_(perm, perm)])
        # arrowhead: rotating (0, q) meets row k with a[k, 0] != 0 and a[k, q] == 0
        arrow = np.diag(np.arange(8.0)).astype(complex)
        arrow[0, 1:] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        arrow[1:, 0] = arrow[0, 1:].conj()
        perm = rng.permutation(8)
        inputs += [arrow, arrow[np.ix_(perm, perm)]]
        for h in inputs:
            np.testing.assert_allclose(
                hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-12
            )

    def test_matches_lapack_at_choi_size(self):
        h = random_hermitian(np.random.default_rng(13), 64)
        np.testing.assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-11)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_masked_8x8_matches_lapack(self, seed, keep):
        h = masked_hermitian(seed, 8, keep)
        np.testing.assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-12)

    @settings(max_examples=3, deadline=None)  # about 1 s per 64x64 solve
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_masked_64x64_matches_lapack(self, seed, keep):
        h = masked_hermitian(seed, 64, keep)
        np.testing.assert_allclose(hermitian_eigenvalues(h), np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-12)

    def test_input_not_mutated(self):
        h = random_hermitian(np.random.default_rng(14), 8)
        before = h.copy()
        hermitian_eigenvalues(h)
        np.testing.assert_array_equal(h, before)

    def test_balanced_ghz_pt_spectrum(self):
        expected = np.sort([-0.5, 0, 0, 0, 0, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(hermitian_eigenvalues(ghz_pt_a()), expected, atol=1e-12)

    def test_matches_characteristic_polynomial_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            h = random_hermitian(rng, 8)
            np.testing.assert_allclose(
                hermitian_eigenvalues(h), charpoly_eigenvalues(h), atol=1e-9
            )

    def test_rejects_non_square(self):
        # empty and non-finite input is named before any IndexError or numpy warning
        nan, inf = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
        nan[0, 1] = nan[1, 0] = np.nan
        inf[1, 1] = np.inf
        for m, message in [
            (np.ones((2, 3), dtype=complex), r"expected a non-empty square matrix, got shape \(2, 3\)"),
            (np.zeros((0, 0)), r"expected a non-empty square matrix, got shape \(0, 0\)"),
            (nan, r"entry \(0, 1\) is \(nan\+0j\), not finite"),
            (inf, r"entry \(1, 1\) is \(inf\+0j\), not finite"),
        ]:
            with pytest.raises(InputError, match=f"^{message}$"):
                min_eigenvalue(m)

    def test_rejects_non_hermitian_and_reports_defect(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-3
        with pytest.raises(InputError, match="hermiticity defect 1.000e-03 exceeds tolerance"):
            hermitian_eigenvalues(m)

    def test_nan_trace_residual_fails_closed(self):
        # the second moment overflows to inf (or NaN for 1e308+1e308j), so the
        # bound does too and fails the check; the message names the residual
        # that failed and reports the bound that was computed. Symmetrizing 1e308+1e308j
        # must not overflow: it runs under numpy's default "warn" state, so a
        # leaked warning fails this test under the suite's error::RuntimeWarning filter.
        for x, residual, quiet in [(1e160, "trace residual 1.000e\\+00, bound inf", True),
                                   (1e300, "trace residual 1.000e\\+00, bound inf", True),
                                   (1e308 + 1e308j, "trace residual 1.000e\\+00, bound nan", False)]:
            m = np.eye(8, dtype=complex) / 8.0
            m[0, 1], m[1, 0] = x, np.conj(x)
            with np.errstate(all="ignore" if quiet else "warn"), pytest.raises(
                NumericalFailure, match=f"trace residuals out of bound: {residual}$"
            ):
                hermitian_eigenvalues(m)

    @pytest.mark.parametrize("x", [1e-160, 1e-200])
    def test_pair_far_below_its_diagonal_gap(self, x):
        # the 1e-13 pair at (1, 2) is above the OFFDIAG_TOL / 8 floor, and its
        # |tau| = 5e162 is past 1.3e154: tau * tau is inf, so the rotation angle
        # is 0 and the pair is only zeroed. The x pair at (3, 6) is below the
        # floor and is skipped.
        h = np.diag(np.arange(8.0)).astype(complex)
        h[2, 2] = 1e150
        h[3, 6] = h[6, 3] = x
        h[1, 2] = h[2, 1] = 1e-13
        np.testing.assert_array_equal(hermitian_eigenvalues(h), [0, 1, 3, 4, 5, 6, 7, 1e150])

    def test_trace_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hermitian(rng, 8)
            w = hermitian_eigenvalues(h)
            assert abs(np.trace(h).real - w.sum()) <= 1e-10
            assert abs(np.trace(h @ h).real - (w ** 2).sum()) <= 1e-10

    def test_affine_shift_law(self):
        # spectrum of p*I/8 + (1-p)*m is p/8 + (1-p)*spectrum(m)
        rng = np.random.default_rng(8)
        for p in (0.0, 0.3, 0.8, 1.0):
            h = random_hermitian(rng, 8)
            shifted = p * np.eye(8) / 8.0 + (1.0 - p) * h
            np.testing.assert_allclose(
                hermitian_eigenvalues(shifted),
                np.sort(p / 8.0 + (1.0 - p) * hermitian_eigenvalues(h)),
                atol=1e-12,
            )


class TestMinEigenvalue:
    def test_maximally_mixed(self):
        assert min_eigenvalue(np.eye(8, dtype=complex) / 8.0) == pytest.approx(1 / 8)

    def test_w_state_closed_form(self):
        for l0, l1, l2 in [(0.6, 0.48, 0.64), (0.3, 0.5, np.sqrt(0.66))]:
            psi = l0 * ket("001") + l1 * ket("010") + l2 * ket("100")
            got = min_eigenvalue(partial_transpose(density_from_pure(psi), "A"))
            assert got == pytest.approx(-abs(l2) * np.hypot(l0, l1), abs=1e-12)

    def test_gram_matrices_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_complex(rng, 8)
            assert min_eigenvalue(g @ dagger(g)) >= -1e-12


class TestIsPsd:
    """PSD within the Hermiticity tolerance, checked through ``min_eigenvalue``."""

    def test_identity(self):
        assert min_eigenvalue(np.eye(8, dtype=complex)) >= -1e-10

    def test_ghz_partial_transpose_is_not(self):
        assert min_eigenvalue(ghz_pt_a()) < -1e-10

    def test_gram_construction(self):
        g = random_complex(np.random.default_rng(10), 8)
        assert min_eigenvalue(g @ dagger(g) / np.trace(g @ dagger(g)).real) >= -1e-10
