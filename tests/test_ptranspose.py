"""Partial transposition: spectra, predicates, and structural properties."""

import numpy as np
import pytest

from spapt import (
    catalog,
    channel_minima,
    choi_matrix,
    density_from_pure,
    hermitian_eigenvalues,
    ket,
    min_cp_parameter,
    min_eigenvalue,
    partial_transpose,
    spa_pt,
    to_density,
)
from spapt.errors import InputError
from support import pt_block_form, random_density, w_param_grid

INV2 = 1.0 / np.sqrt(2.0)


def ghz_density(alpha, beta):
    return density_from_pure(alpha * ket("000") + beta * ket("111"))


def w_density(l0, l1, l2):
    return density_from_pure(l0 * ket("001") + l1 * ket("010") + l2 * ket("100"))


def test_maximally_mixed_is_invariant():
    mm = np.eye(8, dtype=complex) / 8.0
    for q in "ABC":
        np.testing.assert_array_equal(partial_transpose(mm, q), mm)


def test_ghz_spectrum_closed_form():
    alpha, beta = 0.6, 0.8
    got = hermitian_eigenvalues(partial_transpose(ghz_density(alpha, beta), "A"))
    expected = np.sort([0, 0, 0, 0, alpha ** 2, beta ** 2, alpha * beta, -alpha * beta])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_w_cut_b_spectrum_closed_form():
    l0, l1, l2 = 0.6, 0.48, 0.64
    got = hermitian_eigenvalues(partial_transpose(w_density(l0, l1, l2), "B"))
    r = abs(l1) * np.hypot(l0, l2)
    expected = np.sort([0, 0, 0, 0, l1 ** 2, l0 ** 2 + l2 ** 2, r, -r])
    np.testing.assert_allclose(got, expected, atol=1e-12)


class TestMinEigenvalue:
    def test_balanced_ghz(self):
        rho = ghz_density(INV2, INV2)
        assert min_eigenvalue(partial_transpose(rho, "A")) == pytest.approx(-0.5, abs=1e-12)

    def test_w_at_reported_extremal_parameter(self):
        # the recorded fixture value at |l2| = 0.7
        l2 = 0.7
        l0 = l1 = np.sqrt((1 - l2 ** 2) / 2)
        rho = w_density(l0, l1, l2)
        assert min_eigenvalue(partial_transpose(rho, "A")) == pytest.approx(-0.4999, abs=1e-4)

    def test_product_projector(self):
        rho = density_from_pure(ket("000"))
        for q in "ABC":
            assert min_eigenvalue(partial_transpose(rho, q)) == pytest.approx(0.0, abs=1e-12)


class TestPptPredicate:
    def test_bell_flagged_mixture_is_ppt_on_cut_a(self):
        rho = to_density(catalog("b1", 0.5))
        assert min_eigenvalue(partial_transpose(rho, "A")) >= -1e-10

    def test_balanced_ghz_is_npt_everywhere(self):
        rho = ghz_density(INV2, INV2)
        assert all(min_eigenvalue(partial_transpose(rho, q)) < -1e-10 for q in "ABC")

    def test_maximally_mixed_is_ppt(self):
        mm = np.eye(8, dtype=complex) / 8.0
        assert all(min_eigenvalue(partial_transpose(mm, q)) >= -1e-10 for q in "ABC")


class TestStructuralProperties:
    def test_involution(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            rho = random_density(rng)
            for q in "ABC":
                np.testing.assert_allclose(
                    partial_transpose(partial_transpose(rho, q), q), rho, atol=1e-15
                )

    def test_three_cuts_compose_to_full_transpose(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            rho = random_density(rng)
            out = partial_transpose(partial_transpose(partial_transpose(rho, "A"), "B"), "C")
            np.testing.assert_allclose(out, rho.T, atol=1e-15)

    def test_trace_hermiticity_frobenius_preserved(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            rho = random_density(rng)
            for q in "ABC":
                pt = partial_transpose(rho, q)
                assert abs(np.trace(pt).real - 1.0) <= 1e-12
                assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12
                assert abs(np.linalg.norm(pt) - np.linalg.norm(rho)) <= 1e-12

    def test_block_prescriptions_match_bitswap_rule(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            rho = random_density(rng)
            for q in "ABC":
                np.testing.assert_array_equal(partial_transpose(rho, q), pt_block_form(rho, q))


class TestCutSymmetry:
    def test_ghz_minima_identical_across_cuts(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            rho = ghz_density(np.cos(theta), np.sin(theta))
            vals = [min_eigenvalue(partial_transpose(rho, q)) for q in "ABC"]
            assert max(vals) - min(vals) <= 1e-12

    def test_w_extremal_minimum_identical_across_cuts(self):
        # Pointwise the three cuts differ for asymmetric parameters; the most
        # negative value over the (permutation-closed) parameter family is
        # cut-independent.
        grid = w_param_grid()
        per_cut = {
            q: min(min_eigenvalue(partial_transpose(w_density(*p), q)) for p in grid)
            for q in "ABC"
        }
        vals = list(per_cut.values())
        assert max(vals) - min(vals) <= 1e-12
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric_w_point_identical_across_cuts(self):
        s = 1.0 / np.sqrt(3.0)
        rho = w_density(s, s, s)
        vals = [min_eigenvalue(partial_transpose(rho, q)) for q in "ABC"]
        assert max(vals) - min(vals) <= 1e-12


def test_rejects_bad_qubit_label():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(8, dtype=complex) / 8.0, "D")


MAXIMALLY_MIXED = np.eye(8, dtype=complex) / 8.0


@pytest.mark.parametrize("call, message", [
    (lambda: partial_transpose(MAXIMALLY_MIXED, "D"), "qubit label must be one of"),
    (lambda: spa_pt(MAXIMALLY_MIXED, "D", 0.8), "qubit label must be one of"),
    (lambda: channel_minima(MAXIMALLY_MIXED, cuts=("D",)), "qubit label must be one of"),
    (lambda: choi_matrix("D", 0.8), "qubit label must be one of"),
    (lambda: min_cp_parameter("D"), "qubit label must be one of"),
    (lambda: partial_transpose(np.eye(4) / 4.0, "A"), r"expected an 8x8 matrix, got \(4, 4\)"),
    (lambda: ket("012"), "bad basis label '012'"),
], ids=["partial_transpose", "spa_pt", "channel_minima", "choi_matrix", "min_cp_parameter",
        "non-8x8", "ket"])
def test_bad_api_input_is_an_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()
