"""Three-tangle values, invariances, and the GHZ/W split."""

import numpy as np
import pytest

from spapt import (
    GHZ_CLASS,
    NOT_GENUINE,
    W_CLASS,
    catalog,
    channel_minima,
    density_from_pure,
    hermitian_eigenvalues,
    ket,
    partial_transpose,
    pure_amplitudes,
    pure_subclass,
    three_tangle_pure,
)
from spapt import linalg
from spapt.errors import InputError
from support import (
    ckw_residual_tangle,
    placed_bell,
    product_state,
    random_pure,
    random_qubit,
    random_unitary,
)

INV2 = 1.0 / np.sqrt(2.0)
INV3 = 1.0 / np.sqrt(3.0)


def test_balanced_ghz_is_maximal():
    assert three_tangle_pure(INV2 * (ket("000") + ket("111"))) == pytest.approx(1.0, abs=1e-12)


def test_ghz_family_closed_form():
    for alpha in np.linspace(0.0, 1.0, 11):
        beta = np.sqrt(1 - alpha ** 2)
        tau = three_tangle_pure(alpha * ket("000") + beta * ket("111"))
        assert tau == pytest.approx(4 * alpha ** 2 * beta ** 2, abs=1e-12)


def test_w_span_vanishes_identically():
    rng = np.random.default_rng(61)
    for _ in range(30):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        psi = c[0] * ket("001") + c[1] * ket("010") + c[2] * ket("100")
        assert three_tangle_pure(psi) <= 1e-12


def test_product_and_biseparable_states_vanish():
    rng = np.random.default_rng(62)
    for _ in range(20):
        psi = product_state(random_qubit(rng), random_qubit(rng), random_qubit(rng))
        assert three_tangle_pure(psi) <= 1e-12
    for position in range(3):
        for _ in range(10):
            assert three_tangle_pure(placed_bell(rng, position)) <= 1e-12


def test_matches_residual_oracle():
    rng = np.random.default_rng(63)
    for _ in range(100):
        psi = random_pure(rng)
        assert three_tangle_pure(psi) == pytest.approx(
            ckw_residual_tangle(psi), abs=1e-9
        )


def test_local_phase_invariance():
    rng = np.random.default_rng(64)
    for _ in range(20):
        psi = random_pure(rng)
        thetas = rng.uniform(0, 2 * np.pi, 3)
        phases = np.ones(8, dtype=complex)
        for idx in range(8):
            bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
            phases[idx] = np.exp(1j * sum(t * b for t, b in zip(thetas, bits)))
        assert three_tangle_pure(phases * psi) == pytest.approx(
            three_tangle_pure(psi), abs=1e-12
        )
        # the discriminant form singles out qubit C; a local unitary on each
        # qubit must leave tau unchanged all the same
        u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)), random_unitary(rng, 2))
        assert three_tangle_pure(u @ psi) == pytest.approx(three_tangle_pure(psi), abs=1e-12)


def test_qubit_permutation_invariance():
    rng = np.random.default_rng(65)
    for _ in range(20):
        psi = random_pure(rng)
        t = psi.reshape(2, 2, 2)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert three_tangle_pure(t.transpose(perm).reshape(8)) == pytest.approx(
                three_tangle_pure(psi), abs=1e-12
            )


def test_range():
    rng = np.random.default_rng(66)
    for _ in range(50):
        tau = three_tangle_pure(random_pure(rng))
        assert -1e-15 <= tau <= 1.0 + 1e-12


def test_rejects_unnormalized():
    with pytest.raises(InputError, match="squared norm 8.0 differs from 1"):
        three_tangle_pure(np.ones(8))


class TestSubclass:
    def test_balanced_ghz(self):
        assert pure_subclass(pure_amplitudes(catalog("ghz", INV2, INV2))) == GHZ_CLASS

    def test_symmetric_w(self):
        assert pure_subclass(pure_amplitudes(catalog("w", INV3, INV3, INV3))) == W_CLASS

    def test_basis_state(self):
        assert pure_subclass(ket("000")) == NOT_GENUINE

    def test_placed_bell_not_genuine(self):
        rng = np.random.default_rng(67)
        assert pure_subclass(placed_bell(rng, 2)) == NOT_GENUINE

    def test_equal_cut_spectra_do_not_fix_the_class(self):
        # a pure state's cut spectrum depends only on that cut's Schmidt
        # coefficients, and these two share them on every cut, so no rule on
        # the three single-cut spectra can tell GHZ class from W class
        w = pure_amplitudes(catalog("w", INV3, INV3, INV3))
        ghz = pure_amplitudes(catalog("ghz", np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)))
        rho_w, rho_ghz = density_from_pure(w), density_from_pure(ghz)
        r = np.sqrt(2.0) / 3.0
        expected = [-r, 0.0, 0.0, 0.0, 0.0, 1.0 / 3.0, r, 2.0 / 3.0]
        for q in "ABC":
            spec_w = hermitian_eigenvalues(partial_transpose(rho_w, q))
            spec_ghz = hermitian_eigenvalues(partial_transpose(rho_ghz, q))
            np.testing.assert_allclose(spec_w, spec_ghz, atol=1e-9)
            np.testing.assert_allclose(spec_w, expected, atol=1e-9)
        minima_w, minima_ghz = channel_minima(rho_w), channel_minima(rho_ghz)
        for q in "ABC":
            assert minima_w[q] == pytest.approx(minima_ghz[q], abs=1e-9)
            assert minima_w[q] == pytest.approx(0.0057191, abs=1e-7)
        assert three_tangle_pure(w) == pytest.approx(0.0, abs=1e-12)
        assert three_tangle_pure(ghz) == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert pure_subclass(w) == W_CLASS
        assert pure_subclass(ghz) == GHZ_CLASS

    def test_generic_states_split_by_tangle(self):
        # the five-term superposition has positive tangle, so lands ghz-class
        assert pure_subclass(pure_amplitudes(catalog("g2"))) == GHZ_CLASS

    def test_runs_one_solve_per_cut(self, monkeypatch):
        # the projector of validated amplitudes needs no PSD check of its own
        calls = []
        solve = linalg.hermitian_eigenvalues

        def counting(m):
            calls.append(m.shape)
            return solve(m)

        monkeypatch.setattr(linalg, "hermitian_eigenvalues", counting)
        assert pure_subclass(pure_amplitudes(catalog("ghz", INV2, INV2))) == GHZ_CLASS
        assert calls == [(8, 8)] * 3
