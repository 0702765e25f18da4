"""The approximated-transposition channel, its element map, and its Choi data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import (
    CANONICAL_WEIGHT,
    catalog,
    choi_matrix,
    density_from_pure,
    hermitian_eigenvalues,
    ket,
    min_choi_psd_parameter,
    min_cp_parameter,
    min_eigenvalue,
    partial_transpose,
    spa_pt,
    to_density,
)
from spapt.errors import ParamOutOfRange
from spapt.spa import worst_case_pt_min
from support import (
    random_density,
    random_pure,
    random_state_mixed_or_pure,
    seesaw_worst_pt_min,
    spa_element_map,
)

INV2 = 1.0 / np.sqrt(2.0)
MM = np.eye(8, dtype=complex) / 8.0


def choi_oracle(bit: int, p: float) -> np.ndarray:
    """Choi operator assembled column by column from basis units, with the
    single-qubit transpose done by explicit index surgery."""
    mask = 4 >> bit
    out = np.zeros((64, 64), dtype=complex)
    for i in range(8):
        for j in range(8):
            unit = np.zeros((8, 8), dtype=complex)
            unit[i, j] = 1.0
            ti = (i & ~mask) | (j & mask)
            tj = (j & ~mask) | (i & mask)
            flipped = np.zeros((8, 8), dtype=complex)
            flipped[ti, tj] = 1.0
            lam = (p / 8.0) * np.trace(unit) * np.eye(8) + (1.0 - p) * flipped
            out += np.kron(unit, lam) / 8.0
    return out


class TestChannel:
    def test_pure_depolarizing_limit(self):
        rho = random_density(np.random.default_rng(41))
        for q in "ABC":
            np.testing.assert_allclose(spa_pt(rho, q, 1.0), MM, atol=1e-15)

    def test_zero_weight_is_plain_partial_transpose(self):
        rho = random_density(np.random.default_rng(42))
        for q in "ABC":
            np.testing.assert_array_equal(spa_pt(rho, q, 0.0), partial_transpose(rho, q))

    def test_balanced_ghz_sits_on_the_psd_boundary(self):
        rho = density_from_pure((ket("000") + ket("111")) * INV2)
        assert min_eigenvalue(spa_pt(rho, "A", 0.8)) == pytest.approx(0.0, abs=1e-12)

    def test_canonical_fixes_maximally_mixed(self):
        got = spa_pt(MM, "B", CANONICAL_WEIGHT)
        np.testing.assert_allclose(got, MM, atol=1e-15)

    def test_g2_minima(self):
        rho = to_density(catalog("g2"))
        lam_a = min_eigenvalue(spa_pt(rho, "A", CANONICAL_WEIGHT))
        lam_b = min_eigenvalue(spa_pt(rho, "B", CANONICAL_WEIGHT))
        assert lam_a == pytest.approx(0.030718, abs=1e-5)
        assert lam_b == pytest.approx(0.0434315, abs=1e-5)
        # exact closed forms behind the printed digits
        assert lam_a == pytest.approx(0.1 - np.sqrt(3.0) / 25.0, abs=1e-12)
        assert lam_b == pytest.approx(0.1 - np.sqrt(2.0) / 25.0, abs=1e-12)

    def test_kye_family_closed_form(self):
        for a in (2.0, 3.0, 4.0, 7.5):
            rho = to_density(catalog("kye", a))
            expected = (2 + 5 * a) / (40 * (1 + a))
            for q in "ABC":
                assert min_eigenvalue(spa_pt(rho, q, CANONICAL_WEIGHT)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_weight_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            spa_pt(MM, "A", 1.2)

    def test_trace_preserved_for_all_weights(self):
        rho = random_density(np.random.default_rng(43))
        for p in (0.0, 0.3, 0.8, 1.0):
            for q in "ABC":
                assert abs(np.trace(spa_pt(rho, q, p)).real - 1.0) <= 1e-12

    def test_affine_spectrum_law(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            rho = random_state_mixed_or_pure(rng)
            for p in (0.0, 0.3, 0.8, 1.0):
                for q in "ABC":
                    got = hermitian_eigenvalues(spa_pt(rho, q, p))
                    base = hermitian_eigenvalues(partial_transpose(rho, q))
                    np.testing.assert_allclose(
                        got, np.sort(p / 8.0 + (1 - p) * base), atol=1e-12
                    )

    def test_threshold_equivalence_and_psd_certification(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            rho = random_state_mixed_or_pure(rng)
            for q in "ABC":
                out = spa_pt(rho, q, CANONICAL_WEIGHT)
                lam = min_eigenvalue(out)
                assert lam >= -1e-10  # canonical outputs stay PSD
                mu = min_eigenvalue(partial_transpose(rho, q))
                assert (lam >= 0.1 - 1e-10) == (mu >= -1e-10)


class TestElementMap:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(spa_element_map(MM), MM, atol=1e-15)

    def test_ghz_corner_entry_pulls_conjugate(self):
        alpha, beta = 0.6, 0.8
        rho = density_from_pure(alpha * ket("000") + (beta * 1j) * ket("111"))
        out = spa_element_map(rho)
        # row 4, column 5 (1-based) receives the conjugate of entry (1, 8)
        assert out[3, 4] == pytest.approx(np.conj(rho[0, 7]) / 5.0)
        np.testing.assert_allclose(out, spa_pt(rho, "A", CANONICAL_WEIGHT), atol=1e-15)

    def test_matches_canonical_channel_entrywise(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            rho = random_density(rng)
            np.testing.assert_allclose(
                spa_element_map(rho), spa_pt(rho, "A", CANONICAL_WEIGHT), atol=1e-15
            )


class TestChoi:
    def test_hermitian_unit_trace(self):
        c = choi_matrix("A", 0.37)
        assert abs(np.trace(c).real - 1.0) <= 1e-12
        assert np.max(np.abs(c - c.conj().T)) <= 1e-14

    def test_full_depolarizing_choi(self):
        c = choi_matrix("B", 1.0)
        np.testing.assert_allclose(c, np.eye(64) / 64.0, atol=1e-15)
        assert min_eigenvalue(c) == pytest.approx(1 / 64, abs=1e-12)

    def test_bare_transposition_choi_is_indefinite(self):
        for q, bit in (("A", 0), ("B", 1), ("C", 2)):
            c = choi_matrix(q, 0.0)
            np.testing.assert_allclose(c, choi_oracle(bit, 0.0), atol=1e-14)
            lam = min_eigenvalue(c)
            assert lam < 0
            assert lam == pytest.approx(-0.5, abs=1e-12)

    def test_matches_unit_column_oracle_at_interior_weight(self):
        np.testing.assert_allclose(choi_matrix("C", 0.55), choi_oracle(2, 0.55), atol=1e-14)

    def test_canonical_weight_choi_value(self):
        # 0.8/64 - 0.2/2: outputs on states are PSD from 4/5 on, the Choi
        # operator itself is not yet
        assert min_eigenvalue(choi_matrix("A", 0.8)) == pytest.approx(-0.0875, abs=1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="recorded reference value: the Choi operator is reported PSD at "
        "weight 4/5, but it only turns PSD at 32/33; 4/5 is where outputs on "
        "input states turn PSD",
    )
    def test_reported_choi_psd_boundary_at_canonical_weight(self):
        assert min_eigenvalue(choi_matrix("A", 0.8)) == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), q=st.sampled_from("ABC"))
def test_choi_minimum_is_affine_in_the_weight(p, q):
    # the law both closed-form weights rest on
    expected = p / 64.0 + (1.0 - p) * min_eigenvalue(choi_matrix(q, 0.0))
    assert min_eigenvalue(choi_matrix(q, p)) == pytest.approx(expected, abs=1e-12)


class TestThresholds:
    def test_worst_case_input_eigenvalue(self):
        for q in "ABC":
            assert worst_case_pt_min(q) == pytest.approx(-0.5, abs=1e-9)

    def test_min_cp_parameter_is_four_fifths(self):
        for q in "ABC":
            assert min_cp_parameter(q) == pytest.approx(0.8, abs=1e-6)

    def test_choi_psd_weight_is_32_over_33(self):
        assert min_choi_psd_parameter("A") == pytest.approx(32 / 33, abs=1e-6)

    @pytest.mark.parametrize("q, bit", [("A", 0), ("B", 1), ("C", 2)])
    def test_seesaw_search_never_beats_the_closed_form(self, q, bit):
        found = seesaw_worst_pt_min(bit)
        assert found == pytest.approx(-0.5, abs=1e-9)
        assert found >= worst_case_pt_min(q) - 1e-12

    @pytest.mark.parametrize("q", "ABC")
    def test_weights_sit_on_the_psd_boundary(self, q):
        assert min_cp_parameter(q) == pytest.approx(4 / 5, abs=1e-12)
        p_star = min_choi_psd_parameter(q)
        assert p_star == pytest.approx(32 / 33, abs=1e-12)
        assert min_eigenvalue(choi_matrix(q, p_star)) >= -1e-12
        assert min_eigenvalue(choi_matrix(q, p_star - 1e-6)) < -1e-10



def test_pure_input_worst_case_saturates_bound():
    # no pure state drives the canonical output below zero
    rng = np.random.default_rng(47)
    worst = min(
        min_eigenvalue(spa_pt(np.outer(p, p.conj()), q, CANONICAL_WEIGHT))
        for p in (random_pure(rng) for _ in range(25))
        for q in "ABC"
    )
    assert worst >= -1e-10
