"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single pass line (visible with ``pytest -s`` or in the
captured output) so the whole gate reads as a checklist. Tolerances are
pinned here, not configurable.
"""

import numpy as np
import pytest

from spapt import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINE,
    GHZ_CLASS,
    W_CLASS,
    catalog,
    channel_minima,
    classify,
    hermitian_eigenvalues,
    partial_transpose,
    pure_subclass,
    spa_pt,
    three_tangle_pure,
    to_density,
)
from spapt.linalg import min_eigenvalue
from spapt.spa import min_cp_parameter
from spapt.states import density_from_pure, ket, pure_amplitudes
from spapt.cli import TABLE1_ROWS, TABLE2_ROWS, _ghz_w_reference, _rho2_reference
from support import (
    ckw_residual_tangle,
    placed_bell,
    product_state,
    pt_block_form,
    random_density,
    random_pure,
    random_qubit,
    random_state_mixed_or_pure,
    spa_element_map,
    swap_bc_matrix,
    w_param_grid,
)

INV2 = 1.0 / np.sqrt(2.0)


def _passed(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_1_ghz_pt_spectrum():
    for theta in np.linspace(0.0, 2.0 * np.pi, 50):
        a, b = np.cos(theta), np.sin(theta)
        rho = density_from_pure(a * ket("000") + b * ket("111"))
        got = hermitian_eigenvalues(partial_transpose(rho, "A"))
        expected = np.sort([0, 0, 0, 0, a * a, b * b, abs(a * b), -abs(a * b)])
        np.testing.assert_allclose(got, expected, atol=1e-12)
    rho = density_from_pure(INV2 * (ket("000") + ket("111")))
    assert min_eigenvalue(partial_transpose(rho, "A")) == pytest.approx(-0.5, abs=1e-12)
    _passed("criterion 1: GHZ partial-transpose spectrum, 50 unit-circle points at 1e-12")


def test_criterion_2_w_pt_spectra_all_cuts():
    def expected(l0, l1, l2, q):
        if q == "A":
            big, solo = l0 * l0 + l1 * l1, l2
        elif q == "B":
            big, solo = l0 * l0 + l2 * l2, l1
        else:
            big, solo = l1 * l1 + l2 * l2, l0
        r = abs(solo) * np.sqrt(big)
        return np.sort([0, 0, 0, 0, big, solo * solo, r, -r])

    grid = w_param_grid()
    for l0, l1, l2 in grid:
        rho = density_from_pure(l0 * ket("001") + l1 * ket("010") + l2 * ket("100"))
        for q in "ABC":
            got = hermitian_eigenvalues(partial_transpose(rho, q))
            np.testing.assert_allclose(got, expected(l0, l1, l2, q), atol=1e-12)
    per_cut_extremes = []
    for q in "ABC":
        per_cut_extremes.append(min(
            min_eigenvalue(partial_transpose(
                density_from_pure(p[0] * ket("001") + p[1] * ket("010") + p[2] * ket("100")), q
            ))
            for p in grid
        ))
    assert max(per_cut_extremes) - min(per_cut_extremes) <= 1e-12
    _passed("criterion 2: W spectra closed forms on 20-point grid, cut-independent extremes")


def test_criterion_3_cp_threshold():
    for q in "ABC":
        got = min_cp_parameter(q)
        assert got == pytest.approx(0.8, abs=1e-6), q
    _passed("criterion 3: channel positivity threshold 0.800000 within 1e-6 for each qubit")


def test_criterion_4_element_map_equivalence():
    rng = np.random.default_rng(214)
    for _ in range(100):
        rho = random_density(rng)
        np.testing.assert_allclose(spa_element_map(rho), spa_pt(rho, "A"), atol=1e-15)
    _passed("criterion 4: element map equals canonical channel on 100 states at 1e-15")


def test_criterion_5_affine_and_threshold_equivalence():
    rng = np.random.default_rng(215)
    for _ in range(200):
        rho = random_state_mixed_or_pure(rng)
        npt_cuts = 0
        for q in "ABC":
            lam = min_eigenvalue(spa_pt(rho, q))
            mu = min_eigenvalue(partial_transpose(rho, q))
            assert abs(lam - (0.1 + 0.2 * mu)) <= 1e-12
            npt_cuts += mu < -1e-10
        assert (classify(rho).kind == GENUINE) == (npt_cuts == 3)
    _passed("criterion 5: affine law at 1e-12 and genuine<->all-NPT on 200 random states")


def test_criterion_6_ghz_family_value():
    for alpha in np.linspace(0.0, 1.0, 21):
        beta = np.sqrt(1.0 - alpha * alpha)
        s = channel_minima(to_density(catalog("ghz", alpha, beta)))
        assert abs(max(s.values()) - (1.0 - 2.0 * alpha * beta) / 10.0) <= 1e-12
    _passed("criterion 6: GHZ-family channel minimum (1-2ab)/10 at 1e-12 over 21 points")


def test_criterion_7_five_term_state():
    rho = to_density(catalog("g2"))
    s = channel_minima(rho)
    assert s["A"] == pytest.approx(0.030718, abs=1e-5)
    assert s["B"] == pytest.approx(0.0434315, abs=1e-5)
    assert s["C"] == pytest.approx(0.0434315, abs=1e-5)
    assert classify(rho).kind == GENUINE
    _passed("criterion 7: five-term state minima at 1e-5 and genuine verdict")


def test_criterion_8_reference_tables():
    for (params, ref_a, ref_bc, ref_max) in TABLE1_ROWS:
        s = channel_minima(to_density(catalog("g3", *params)))
        assert abs(s["A"] - ref_a) <= 1e-3
        assert abs(s["B"] - ref_bc) <= 1e-3
        assert abs(s["C"] - ref_bc) <= 1e-3
        assert abs(max(s.values()) - ref_max) <= 1e-3
    for (params, ref_ab, ref_c, ref_max) in TABLE2_ROWS:
        rho = to_density(catalog("b2", *params))
        s = channel_minima(rho)
        assert abs(s["A"] - ref_ab) <= 1e-3
        assert abs(s["B"] - ref_ab) <= 1e-3
        assert abs(s["C"] - ref_c) <= 1e-3
        assert abs(max(s.values()) - ref_max) <= 1e-3
        v = classify(rho)
        assert v.kind == BISEPARABLE and v.cuts == ("C-AB",)
    _passed("criterion 8: both reference tables within 1e-3, second table all C-AB")


def test_criterion_9_closed_form_families():
    # Kye family
    for a in np.arange(2.0, 10.5, 0.5):
        s = channel_minima(to_density(catalog("kye", a)))
        expected = (2 + 5 * a) / (40 * (1 + a))
        for lam in s.values():
            assert abs(lam - expected) <= 1e-9
        if a >= 4.0:
            assert classify(to_density(catalog("kye", a))).kind == FULLY_SEPARABLE
    # depolarized GHZ: value derivable from the family definition is alpha/8
    for alpha in np.linspace(0.0, 1.0, 11):
        s = channel_minima(to_density(catalog("s2", alpha)))
        for lam in s.values():
            assert abs(lam - alpha / 8.0) <= 1e-9
    for alpha in (0.81, 0.9, 1.0):
        assert classify(to_density(catalog("s2", alpha))).kind == FULLY_SEPARABLE
    # boundary mixture: exactly 1/10 on every cut
    for q in np.linspace(0.0, 1.0, 11):
        s = channel_minima(to_density(catalog("s3", q)))
        for lam in s.values():
            assert abs(lam - 0.1) <= 1e-9
        assert classify(to_density(catalog("s3", q))).kind == FULLY_SEPARABLE
    # Bell-flagged mixture
    for q in np.linspace(0.1, 0.9, 9):
        rho = to_density(catalog("b1", q))
        s = channel_minima(rho)
        assert abs(s["A"] - 0.1) <= 1e-9
        assert abs(s["B"] - min(q, 1 - q) / 10.0) <= 1e-9
        assert abs(s["C"] - min(q, 1 - q) / 10.0) <= 1e-9
        v = classify(rho)
        assert v.kind == BISEPARABLE and v.cuts == ("A-BC",)
    # GHZ-projector admixture
    for q in np.linspace(0.0, 1.0, 11):
        s = channel_minima(to_density(catalog("rho1", q)))
        for lam in s.values():
            assert abs(lam - q / 10.0) <= 1e-9
    # GHZ-W mixture
    for q in np.linspace(0.0, 1.0, 21):
        s = channel_minima(to_density(catalog("ghz-w", q)))
        expected = _ghz_w_reference(q)
        for lam in s.values():
            assert abs(lam - expected) <= 1e-9
    # three-state mixture, on the subregion where the closed-form branch is
    # the actual minimum (see notes: the branch crosses another one below
    # q1 about 0.47 when the third component vanishes)
    for q1 in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        for n in (1, 2, 3, 4, 5):
            q2 = (1.0 - q1) / n
            s = channel_minima(to_density(catalog("rho2", q1, q2)))
            expected = _rho2_reference(q1, q2)
            for lam in s.values():
                assert abs(lam - expected) <= 1e-9
    _passed("criterion 9: closed-form families within 1e-9 over their grids")


@pytest.mark.xfail(
    strict=True,
    reason="recorded reference closed form (alpha+4)/40 for the depolarized "
    "GHZ family contradicts the value implied by the family definition "
    "(alpha/8, checked above); kept as the documented discrepancy",
)
def test_criterion_9_s2_reported_closed_form():
    print("[KNOWN-FAIL] criterion 9 (s2 reported value): (alpha+4)/40 vs computed alpha/8")
    for alpha in np.linspace(0.0, 1.0, 11):
        s = channel_minima(to_density(catalog("s2", alpha)))
        assert abs(max(s.values()) - (alpha + 4.0) / 40.0) <= 1e-9


def test_criterion_10_tangle():
    for alpha in np.linspace(0.0, 1.0, 21):
        beta = np.sqrt(1.0 - alpha * alpha)
        tau = three_tangle_pure(alpha * ket("000") + beta * ket("111"))
        assert abs(tau - 4.0 * alpha ** 2 * beta ** 2) <= 1e-12
    rng = np.random.default_rng(220)
    for _ in range(50):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c /= np.linalg.norm(c)
        psi = c[0] * ket("001") + c[1] * ket("010") + c[2] * ket("100")
        assert three_tangle_pure(psi) <= 1e-12
    for _ in range(100):
        psi = random_pure(rng)
        assert abs(three_tangle_pure(psi) - ckw_residual_tangle(psi)) <= 1e-9
    assert pure_subclass(pure_amplitudes(catalog("ghz", INV2, INV2))) == GHZ_CLASS
    s3 = 1.0 / np.sqrt(3.0)
    assert pure_subclass(pure_amplitudes(catalog("w", s3, s3, s3))) == W_CLASS
    _passed("criterion 10: tangle closed form, W-span zero, residual oracle, subclasses")


def test_criterion_11_property_suites():
    rng = np.random.default_rng(221)
    perm = swap_bc_matrix()
    relabel = {"A-BC": "A-BC", "B-AC": "C-AB", "C-AB": "B-AC"}
    for _ in range(100):
        rho = random_state_mixed_or_pure(rng)
        for q in "ABC":
            pt = partial_transpose(rho, q)
            np.testing.assert_allclose(partial_transpose(pt, q), rho, atol=1e-15)
            assert abs(np.trace(pt).real - 1.0) <= 1e-12
            assert np.max(np.abs(pt - pt.conj().T)) <= 1e-12
            np.testing.assert_array_equal(pt, pt_block_form(rho, q))
    for _ in range(100):
        rho = random_state_mixed_or_pure(rng)
        v = classify(rho)
        swapped = classify(perm @ rho @ perm.T)
        assert swapped.kind == v.kind
        assert set(swapped.cuts) == {relabel[c] for c in v.cuts}
    for _ in range(100):
        psi = product_state(random_qubit(rng), random_qubit(rng), random_qubit(rng))
        assert classify(np.outer(psi, psi.conj())).kind == FULLY_SEPARABLE
    cut_of = {0: "A-BC", 1: "B-AC", 2: "C-AB"}
    for i in range(102):
        position = i % 3
        psi = placed_bell(rng, position)
        v = classify(np.outer(psi, psi.conj()))
        assert v.kind == BISEPARABLE and v.cuts == (cut_of[position],)
    _passed("criterion 11: structural and covariance property suites, 100+ cases each")
