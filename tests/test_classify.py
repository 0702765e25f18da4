"""The decision engine: channel minima, verdicts, and their symmetries."""

import fractions
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import (
    BISEPARABLE,
    FULLY_SEPARABLE,
    GENUINE,
    Verdict,
    catalog,
    channel_minima,
    classify,
    decide_minima,
    partial_transpose,
    to_density,
)
from spapt.linalg import min_eigenvalue
from spapt.states import density_from_pure, ket
from spapt.errors import InputError, NumericalFailure
from support import (
    placed_bell,
    product_state,
    random_pure,
    random_qubit,
    random_state_mixed_or_pure,
    random_unitary,
    swap_bc_matrix,
)

INV2 = 1.0 / np.sqrt(2.0)
CLASSIFY_MODULE = importlib.import_module("spapt.classify")


class TestSpectralSummary:
    """The three canonical channel minima, as ``channel_minima`` returns them."""

    def test_g2(self):
        s = channel_minima(to_density(catalog("g2")))
        assert s["A"] == pytest.approx(0.030718, abs=1e-5)
        assert s["B"] == pytest.approx(0.0434315, abs=1e-5)
        assert s["C"] == pytest.approx(0.0434315, abs=1e-5)

    def test_maximally_mixed(self):
        s = channel_minima(np.eye(8, dtype=complex) / 8.0)
        for lam in s.values():
            assert lam == pytest.approx(1 / 8, abs=1e-12)

    def test_ghz_projector_admixtures(self):
        for q in (0.0, 0.3, 0.7, 1.0):
            s = channel_minima(to_density(catalog("rho1", q)))
            for lam in s.values():
                assert lam == pytest.approx(q / 10.0, abs=1e-12)

    def test_channel_minima_per_cut_and_weight(self):
        rho = to_density(catalog("ghz", INV2, INV2))
        minima = channel_minima(rho)
        assert list(minima) == ["A", "B", "C"]
        # affine law at the canonical weight: 0.8/8 + 0.2 * (-1/2)
        for lam in minima.values():
            assert lam == pytest.approx(0.0, abs=1e-12)

    def test_bounds_enforced(self, monkeypatch):
        # a density matrix's partial-transpose minimum mu lies in [-1/2, 1], so its
        # channel minimum 0.1 + 0.2*mu lies in [0, 0.3]; within 1e-10 of either end
        # is accepted, beyond it is a failure
        mm = np.eye(8, dtype=complex) / 8.0
        lo, hi = 0.0, 0.3
        for lam, ok in ((lo - 5e-11, True), (hi + 5e-11, True),
                        (lo - 1e-9, False), (hi + 1e-9, False)):
            mu = (lam - 0.1) / 0.2
            monkeypatch.setattr(CLASSIFY_MODULE, "min_eigenvalue", lambda m: mu)
            if ok:
                assert channel_minima(mm)["A"] == pytest.approx(lam, abs=1e-15)
            else:
                bounds = f"outside \\[{lo}, {hi}\\]"
                with pytest.raises(NumericalFailure, match=f"cut A, .* {bounds}"):
                    channel_minima(mm)

    def test_solver_failure_names_its_cut(self, monkeypatch):
        # a kernel that returns a wrong spectrum for the second solve (cut B) fails
        # the trace-moment check, and the failure names the cut before the solver's words
        rho = to_density(catalog("ghz-w", 0.3))  # its validation solve runs unpatched
        linalg, calls = importlib.import_module("spapt.linalg"), []
        real = linalg._jacobi_eigvalsh

        def wrong_second_spectrum(m):
            calls.append(m)
            return real(m) + (1.0 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(linalg, "_jacobi_eigvalsh", wrong_second_spectrum)
        with pytest.raises(NumericalFailure, match=(
                r"^cut B: eigenvalue sweeps left trace residuals out of bound: "
                r"trace residual -8\.000e\+00, bound 1\.000e-10$")):
            channel_minima(rho)
        assert len(calls) == 2


class TestClassify:
    def test_entangling_ghz_parameters(self):
        for alpha in (0.3, INV2, 0.9):
            beta = np.sqrt(1 - alpha ** 2)
            v = classify(density_from_pure(alpha * ket("000") + beta * ket("111")))
            assert v.kind == GENUINE
            assert v.cuts == ()
            assert v.necessity_caveat

    def test_bell_flagged_mixture(self):
        v = classify(to_density(catalog("b1", 0.3)))
        assert v.kind == BISEPARABLE
        assert v.cuts == ("A-BC",)

    def test_kye_separable_region(self):
        v = classify(to_density(catalog("kye", 5.0)))
        assert v.kind == FULLY_SEPARABLE
        assert v.cuts == ("A-BC", "B-AC", "C-AB")
        assert v.margin > 0

    def test_margin_signs(self):
        g = classify(to_density(catalog("ghz", INV2, INV2)))
        assert g.margin == pytest.approx(0.1, abs=1e-12)
        f = classify(to_density(catalog("kye", 4.0)))
        assert f.margin == pytest.approx(0.01, abs=1e-12)

    def test_determinism(self):
        rho = to_density(catalog("rho2", 0.55, 0.3))
        first = classify(rho)
        for _ in range(3):
            again = classify(rho)
            assert again == first  # bit-for-bit, dataclass equality

    def test_matrix_with_the_wrong_trace_is_rejected(self):
        # every channel minimum of the identity is in range, so unchecked it
        # would be called fully separable
        with pytest.raises(InputError, match=r"^trace: trace 8.0$"):
            classify(np.eye(8))

    def test_matrix_with_a_negative_eigenvalue_is_rejected(self):
        # unit trace; unchecked, its cut-A minimum falls below 0 and raises
        # NumericalFailure, the class of an internal fault
        with pytest.raises(InputError, match=r"^psd: minimum eigenvalue -8.750e-01$"):
            classify(np.diag([1.125, -0.875] + [0.125] * 6))

    @pytest.mark.parametrize("eps, message", [
        pytest.param(float("nan"), "eps: expected a finite number, got nan", id="nan"),
        pytest.param(float("inf"), "eps: expected a finite number, got inf", id="inf"),
        pytest.param(-1.0, "eps=-1.0 must lie in [0, 0.1)", id="-1.0"),
        # every channel minimum lies in [0, 0.3], so an eps of 1/10 or more passes
        # the GHZ cuts, whose minima are 0
        pytest.param(0.1, "eps=0.1 must lie in [0, 0.1)", id="0.1"),
        pytest.param(0.2, "eps=0.2 must lie in [0, 0.1)", id="0.2"),
        pytest.param(10**400, "eps: expected a finite number, got an integer too large",
                     id="int-too-large"),
    ])
    def test_eps_must_be_finite_and_nonnegative(self, eps, message):
        # NaN fails every comparison and inf passes every one, so either
        # would decide the verdict without looking at the state
        rho = to_density(catalog("kye", 4.0))
        calls = [
            lambda: classify(rho, eps=eps),
            lambda: decide_minima({"A": 0.11, "B": 0.11, "C": 0.11}, eps=eps),
        ]
        for call in calls:
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message


# ghz-w, q GHZ + (1-q) W, is in the W class for q <= Q0 and in the GHZ class
# above (Lohmayer, Osterloh, Siewert & Uhlmann, PRL 97, 260502 (2006))
Q0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))


class TestMixedSloccBoundary:
    """The three cuts do not see the SLOCC class change of the ghz-w family."""

    @pytest.mark.parametrize("q, lam", [(0.6, 0.051870), (Q0, 0.048531), (0.65, 0.045628)],
                             ids=["w-class", "q0", "ghz-class"])
    def test_same_minima_and_label_on_both_sides(self, q, lam):
        minima = channel_minima(to_density(catalog("ghz-w", q)))
        for cut in "ABC":
            assert minima[cut] == pytest.approx(lam, abs=1e-6)
        assert decide_minima(minima).label == GENUINE

    def test_largest_minimum_is_not_at_the_boundary(self):
        # on a 0.01 grid the minima peak at 0.47; the peak itself is near
        # q = 0.4664, where two partial-transpose eigenvalue branches cross
        qs = np.linspace(0.3, 0.7, 41)
        lam = [channel_minima(to_density(catalog("ghz-w", q)))["A"] for q in qs]
        top = qs[int(np.argmax(lam))]
        assert top == pytest.approx(0.47)
        assert Q0 - top > 0.15
        peak = [channel_minima(to_density(catalog("ghz-w", q)))["A"]
                for q in (0.4654, 0.4664, 0.4674)]
        assert peak[1] == pytest.approx(0.067870, abs=1e-6)
        assert peak[1] > max(peak[0], peak[2])


class TestDecisionTable:
    def test_two_passing_cuts_reported_with_both(self):
        v = decide_minima({"A": 0.12, "B": 0.11, "C": 0.05})
        assert v.kind == BISEPARABLE
        assert v.cuts == ("A-BC", "B-AC")
        assert v.margin == pytest.approx(0.01)

    def test_boundary_counts_as_passing_within_eps(self):
        v = decide_minima({"A": 0.1 - 5e-10, "B": 0.09, "C": 0.09}, eps=1e-9)
        assert v.kind == BISEPARABLE
        assert v.margin == 0.0  # passing only within eps: zero, never negative
        v = decide_minima({"A": 0.1 - 1e-12, "B": 0.2, "C": 0.2})
        assert v.kind == FULLY_SEPARABLE and v.margin == 0.0
        v = decide_minima({"A": 0.1 - 5e-10, "B": 0.09, "C": 0.09}, eps=1e-12)
        assert v.kind == GENUINE

    def test_all_and_none(self):
        assert decide_minima({"A": 0.1, "B": 0.1, "C": 0.1}).kind == FULLY_SEPARABLE
        assert decide_minima({"A": 0.0, "B": 0.05, "C": 0.09}).kind == GENUINE

    @pytest.mark.parametrize("margin", [-1e-17, float("nan")])
    def test_verdict_rejects_negative_or_nan_margin(self, margin):
        with pytest.raises(NumericalFailure, match="margin"):
            Verdict(GENUINE, (), margin)

    @pytest.mark.parametrize("cut", ["A", "B", "C"])
    def test_nan_minimum_on_any_cut_is_a_numerical_failure(self, cut):
        # NaN fails every comparison, so it would decide the verdict
        minima = {"A": 0.05, "B": 0.05, "C": 0.05, cut: float("nan")}
        with pytest.raises(NumericalFailure, match="not all finite"):
            decide_minima(minima)

    @pytest.mark.parametrize("cut", ["A", "C"])
    @pytest.mark.parametrize("value, got", [
        ("x", "'x'"), (None, "None"), ([1], "[1]"), (0.2j, "0.2j"),
        (10**400, "an integer too large"), (-(10**400), "an integer too large"),
    ], ids=["str", "None", "list", "complex", "huge-int", "huge-negative-int"])
    def test_minimum_that_is_not_a_real_number_is_named(self, cut, value, got):
        minima = {"A": 0.05, "B": 0.05, "C": 0.05, cut: value}
        with pytest.raises(InputError) as err:
            decide_minima(minima)
        assert str(err.value).startswith(f"channel minima: cut {cut}: ")
        assert str(err.value).endswith(f"got {got}")

    @pytest.mark.parametrize("value", [float("inf"), -float("inf"), np.float64("nan")])
    def test_infinite_or_numpy_nan_minimum_is_a_numerical_failure(self, value):
        with pytest.raises(NumericalFailure, match="not all finite"):
            decide_minima({"A": 0.05, "B": value, "C": 0.05})

    def test_real_numbers_of_other_types_decide_as_floats(self):
        minima = {"A": 0.05, "B": 0.04, "C": 0.03}
        typed = {"A": np.float64(0.05), "B": fractions.Fraction(1, 25), "C": np.float32(0.03)}
        assert decide_minima(typed).kind == decide_minima(minima).kind == GENUINE
        assert decide_minima({"A": 1, "B": 0, "C": 0}).cuts == ("A-BC",)

    @pytest.mark.parametrize("minima, missing", [
        ({"A": 0.2}, "B, C"), ({"A": 0.2, "C": 0.2}, "B"), ({}, "A, B, C"),
    ], ids=["A", "A-C", "none"])
    def test_missing_cut_is_named(self, minima, missing):
        with pytest.raises(InputError) as err:
            decide_minima(minima)
        assert str(err.value) == f"channel minima: missing cut(s) {missing}"

    @pytest.mark.parametrize("per_cut, got", [
        ("ABC", "str"), (None, "NoneType"), (5, "int"), ([0.2, 0.2, 0.2], "list"),
    ], ids=["str", "None", "int", "list"])
    def test_minima_that_are_not_a_mapping_are_named(self, per_cut, got):
        # a list of three minima would otherwise read as missing every cut
        with pytest.raises(InputError) as err:
            decide_minima(per_cut)
        assert str(err.value) == (
            f"channel minima: expected a mapping of cut to minimum, got {got}")

    @pytest.mark.parametrize("minima, eps, error, message", [
        ({"A": 0.05}, 0.2, InputError, "channel minima: missing cut(s) B, C"),
        ({"A": "x", "B": 0.05, "C": 0.05}, float("nan"), InputError,
         "channel minima: cut A: expected a real number, got 'x'"),
        ({"A": 0.05, "B": float("nan"), "C": 0.05}, 0.2, NumericalFailure,
         "channel minima {'A': 0.05, 'B': nan, 'C': 0.05} are not all finite"),
    ], ids=["missing", "not-real", "not-finite"])
    def test_minima_are_checked_before_eps(self, minima, eps, error, message):
        # missing cut, then not a real number, then not finite, then eps
        with pytest.raises(error) as err:
            decide_minima(minima, eps)
        assert type(err.value) is error and str(err.value) == message

    def test_keys_other_than_the_cuts_are_not_read(self):
        # a report's spa_min carries "max" beside the cuts; it must not set the margin
        minima = {"A": 0.05, "B": 0.04, "C": 0.03}
        assert decide_minima(dict(minima, max=0.09)) == decide_minima(minima)
        assert decide_minima(minima).margin == pytest.approx(0.05)

    def test_label(self):
        assert Verdict(GENUINE, (), 0.1).label == "genuine-entangled"
        assert Verdict(FULLY_SEPARABLE, ("A-BC", "B-AC", "C-AB"), 0.0).label == "fully-separable"
        assert Verdict(BISEPARABLE, ("A-BC", "C-AB"), 0.0).label == "biseparable:A-BC+C-AB"

    @pytest.mark.parametrize("family, grid", [
        ("s3", [(q,) for q in np.linspace(0.0, 1.0, 201)]),
        ("b1", [(q,) for q in np.linspace(0.0, 1.0, 201)]),
        ("b2", [(0.1, 0.4, 0.911), (0.2, 0.4, 0.8944), (0.6, 0.1, 0.7937), (0.5, 0.4, 0.7681)]),
    ], ids=["s3", "b1", "b2"])
    def test_threshold_exact_families_keep_margin_nonnegative(self, family, grid):
        # some cut of each family sits exactly on 1/10 (b2: the table-2
        # rows); the solver lands a few ulp either side of it
        for params in grid:
            v = classify(to_density(catalog(family, *params)))
            assert v.margin >= 0.0

    def test_summary_wrapper_agrees(self):
        rho = to_density(catalog("b1", 0.3))
        assert classify(rho) == decide_minima(channel_minima(rho))


class TestCutCheck:
    """``Verdict.cuts`` tells whether one cut passes."""

    @pytest.mark.parametrize("make_rho, cuts", [
        (lambda: to_density(catalog("s3", 0.4)), ("A-BC", "B-AC", "C-AB")),
        (lambda: to_density(catalog("ghz", INV2, INV2)), ()),
        (lambda: np.eye(8, dtype=complex) / 8.0, ("A-BC", "B-AC", "C-AB")),
    ], ids=["boundary_family_passes_exactly", "balanced_ghz_fails_every_cut",
            "maximally_mixed_passes"])
    def test_cuts_are_the_passing_cuts(self, make_rho, cuts):
        assert decide_minima(channel_minima(make_rho())).cuts == cuts


class TestSymmetries:
    def test_swap_bc_relabels_verdict(self):
        rng = np.random.default_rng(51)
        perm = swap_bc_matrix()
        relabel = {"A-BC": "A-BC", "B-AC": "C-AB", "C-AB": "B-AC"}
        # a state biseparable in B-AC: Bell on (A, C) with a lone B qubit
        psi = placed_bell(rng, 1)
        rho = np.outer(psi, psi.conj())
        v = classify(rho)
        assert v.kind == BISEPARABLE and v.cuts == ("B-AC",)
        swapped = classify(perm @ rho @ perm.T)
        assert swapped.kind == BISEPARABLE
        assert set(swapped.cuts) == {relabel[c] for c in v.cuts}
        # genuine / fully separable survive the swap unchanged
        for spec in (catalog("ghz", INV2, INV2), catalog("kye", 6.0)):
            rho = to_density(spec)
            assert classify(perm @ rho @ perm.T).kind == classify(rho).kind

    def test_genuine_iff_all_cuts_npt(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            rho = random_state_mixed_or_pure(rng)
            all_npt = all(min_eigenvalue(partial_transpose(rho, q)) < -1e-10 for q in "ABC")
            assert (classify(rho).kind == GENUINE) == all_npt

    def test_product_states_fully_separable(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            psi = product_state(random_qubit(rng), random_qubit(rng), random_qubit(rng))
            v = classify(np.outer(psi, psi.conj()))
            assert v.kind == FULLY_SEPARABLE

    @pytest.mark.parametrize("position,cut", [(0, "A-BC"), (1, "B-AC"), (2, "C-AB")])
    def test_placed_bell_biseparable(self, position, cut):
        rng = np.random.default_rng(54 + position)
        for _ in range(10):
            psi = placed_bell(rng, position)
            v = classify(np.outer(psi, psi.conj()))
            assert v.kind == BISEPARABLE
            assert v.cuts == (cut,)


def swap_qubits(rho: np.ndarray, i: int, j: int) -> np.ndarray:
    """Exchange qubits ``i`` and ``j`` (0 = A) on both the ket and bra legs."""
    axes = list(range(6))
    axes[i], axes[j] = axes[j], axes[i]
    axes[3 + i], axes[3 + j] = axes[3 + j], axes[3 + i]
    return rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)


class TestChannelMinimaProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_local_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state_mixed_or_pure(rng)
        u = np.kron(np.kron(random_unitary(rng, 2), random_unitary(rng, 2)),
                    random_unitary(rng, 2))
        before = channel_minima(rho)
        after = channel_minima(u @ rho @ u.conj().T)
        for q in "ABC":
            assert after[q] == pytest.approx(before[q], abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    def test_qubit_swap_swaps_cut_minima(self, seed, pair):
        i, j = pair
        rho = random_state_mixed_or_pure(np.random.default_rng(seed))
        before = channel_minima(rho)
        after = channel_minima(swap_qubits(rho, i, j))
        labels = list("ABC")
        labels[i], labels[j] = labels[j], labels[i]
        for q, moved_to in zip("ABC", labels):
            assert after[moved_to] == pytest.approx(before[q], abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pure_state_law(self, seed):
        # for a pure state the cut-q partial-transpose minimum is
        # -sqrt(det rho_q), so the channel minimum is 1/10 - sqrt(det rho_q)/5;
        # rho_q, qubit q's reduced state, is a 2x2 partial trace, no 8x8 solve
        psi = random_pure(np.random.default_rng(seed))
        minima = channel_minima(np.outer(psi, psi.conj()))
        for i, q in enumerate("ABC"):
            m = np.moveaxis(psi.reshape(2, 2, 2), i, 0).reshape(2, 4)
            rho_q = m @ m.conj().T
            det = (rho_q[0, 0] * rho_q[1, 1] - abs(rho_q[0, 1]) ** 2).real
            assert minima[q] == pytest.approx(0.1 - np.sqrt(det) / 5, abs=1e-12)
