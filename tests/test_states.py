"""State construction, the catalog, and the JSON schema."""

import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import (
    catalog,
    parse_state_file,
    to_density,
)
from spapt.states import (
    STATE_TOL,
    StateSpec,
    as_density_matrix,
    catalog_names,
    catalog_param_names,
    convex_mix,
    density_from_pure,
    ket,
    pure_amplitudes,
    pure_state,
    spec_from_obj,
    spec_to_obj,
)
from spapt import errors
from spapt.errors import InputError
from support import CATALOG_PARAMS, MIX_FAMILIES, random_density, random_pure

INV2 = 1.0 / np.sqrt(2.0)
ZEROS = [[0] * 8 for _ in range(8)]


def block(rho, br, bc):
    return rho[2 * br:2 * br + 2, 2 * bc:2 * bc + 2]


def basis_vector(*terms):
    """Vector sum of (amplitude, label) terms, label ``abc`` at index ``4a + 2b + c``."""
    v = np.zeros(8)
    for amplitude, label in terms:
        v[int(label, 2)] += amplitude
    return v


def projector(v):
    return np.outer(v, v)


def readme_family(name, *params):
    """(amplitudes or None, density) of a catalog family, built from the
    README "Catalog families" table without the library's code."""
    ghz = basis_vector((1, "000"), (1, "111")) / np.sqrt(2)
    w = basis_vector((1, "001"), (1, "010"), (1, "100")) / np.sqrt(3)
    wtilde = basis_vector((1, "110"), (1, "101"), (1, "011")) / np.sqrt(3)
    labels = {"ghz": ("000", "111"), "w": ("001", "010", "100"),
              "g3": ("000", "100", "111"), "b2": ("001", "101", "111")}
    if name in labels:
        v = basis_vector(*zip(params, labels[name]))
        psi = v / np.linalg.norm(v)
    elif name == "wtilde":
        psi = wtilde
    elif name == "g2":
        psi = basis_vector(*((1, s) for s in ("000", "100", "101", "110", "111"))) / np.sqrt(5)
    else:
        psi = None
    if psi is not None:
        return psi, projector(psi)
    if name == "kye":
        (a,) = params
        m = np.diag([4 + a] + [a] * 6 + [4 + a])
        m[range(8), range(7, -1, -1)] = [2, 2, -2, 2, 2, -2, 2, 2]
        return None, m / (8 + 8 * a)
    if name == "s2":
        (alpha,) = params
        return None, (1 - alpha) * projector(ghz) + alpha / 8 * np.eye(8)
    if name == "rho2":
        q1, q2 = params
        return None, q1 * projector(ghz) + q2 * projector(w) + (1 - q1 - q2) * projector(wtilde)
    first, second = {
        "ghz-w": (ghz, w),
        "b1": (basis_vector((1, "000"), (1, "011")) / np.sqrt(2),
               basis_vector((1, "100"), (-1, "111")) / np.sqrt(2)),
        "s3": (basis_vector((1, "001"), (1, "101")) / np.sqrt(2), basis_vector((1, "111"))),
        "rho1": (basis_vector((1, "000")), ghz),
    }[name]
    (q,) = params
    return None, q * projector(first) + (1 - q) * projector(second)


def test_basis_convention():
    # |abc> lands at index 4a + 2b + c
    assert np.argmax(np.abs(ket("101"))) == 5
    assert np.argmax(np.abs(ket("010"))) == 2


class TestDensityFromPure:
    def test_basis_projector(self):
        np.testing.assert_array_equal(
            density_from_pure(ket("000")), np.diag([1.0] + [0.0] * 7)
        )

    def test_ghz_block_structure(self):
        alpha, beta = 0.6, 0.8
        rho = density_from_pure(alpha * ket("000") + beta * ket("111"))
        np.testing.assert_allclose(block(rho, 0, 0), [[alpha ** 2, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 0, 3), [[0, alpha * beta], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 3, 3), [[0, 0], [0, beta ** 2]], atol=1e-15)
        # every other upper block vanishes
        for br in range(4):
            for bc in range(br, 4):
                if (br, bc) in ((0, 0), (0, 3), (3, 3)):
                    continue
                np.testing.assert_allclose(block(rho, br, bc), np.zeros((2, 2)), atol=1e-15)

    def test_w_block_structure(self):
        l0, l1, l2 = 0.6, 0.48, 0.64
        rho = density_from_pure(l0 * ket("001") + l1 * ket("010") + l2 * ket("100"))
        np.testing.assert_allclose(block(rho, 0, 0), [[0, 0], [0, l0 ** 2]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 0, 1), [[0, 0], [l0 * l1, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 0, 2), [[0, 0], [l0 * l2, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 1, 1), [[l1 ** 2, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 1, 2), [[l1 * l2, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(block(rho, 2, 2), [[l2 ** 2, 0], [0, 0]], atol=1e-15)
        for bc in range(4):  # the (*, 3) and (3, *) blocks are all zero
            np.testing.assert_allclose(block(rho, bc, 3), np.zeros((2, 2)), atol=1e-15)

    def test_purity(self):
        rng = np.random.default_rng(21)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = density_from_pure(psi / np.linalg.norm(psi))
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10

    def test_rejects_unnormalized(self):
        with pytest.raises(InputError, match="squared norm 8.0 differs from 1"):
            density_from_pure(np.ones(8))


class TestConvexMix:
    def test_single_part_identity(self):
        rho = density_from_pure(ket("011"))
        np.testing.assert_array_equal(convex_mix([(1.0, rho)]), rho)

    def test_even_projector_mix(self):
        got = convex_mix([
            (0.5, density_from_pure(ket("000"))),
            (0.5, density_from_pure(ket("111"))),
        ])
        np.testing.assert_allclose(got, np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]), atol=1e-15)

    def test_depolarized_ghz_matches_entrywise_sum(self):
        alpha = 0.9
        ghz = (ket("000") + ket("111")) * INV2
        expected = (1 - alpha) * np.outer(ghz, ghz.conj()) + alpha / 8.0 * np.eye(8)
        got = to_density(catalog("s2", alpha))
        np.testing.assert_allclose(got, expected, atol=1e-15)
        assert abs(np.trace(got).real - 1.0) <= 1e-10

    def test_order_independent(self):
        rng = np.random.default_rng(22)
        parts = []
        weights = rng.dirichlet(np.ones(4))
        for w in weights:
            psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            parts.append((w, density_from_pure(psi / np.linalg.norm(psi))))
        forward = convex_mix(parts)
        backward = convex_mix(parts[::-1])
        np.testing.assert_allclose(forward, backward, atol=1e-15)

    def test_bad_weights(self):
        rho = density_from_pure(ket("000"))
        with pytest.raises(InputError, match="weights sum to 0.8, not 1"):
            convex_mix([(0.4, rho), (0.4, rho)])
        with pytest.raises(InputError, match="weight 0 = -0.1 is negative"):
            convex_mix([(-0.1, rho), (1.1, rho)])

    def test_weight_messages_name_the_weight_in_plain_numbers(self):
        # numpy 2 reprs scalars as np.float64(...); messages print plain numbers
        rho = density_from_pure(ket("000"))
        cases = [
            ([(1.5, rho), (-0.5, rho)], "weight 1 = -0.5 is negative"),
            ([(float("nan"), rho), (1.0, rho)], "weight 0: expected a finite number, got nan"),
            ([(0.25, rho), (0.25, rho)], "weights sum to 0.5, not 1"),
            ([(10**400, rho), (1.0, rho)],
             "weight 0: expected a finite number, got an integer too large"),
        ]
        for parts, message in cases:
            with pytest.raises(InputError) as err:
                convex_mix(parts)
            assert str(err.value) == message


class TestPartCache:
    """Pure parts are realised once and shared; what ``to_density`` returns is not."""

    def test_each_realisation_is_a_fresh_writeable_array(self):
        for spec in (catalog("ghz", INV2, INV2), catalog("ghz-w", 0.3),
                     catalog("rho2", 0.2, 0.3), StateSpec(amplitudes=list(ket("010")))):
            first, second = to_density(spec), to_density(spec)
            assert first.flags.writeable and second.flags.writeable
            assert first is not second
            np.testing.assert_array_equal(first, second)

    def test_unhashable_amplitudes_are_checked_uncached(self):
        # the cache key cannot hold a [re, im] list or a numpy array, so such amplitudes
        # go to pure_state directly: an InputError, or the same density as the cached path
        with pytest.raises(InputError, match=r"^expected 8 amplitudes, got \(16,\)$"):
            to_density(StateSpec(amplitudes=[[1, 0]] * 8))
        arrays = StateSpec(amplitudes=[np.array(x) for x in ket("010")])
        np.testing.assert_array_equal(to_density(arrays), to_density(StateSpec(amplitudes=ket("010"))))

    def test_writing_a_realised_part_leaves_later_mixtures_unchanged(self):
        specs = {key: catalog(*key) for key in (("ghz-w", 0.3), ("rho2", 0.2, 0.3))}
        before = {key: to_density(spec) for key, spec in specs.items()}
        for spec in specs.values():
            for _, part in spec.parts:
                to_density(part)[:] = 7.0
        for key, spec in specs.items():
            np.testing.assert_array_equal(to_density(spec), before[key])
            np.testing.assert_allclose(to_density(spec), readme_family(*key)[1], rtol=0, atol=1e-15)


class TestCatalog:
    def test_ghz_amplitudes(self):
        psi = pure_amplitudes(catalog("ghz", INV2, INV2))
        np.testing.assert_allclose(psi, np.array([INV2, 0, 0, 0, 0, 0, 0, INV2]), atol=1e-12)

    def test_g2_amplitudes(self):
        psi = pure_amplitudes(catalog("g2"))
        expected = np.zeros(8)
        expected[[0, 4, 5, 6, 7]] = 1 / np.sqrt(5.0)
        np.testing.assert_allclose(psi, expected, atol=1e-15)

    def test_kye_matrix(self):
        a = 4.0
        rho = to_density(catalog("kye", a))
        assert rho[0, 0] == pytest.approx((4 + a) / (8 + 8 * a))
        assert rho[2, 5] == pytest.approx(-2 / (8 + 8 * a))
        assert rho[3, 4] == pytest.approx(2 / (8 + 8 * a))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    def test_kye_below_psd_domain_rejected_at_realization(self):
        spec = catalog("kye", 1.0)  # accepted: the documented domain is a >= 0
        with pytest.raises(InputError, match="^kye: psd: minimum eigenvalue "):
            to_density(spec)

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown catalog state 'nope'"):
            catalog("nope")

    def test_spec_without_a_body_is_rejected(self):
        with pytest.raises(InputError, match="^ghz: spec has no amplitudes, matrix or parts$"):
            to_density(StateSpec(name="ghz", params=(0.6, 0.8)))
        with pytest.raises(InputError, match="^spec has no amplitudes, matrix or parts$"):
            spec_to_obj(StateSpec())

    def test_param_out_of_range(self):
        with pytest.raises(InputError, match=r"^b1: 1.5 outside \[0, 1\]"):
            catalog("b1", 1.5)
        with pytest.raises(InputError, match="^rho2: weights sum to 1.4, more than 1$"):
            catalog("rho2", 0.7, 0.7)
        with pytest.raises(InputError, match="^kye: a=-1.0 must be >= 0"):
            catalog("kye", -1.0)
        with pytest.raises(InputError, match="^ghz: squared norm 2.0 too far from 1"):
            catalog("ghz", 1.0, 1.0)  # squared norm 2 exceeds the slack

    @pytest.mark.parametrize("name, params, message", [
        ("ghz", (1.0, 1.0), "ghz: squared norm 2.0 too far from 1"),
        ("w", (1.0, 1.0, 0.0), "w: squared norm 2.0 too far from 1"),
        ("wtilde", (0.5,), "wtilde: expected 0 parameter(s) (), got 1"),
        ("g2", (0.5, 0.5), "g2: expected 0 parameter(s) (), got 2"),
        ("g3", (0.5, 0.5, 0.5), "g3: squared norm 0.75 too far from 1"),
        ("b2", (0.1, 0.2, 0.3), "b2: squared norm 0.14 too far from 1"),
        ("ghz-w", (1.5,), "ghz-w: 1.5 outside [0, 1]"),
        ("b1", (-0.25,), "b1: -0.25 outside [0, 1]"),
        ("kye", (-1.0,), "kye: a=-1.0 must be >= 0"),
        ("s2", (2.0,), "s2: 2.0 outside [0, 1]"),
        ("s3", (1.0000001,), "s3: 1.0000001 outside [0, 1]"),
        ("rho1", (-1e-9,), "rho1: -1e-09 outside [0, 1]"),
        ("rho2", (0.7, 0.7), "rho2: weights sum to 1.4, more than 1"),
        ("ghz-w", (10**400,), "ghz-w: q: expected a finite number, got an integer too large"),
        ("kye", (10**400,), "kye: a: expected a finite number, got an integer too large"),
    ])
    def test_every_family_names_itself_in_its_build_error(self, name, params, message):
        with pytest.raises(InputError) as info:
            catalog(name, *params)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha", [0.0, 1e-15, 0.13, 0.5, 0.8, 1.0])
    def test_s2_keeps_its_matrix_formula_bit_for_bit(self, alpha):
        # s2 was built as this one matrix before it became a catalog mixture
        ghz = (ket("000") + ket("111")) / np.sqrt(2.0)
        expected = as_density_matrix((1 - alpha) * density_from_pure(ghz) + alpha / 8.0 * np.eye(8))
        assert np.array_equal(to_density(catalog("s2", alpha)), expected)

    @pytest.mark.parametrize("q1, q2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.25),
                                        (0.2, 0.3), (0.37, 0.41)])
    def test_rho2_keeps_its_weights_bit_for_bit(self, q1, q2):
        p_ghz, p_w, p_wtilde = (
            density_from_pure(sum(ket(label) for label in labels) / np.sqrt(len(labels)))
            for labels in (("000", "111"), ("001", "010", "100"), ("110", "101", "011"))
        )
        expected = as_density_matrix(q1 * p_ghz + q2 * p_w + (1.0 - q1 - q2) * p_wtilde)
        assert np.array_equal(to_density(catalog("rho2", q1, q2)), expected)

    def test_s2_at_alpha_0_is_the_pure_ghz_state(self):
        ghz = (ket("000") + ket("111")) / np.sqrt(2.0)
        assert np.array_equal(pure_amplitudes(catalog("s2", 0.0)), ghz)
        assert pure_amplitudes(catalog("s2", 0.5)) is None

    def test_table_row_parameters_renormalize(self):
        # (0.3, 0.4, 0.866) has squared norm 0.999956; the catalog takes it
        psi = pure_amplitudes(catalog("g3", 0.3, 0.4, 0.866))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_wtilde_normalization(self):
        psi = pure_amplitudes(catalog("wtilde"))
        np.testing.assert_allclose(np.abs(psi[[3, 5, 6]]), np.ones(3) / np.sqrt(3), atol=1e-15)

    @pytest.mark.parametrize("name, params", [
        ("ghz", (0.6, 0.8)), ("w", (0.6, 0.48, 0.64)), ("wtilde", ()), ("g2", ()),
        ("g3", (0.3, 0.4, 0.866)), ("b2", (0.6, 0.1, 0.7937)), ("ghz-w", (0.37,)),
        ("b1", (0.3,)), ("kye", (4.0,)), ("s2", (0.13,)), ("s3", (0.77,)),
        ("rho1", (0.41,)), ("rho2", (0.5, 0.3)),
    ])
    def test_every_family_matches_its_readme_formula(self, name, params):
        expected_psi, expected_rho = readme_family(name, *params)
        spec = catalog(name, *params)
        np.testing.assert_allclose(to_density(spec), expected_rho, rtol=0, atol=1e-15)
        psi = pure_amplitudes(spec)
        if expected_psi is None:
            assert psi is None
        else:
            np.testing.assert_allclose(psi, expected_psi, rtol=0, atol=1e-15)

    def test_readme_table_lists_every_family_and_its_parameters(self):
        text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = text.split("### Catalog families", 1)[1].split("\n\n", 2)[1]
        listed = {}
        for row in table.splitlines()[2:]:
            name, params = (cell.strip().strip("`") for cell in row.split("|")[1:3])
            listed[name] = () if params == "none" else tuple(params.split(", "))
        assert sorted(listed) == list(catalog_names())
        assert listed == {name: catalog_param_names(name) for name in catalog_names()}


class TestValidation:
    def test_every_constructor_output_is_valid(self):
        rng = np.random.default_rng(23)
        specs = [
            catalog("ghz", 0.6, 0.8),
            catalog("w", 0.6, 0.48, 0.64),
            catalog("g2"),
            catalog("ghz-w", 0.37),
            catalog("b1", 0.52),
            catalog("kye", 2.5),
            catalog("s2", 0.13),
            catalog("s3", 0.77),
            catalog("rho1", 0.41),
            catalog("rho2", 0.5, 0.3),
        ]
        for spec in specs:
            rho = to_density(spec)
            as_density_matrix(rho)  # idempotent revalidation

    def test_small_hermiticity_defects_symmetrized(self):
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 1e-9  # below the 1e-8 raw tolerance, no conjugate partner
        out = as_density_matrix(rho)
        assert out[1, 0] == pytest.approx(out[0, 1].conjugate())

    def test_large_hermiticity_defects_rejected(self):
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 1e-6
        with pytest.raises(InputError, match="^hermitian: defect 1.000e-06"):
            as_density_matrix(rho)

    def test_wrong_shapes_rejected(self):
        with pytest.raises(InputError) as err:
            pure_state([1, 0])
        assert str(err.value) == "expected 8 amplitudes, got (2,)"
        with pytest.raises(InputError) as err:
            as_density_matrix(np.eye(4) / 4)
        assert str(err.value) == "shape: expected 8x8, got (4, 4)"

    def test_trace_violation(self):
        with pytest.raises(InputError, match="^trace: trace 8.0"):
            as_density_matrix(np.eye(8, dtype=complex))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_rejected_by_name(self, bad):
        # NaN slips through every `abs(x - 1) > tol` check, so each
        # constructor tests finiteness first and says which number failed
        amps = [bad, 0, 0, 0, 0, 0, 0, 1]
        with pytest.raises(InputError, match="^amplitude 0 is .*, not finite"):
            pure_state(amps)
        m = np.eye(8, dtype=complex) / 8.0
        m[2, 5] = bad
        with pytest.raises(InputError, match=r"^finite: entry \(2, 5\)"):
            as_density_matrix(m)
        with pytest.raises(InputError) as err:
            convex_mix([(1.0, np.eye(8) / 8.0), (bad, np.eye(8) / 8.0)])
        assert str(err.value) == f"weight 1: expected a finite number, got {bad!r}"
        for name, params, field in [("kye", (bad,), "a"), ("rho2", (0.5, bad), "q2"),
                                    ("ghz", (bad, INV2), "alpha")]:
            with pytest.raises(InputError) as err:
                catalog(name, *params)
            assert str(err.value) == f"{name}: {field}: expected a finite number, got {bad!r}"

    def test_moduli_too_large_to_square_rejected_by_name(self):
        # no valid state has a modulus above 1; squares of these would overflow
        with pytest.raises(InputError, match=r"^amplitude 0 is \(1e\+200\+0j\), above 1e\+150"):
            pure_state([1e200, 0, 0, 0, 0, 0, 0, 0])
        m = np.eye(8, dtype=complex) / 8.0
        m[0, 1] = m[1, 0] = 1e308
        with pytest.raises(InputError, match=r"^modulus: entry \(0, 1\) is \(1e\+308\+0j\)"):
            as_density_matrix(m)
        with pytest.raises(InputError, match=r"^ghz: a parameter in \(1e\+200, 1.0\) is above 1e\+150"):
            catalog("ghz", 1e200, 1.0)

    def test_non_finite_messages_print_plain_numbers(self):
        with pytest.raises(InputError) as err:
            pure_state([float("nan"), 0, 0, 0, 0, 0, 0, 1])
        assert str(err.value) == "amplitude 0 is (nan+0j), not finite"
        m = np.eye(8, dtype=complex) / 8.0
        m[0, 0] = float("nan")
        with pytest.raises(InputError) as err:
            as_density_matrix(m)
        assert str(err.value) == "finite: entry (0, 0) is (nan+0j)"

    def test_every_input_error_shares_one_base(self):
        classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
        assert classes == {"InputError", "NumericalFailure"}
        assert issubclass(InputError, ValueError)
        assert not issubclass(errors.NumericalFailure, InputError)


class TestJsonSchema:
    def test_pure_document(self):
        spec = parse_state_file('{"pure": {"amplitudes": [[1,0],0,0,0,0,0,0,0]}}')
        np.testing.assert_array_equal(to_density(spec), density_from_pure(ket("000")))

    def test_catalog_document(self):
        spec = parse_state_file('{"catalog": {"name": "w", "params": [0.7,0.1,0.707107]}}')
        rho = to_density(spec)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert rho[1, 1].real > 0  # the |001> component

    def test_weights_failing_to_sum_rejected(self):
        doc = (
            '{"mix": {"parts": ['
            '{"weight": 0.5, "state": {"pure": {"amplitudes": [1,0,0,0,0,0,0,0]}}},'
            '{"weight": 0.4, "state": {"pure": {"amplitudes": [0,0,0,0,0,0,0,1]}}}'
            ']}}'
        )
        with pytest.raises(InputError, match=r"^\$\.mix: weights sum to 0.9, not 1"):
            parse_state_file(doc)

    def test_negative_weight_named_by_path(self):
        # the weights sum to 1, so only the sign is wrong
        doc = {"mix": {"parts": [
            {"weight": 1.5, "state": {"catalog": {"name": "g2"}}},
            {"weight": -0.5, "state": {"catalog": {"name": "wtilde"}}},
        ]}}
        with pytest.raises(InputError) as err:
            spec_from_obj(doc)
        assert str(err.value) == "$.mix.parts[1].weight: weight 1 = -0.5 is negative"

    def test_schema_error_names_the_path(self):
        with pytest.raises(InputError, match=r"^\$\.pure\.amplitudes\[3\]: expected a number"):
            parse_state_file('{"pure": {"amplitudes": [1,0,0,"x",0,0,0,0]}}')

    @pytest.mark.parametrize("doc, message", [
        ([], "$: expected an object"),
        ({"pure": {"amplitudes": [1, 0, 0]}}, "$.pure.amplitudes: expected 8 entries"),
        ({"matrix": {"im": ZEROS}}, "$.matrix: expected an object with 're' (and optional 'im')"),
        ({"matrix": {"re": ZEROS[:7]}}, "$.matrix.re: expected an 8x8 array of numbers"),
        ({"matrix": {"re": [row if i != 2 else [0, 0, 0, 0, 0, "x", 0, 0]
                            for i, row in enumerate(ZEROS)]}},
         "$.matrix.re[2][5]: expected a number"),
        ({"mix": {"parts": [], "extra": 1}}, "$.mix: expected an object with 'parts'"),
        ({"mix": {"parts": []}}, "$.mix.parts: expected a non-empty list"),
        ({"mix": {"parts": [{"weight": 1}]}},
         "$.mix.parts[0]: expected an object with 'weight' and 'state'"),
        ({"mix": {"parts": [{"weight": "1", "state": {"catalog": {"name": "g2"}}}]}},
         "$.mix.parts[0].weight: expected a number"),
        ({"catalog": {"nam": "ghz"}},
         "$.catalog: expected an object with 'name' and optional 'params'"),
        ({"catalog": {"name": 3}}, "$.catalog.name: expected a string"),
        ({"catalog": {"name": "ghz", "params": "0.6"}}, "$.catalog.params: expected a list of numbers"),
    ])
    def test_every_schema_error_names_its_field(self, doc, message):
        with pytest.raises(InputError) as err:
            parse_state_file(json.dumps(doc))
        assert str(err.value) == message

    def test_rejects_multiple_top_level_keys(self):
        with pytest.raises(InputError, match=r"^\$: expected exactly one of"):
            parse_state_file('{"pure": {"amplitudes": [1,0,0,0,0,0,0,0]}, "catalog": {"name": "g2"}}')

    def test_matrix_document(self):
        m = np.diag([1.0, 0, 0, 0, 0, 0, 0, 0])
        doc = {"matrix": {"re": m.tolist(), "im": (0 * m).tolist()}}
        import json

        spec = parse_state_file(json.dumps(doc))
        np.testing.assert_allclose(to_density(spec), m, atol=1e-15)

    def test_matrix_invariants_enforced_at_parse_time(self):
        m = (np.eye(8) / 4.0).tolist()  # trace 2
        import json

        with pytest.raises(InputError, match=r"^\$\.matrix: trace: trace 2.0"):
            parse_state_file(json.dumps({"matrix": {"re": m}}))

    @pytest.mark.parametrize("doc", [
        '{"catalog": {"name": "ghz", "params": [0.6, 0.8]}}',
        '{"pure": {"amplitudes": [[0.6,0],0,0,0,0,0,0,[0,0.8]]}}',
        '{"mix": {"parts": [{"weight": 0.25, "state": {"catalog": {"name": "g2"}}},'
        ' {"weight": 0.75, "state": {"catalog": {"name": "wtilde"}}}]}}',
    ])
    def test_round_trip_reproduces_density(self, doc):
        spec = parse_state_file(doc)
        again = parse_state_file(json.dumps(spec_to_obj(spec)))
        np.testing.assert_allclose(to_density(spec), to_density(again), atol=1e-12)

    def test_pure_norm_strict_at_parse_time(self):
        with pytest.raises(InputError, match=r"^\$\.pure\.amplitudes: squared norm "):
            parse_state_file('{"pure": {"amplitudes": [0.3,0.4,0.866,0,0,0,0,0]}}')


def catalog_specs(families):
    """Specs of the named catalog families at random in-range parameters."""
    return st.sampled_from(families).flatmap(
        lambda name: CATALOG_PARAMS[name].map(lambda params: catalog(name, *params)))


rngs = st.builds(np.random.default_rng, st.integers(0, 2**32 - 1))
LEAF_SPECS = st.one_of(
    st.builds(lambda rng: StateSpec(amplitudes=tuple(
        complex(a) for a in random_pure(rng))), rngs),
    st.builds(lambda rng: StateSpec(matrix=tuple(
        tuple(row) for row in random_density(rng))), rngs),
    catalog_specs(catalog_names()),
)


def mixes_of(parts):
    """Mixtures of one to three ``parts`` with positive weights summing to one."""
    def mix(specs, raw):
        w = np.array(raw[:len(specs)])
        return StateSpec(parts=tuple(
            (float(x), s) for x, s in zip(w / w.sum(), specs)))
    return st.builds(mix, st.lists(parts, min_size=1, max_size=3),
                     st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))


# mixtures nested up to two levels deep, and with the leaves every spec form
MIXES = mixes_of(st.one_of(LEAF_SPECS, mixes_of(LEAF_SPECS)))
SPECS = st.one_of(LEAF_SPECS, MIXES)


class TestRealisedMixturesArePsd:
    """A mixture of validated states is PSD by convexity; an independent solver checks
    that the realised matrices are, so the realisation's own PSD solve on a mixture
    is covered here before it is dropped."""

    @settings(max_examples=80, deadline=None)
    @given(catalog_specs(MIX_FAMILIES))
    def test_catalog_mixtures(self, spec):
        assert spec.parts is not None
        assert np.linalg.eigvalsh(to_density(spec))[0] >= -STATE_TOL

    @settings(max_examples=40, deadline=None)
    @given(MIXES)
    def test_two_level_mix_documents(self, spec):
        rho = to_density(parse_state_file(json.dumps(spec_to_obj(spec))))
        assert np.linalg.eigvalsh(rho)[0] >= -STATE_TOL


# every finite double, with extra weight on [-1, 1] so some documents pass the early checks
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1.0, 1.0))


def unit_trace_symmetric(upper):
    """Real symmetric 8x8 from its 36 upper entries, the last diagonal entry set
    so the trace is 1 (or non-finite, which the parser rejects)."""
    m = [[0.0] * 8 for _ in range(8)]
    entries = iter(upper)
    for i in range(8):
        for j in range(i, 8):
            m[i][j] = m[j][i] = next(entries)
    m[7][7] = 1.0 - sum(m[i][i] for i in range(7))
    return m


LEAF_DOCS = st.one_of(
    st.lists(st.one_of(FINITE, st.lists(FINITE, min_size=2, max_size=2)),
             min_size=8, max_size=8).map(lambda a: {"pure": {"amplitudes": a}}),
    st.lists(FINITE, min_size=36, max_size=36).map(
        lambda u: {"matrix": {"re": unit_trace_symmetric(u)}}),
    st.sampled_from(catalog_names()).flatmap(lambda name: st.lists(
        FINITE, min_size=len(catalog_param_names(name)), max_size=len(catalog_param_names(name))
    ).map(lambda params: {"catalog": {"name": name, "params": params}})),
)
DOCS = st.one_of(LEAF_DOCS, st.tuples(FINITE, LEAF_DOCS, LEAF_DOCS).map(
    lambda t: {"mix": {"parts": [{"weight": t[0], "state": t[1]},
                                 {"weight": 1.0 - t[0], "state": t[2]}]}}))


@settings(max_examples=150, deadline=None)
@given(DOCS)
def test_every_document_gives_a_density_or_an_input_error(doc):
    # huge and tiny numbers included: no overflow warning, no other exception type
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rho = to_density(parse_state_file(json.dumps(doc)))
        except InputError:
            return
    assert rho.shape == (8, 8)
    assert abs(np.trace(rho).real - 1.0) <= 1e-9


class TestSpecRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(SPECS)
    def test_json_round_trip_is_exact(self, spec):
        again = spec_from_obj(json.loads(json.dumps(spec_to_obj(spec))))
        assert again == spec
        np.testing.assert_array_equal(to_density(again), to_density(spec))
