"""State construction, the catalog, and the JSON schema."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import (
    StateSpec,
    as_density_matrix,
    catalog,
    convex_mix,
    density_from_pure,
    ket,
    parse_state_file,
    pure_amplitudes,
    pure_state,
    to_density,
)
from spapt.states import spec_from_obj, spec_to_obj
from spapt import errors
from spapt.errors import (
    BadWeights,
    InputError,
    InvariantViolation,
    NotNormalized,
    ParamOutOfRange,
    SchemaError,
    UnknownName,
)
from support import random_density, random_pure

INV2 = 1.0 / np.sqrt(2.0)


def block(rho, br, bc):
    return rho[2 * br:2 * br + 2, 2 * bc:2 * bc + 2]


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
        with pytest.raises(NotNormalized):
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
        with pytest.raises(BadWeights):
            convex_mix([(0.4, rho), (0.4, rho)])
        with pytest.raises(BadWeights):
            convex_mix([(-0.1, rho), (1.1, rho)])


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
        with pytest.raises(InvariantViolation) as err:
            to_density(spec)
        assert err.value.which == "psd"

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("nope")

    def test_param_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            catalog("b1", 1.5)
        with pytest.raises(ParamOutOfRange):
            catalog("rho2", 0.7, 0.7)
        with pytest.raises(ParamOutOfRange):
            catalog("kye", -1.0)
        with pytest.raises(ParamOutOfRange):
            catalog("ghz", 1.0, 1.0)  # squared norm 2 exceeds the slack

    def test_table_row_parameters_renormalize(self):
        # (0.3, 0.4, 0.866) has squared norm 0.999956; the catalog takes it
        psi = pure_amplitudes(catalog("g3", 0.3, 0.4, 0.866))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    def test_wtilde_normalization(self):
        psi = pure_amplitudes(catalog("wtilde"))
        np.testing.assert_allclose(np.abs(psi[[3, 5, 6]]), np.ones(3) / np.sqrt(3), atol=1e-15)


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
        with pytest.raises(InvariantViolation) as err:
            as_density_matrix(rho)
        assert err.value.which == "hermitian"

    def test_trace_violation(self):
        with pytest.raises(InvariantViolation) as err:
            as_density_matrix(np.eye(8, dtype=complex))
        assert err.value.which == "trace"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_numbers_rejected_by_name(self, bad):
        # NaN slips through every `abs(x - 1) > tol` check, so each
        # constructor tests finiteness first and says which number failed
        amps = [bad, 0, 0, 0, 0, 0, 0, 1]
        with pytest.raises(NotNormalized, match="amplitude 0"):
            pure_state(amps)
        m = np.eye(8, dtype=complex) / 8.0
        m[2, 5] = bad
        with pytest.raises(InvariantViolation, match=r"\(2, 5\)") as err:
            as_density_matrix(m)
        assert err.value.which == "finite"
        with pytest.raises(BadWeights, match="weight 1"):
            convex_mix([(1.0, np.eye(8) / 8.0), (bad, np.eye(8) / 8.0)])
        for name, params, field in [("kye", (bad,), "a"), ("rho2", (0.5, bad), "q2"),
                                    ("ghz", (bad, INV2), "alpha")]:
            with pytest.raises(ParamOutOfRange, match=f"{name}: {field}="):
                catalog(name, *params)

    def test_every_input_error_shares_one_base(self):
        names = ["NonSquare", "NotHermitian", "NotNormalized", "BadWeights", "UnknownName",
                 "ParamOutOfRange", "SchemaError", "InvariantViolation"]
        for name in names:
            assert issubclass(getattr(errors, name), InputError)
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
        with pytest.raises(BadWeights):
            parse_state_file(doc)

    def test_schema_error_names_the_path(self):
        with pytest.raises(SchemaError) as err:
            parse_state_file('{"pure": {"amplitudes": [1,0,0,"x",0,0,0,0]}}')
        assert "amplitudes[3]" in err.value.path

    def test_rejects_multiple_top_level_keys(self):
        with pytest.raises(SchemaError):
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

        with pytest.raises(InvariantViolation):
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
        with pytest.raises(NotNormalized):
            parse_state_file('{"pure": {"amplitudes": [0.3,0.4,0.866,0,0,0,0,0]}}')


UNIT = st.floats(0.0, 1.0)
CATALOG_SPECS = st.one_of(
    st.builds(lambda t: catalog("ghz", np.cos(t), np.sin(t)), st.floats(0.0, 2 * np.pi)),
    st.builds(lambda q: catalog("ghz-w", q), UNIT),
    st.builds(lambda a: catalog("kye", a), st.floats(2.0, 10.0)),  # PSD from a = 2
    st.builds(lambda a: catalog("s2", a), UNIT),
    st.builds(lambda q1, f: catalog("rho2", q1, f * (1.0 - q1)), UNIT, UNIT),
    st.just(catalog("g2")),
)
rngs = st.builds(np.random.default_rng, st.integers(0, 2**32 - 1))
LEAF_SPECS = st.one_of(
    st.builds(lambda rng: StateSpec(kind="pure", amplitudes=tuple(
        complex(a) for a in random_pure(rng))), rngs),
    st.builds(lambda rng: StateSpec(kind="matrix", matrix=tuple(
        tuple(row) for row in random_density(rng))), rngs),
    CATALOG_SPECS,
)


def mixes_of(parts):
    """Mixtures of one to three ``parts`` with positive weights summing to one."""
    def mix(specs, raw):
        w = np.array(raw[:len(specs)])
        return StateSpec(kind="mix", parts=tuple(
            (float(x), s) for x, s in zip(w / w.sum(), specs)))
    return st.builds(mix, st.lists(parts, min_size=1, max_size=3),
                     st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))


# leaves, and mixtures nested up to two levels deep
SPECS = st.one_of(LEAF_SPECS, mixes_of(st.one_of(LEAF_SPECS, mixes_of(LEAF_SPECS))))


class TestSpecRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(SPECS)
    def test_json_round_trip_is_exact(self, spec):
        again = spec_from_obj(json.loads(json.dumps(spec_to_obj(spec))))
        assert again == spec
        np.testing.assert_array_equal(to_density(again), to_density(spec))
