"""The package root exports the verdict API, the README's Python API block runs, and
every entry point turns a bad number into an InputError."""

import ast
import importlib
import inspect
import pathlib
import re

import numpy as np
import pytest

import spapt
from spapt.errors import InputError
from spapt.linalg import min_eigenvalue
from spapt.states import (
    StateSpec, as_density_matrix, check_weights, convex_mix, density_from_pure, pure_state,
)

README = pathlib.Path(__file__).parent.parent / "README.md"
VERDICT_API = {
    "classify", "channel_minima", "decide_minima", "Verdict", "GENUINE", "BISEPARABLE",
    "FULLY_SEPARABLE", "catalog", "parse_state_file", "to_density", "partial_transpose",
    "spa_pt", "CANONICAL_WEIGHT", "THRESHOLD", "three_tangle_pure", "pure_subclass",
    "GHZ_CLASS", "W_CLASS", "NOT_GENUINE", "hermitian_eigenvalues",
}
# helpers that left the root, and the module each is imported from
MODULE_ONLY = {
    "QUBITS": "ptranspose", "StateSpec": "states", "as_density_matrix": "states",
    "catalog_names": "states", "choi_matrix": "spa", "convex_mix": "states",
    "density_from_pure": "states", "ket": "states",
    "min_choi_psd_parameter": "spa", "min_cp_parameter": "spa", "min_eigenvalue": "linalg",
    "pure_amplitudes": "states", "pure_state": "states",
}


def test_root_exports_exactly_the_verdict_api():
    assert set(spapt.__all__) == VERDICT_API
    assert all(hasattr(spapt, name) for name in spapt.__all__)
    public = {name for name, value in vars(spapt).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == VERDICT_API
    star = {}
    exec("from spapt import *", star)
    assert set(star) - {"__builtins__"} == VERDICT_API


@pytest.mark.parametrize("name, module", sorted(MODULE_ONLY.items()))
def test_helpers_import_from_their_modules(name, module):
    assert name not in vars(spapt)
    assert hasattr(importlib.import_module(f"spapt.{module}"), name)


def run_readme_api_block():
    """Run the README's Python API block statement by statement; return the value
    of each expression statement (a print's argument, not printed) and the namespace."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            node = stmt.value
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                node = node.args[0]
            values.append(eval(compile(ast.Expression(node), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return values, namespace


def test_readme_api_block_gives_the_values_its_comments_state():
    (ghz_minima, verdict, subclass, label), ns = run_readme_api_block()
    assert ghz_minima == pytest.approx({q: 2.7755575615628914e-17 for q in "ABC"}, abs=1e-12)
    assert (verdict.kind, verdict.cuts) == ("genuine-entangled", ())
    assert ns["mu"] == pytest.approx(-0.5, abs=1e-12)
    assert ns["lam"] == pytest.approx(0.1 + 0.2 * ns["mu"], abs=1e-12)
    assert ns["lam"] == pytest.approx(0.0, abs=1e-12)
    assert subclass == "ghz-class"
    assert ns["minima"] == pytest.approx({"A": 0.1, "B": 0.03, "C": 0.03}, abs=1e-12)
    assert label == "biseparable:A-BC"


def test_readme_names_only_what_the_package_has():
    # every `spapt.<module>.<name>` in the README's inline code, outside fenced blocks
    text = "".join(README.read_text(encoding="utf-8").split("```")[::2])
    names = [name for span in re.findall(r"`([^`]+)`", text)
             for name in re.findall(r"\bspapt\.(\w+)\.(\w+)", span)]
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(f"spapt.{module}"), name), f"spapt.{module}.{name}"


def amplitudes_with(bad):
    return [bad, 0, 0, 0, 0, 0, 0, 1]


def matrix_with(bad):
    """I/8 as nested lists, with ``bad`` at entry (2, 5)."""
    m = (np.eye(8) / 8.0).tolist()
    m[2][5] = bad
    return m


# entry point -> (call on one bad number, the name its message starts with)
SCALAR_ENTRY_POINTS = {
    "catalog": (lambda x: spapt.catalog("kye", x), "kye: a"),
    "check_weights": (lambda x: check_weights([x, 1.0]), "weight 0"),
    "decide_minima": (lambda x: spapt.decide_minima(dict.fromkeys("ABC", 0.2), x), "eps"),
}
ARRAY_ENTRY_POINTS = {
    "pure_state": (lambda x: pure_state(amplitudes_with(x)), "amplitudes"),
    "density_from_pure": (lambda x: density_from_pure(amplitudes_with(x)), "amplitudes"),
    "three_tangle_pure": (lambda x: spapt.three_tangle_pure(amplitudes_with(x)), "amplitudes"),
    "pure_subclass": (lambda x: spapt.pure_subclass(amplitudes_with(x)), "amplitudes"),
    "to_density-pure": (lambda x: spapt.to_density(StateSpec(amplitudes=amplitudes_with(x))),
                        "amplitudes"),
    "to_density-matrix": (lambda x: spapt.to_density(StateSpec(matrix=matrix_with(x))), "matrix"),
    "as_density_matrix": (lambda x: as_density_matrix(matrix_with(x)), "matrix"),
    "convex_mix": (lambda x: convex_mix([(1.0, matrix_with(x))]), "part 0"),
    "hermitian_eigenvalues": (lambda x: spapt.hermitian_eigenvalues(matrix_with(x)), "matrix"),
    "min_eigenvalue": (lambda x: min_eigenvalue(matrix_with(x)), "matrix"),
    "classify": (lambda x: spapt.classify(matrix_with(x)), "matrix"),
    "channel_minima": (lambda x: spapt.channel_minima(matrix_with(x)), "rho"),
    "partial_transpose": (lambda x: spapt.partial_transpose(matrix_with(x), "A"), "rho"),
    "spa_pt": (lambda x: spapt.spa_pt(matrix_with(x), "A"), "rho"),
}
# maps, not validators: a NaN or infinite entry passes on to the first solve
TRANSFORMS = {"partial_transpose", "spa_pt"}


# entry point -> (call on an input of the wrong shape, its message)
SHAPE_ENTRY_POINTS = {
    "pure_state": (lambda: pure_state([1, 0, 0, 0]), "expected 8 amplitudes, got (4,)"),
    "as_density_matrix": (lambda: as_density_matrix(np.eye(4) / 4),
                          "shape: expected 8x8, got (4, 4)"),
    "convex_mix": (lambda: convex_mix([(0.5, np.eye(8) / 8), (0.5, np.eye(4) / 4)]),
                   "part 1: shape: expected 8x8, got (4, 4)"),
    # numpy would broadcast an 8-vector across all eight rows
    "convex_mix-vector": (lambda: convex_mix([(1.0, np.full(8, 1 / 8))]),
                          "part 0: shape: expected 8x8, got (8,)"),
    "hermitian_eigenvalues": (lambda: spapt.hermitian_eigenvalues(np.ones(3)),
                              "expected a non-empty square matrix, got shape (3,)"),
    "classify": (lambda: spapt.classify(np.eye(4) / 4), "shape: expected 8x8, got (4, 4)"),
    "partial_transpose": (lambda: spapt.partial_transpose(np.eye(4) / 4, "A"),
                          "shape: expected an 8x8 matrix, got (4, 4)"),
}


@pytest.mark.parametrize("name", SHAPE_ENTRY_POINTS)
def test_entry_points_raise_input_error_naming_a_wrong_shape(name):
    call, message = SHAPE_ENTRY_POINTS[name]
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("bad, got", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (10**400, "an integer too large"), ("x", "'x'"),
], ids=["nan", "inf", "-inf", "int-too-large", "str"])
@pytest.mark.parametrize("name", [*SCALAR_ENTRY_POINTS, *ARRAY_ENTRY_POINTS])
def test_entry_points_raise_only_input_error_for_bad_numbers(name, bad, got):
    call, what = SCALAR_ENTRY_POINTS.get(name) or ARRAY_ENTRY_POINTS[name]
    if name in TRANSFORMS and isinstance(bad, float):
        assert not np.isfinite(call(bad)).all()
        return
    with pytest.raises(InputError) as err:
        call(bad)
    if name in SCALAR_ENTRY_POINTS:  # the one finite-number rule, spapt.linalg.as_float
        assert str(err.value) == f"{what}: expected a finite number, got {got}"
    elif not isinstance(bad, float):  # numpy cannot convert it: spapt.linalg.as_complex_array
        assert str(err.value).startswith(f"{what}: expected an array of numbers (")
