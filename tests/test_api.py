"""The package root exports the verdict API, and the README's Python API block runs."""

import ast
import importlib
import inspect
import pathlib

import pytest

import spapt

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
    "dagger": "linalg", "density_from_pure": "states", "ket": "states",
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
