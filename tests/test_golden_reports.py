"""``classify`` over the documents in ``tests/data/classify/``, against stored outcomes.

Each document ``NAME.json`` has a ``NAME.expected.json`` beside it: the extra
arguments, the exit code, the stderr and the JSON report (without ``timing``)
of ``spapt classify NAME.json``. Exit codes, stderr, strings, keys and
verdicts must match exactly, floats within 1e-12: JSON prints ``repr``, and
any change of eigensolver moves the last digits.
"""

import json
import pathlib

import pytest

from spapt.cli import main

DATA = pathlib.Path(__file__).parent / "data" / "classify"
FLOAT_TOL = 1e-12
CASES = sorted(p.name.removesuffix(".expected.json") for p in DATA.glob("*.expected.json"))


def assert_matches(got, want, where="$"):
    """``got == want``, except that floats may differ by ``FLOAT_TOL``."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= FLOAT_TOL, (
            f"{where}: {got!r}, want {want!r}")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (
            f"{where}: keys {sorted(got)}, want {sorted(want)}")
        for key, value in want.items():
            assert_matches(got[key], value, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: {got!r}, want {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r}, want {want!r}"


def test_every_document_has_an_outcome():
    documents = sorted(p.stem for p in DATA.glob("*.json") if not p.name.endswith(".expected.json"))
    assert documents == CASES
    assert len(CASES) == 26


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, capsys):
    expected = json.loads((DATA / f"{name}.expected.json").read_text(encoding="utf-8"))
    code = main(["classify", str(DATA / f"{name}.json"), *expected["args"]])
    out, err = capsys.readouterr()
    assert code == expected["exit"]
    assert err == expected["stderr"]
    if expected["report"] is None:
        assert out == ""
    else:
        report = json.loads(out)
        del report["timing"]
        assert_matches(report, expected["report"])
