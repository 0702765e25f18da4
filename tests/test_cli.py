"""End-to-end command-line behavior: formats, exit codes, determinism."""

import contextlib
import importlib
import io
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spapt import Verdict, catalog, classify, cli, parse_state_file, states, to_density
from spapt.cli import build_report, main
from spapt.states import MAX_MIX_DEPTH, catalog_names, catalog_param_names
from support import CATALOG_PARAMS

INV2 = 1.0 / np.sqrt(2.0)
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_OUTPUTS = {
    "reproduce_table1.csv": ["reproduce", "table1"],
    "reproduce_table2.csv": ["reproduce", "table2"],
    "reproduce_examples.csv": ["reproduce", "examples"],
    "scan_ghz_w.csv": ["scan", "ghz-w", "--grid", "q=0:1:101"],
    "scan_rho2.csv": ["scan", "rho2", "--grid", "q1=0:0.5:11", "--grid", "q2=0:0.5:11"],
}
CLASSIFY_MODULE = importlib.import_module("spapt.classify")
# --eps values that exit 2, and the message each gives
BAD_EPS = {"nan": "eps: expected a finite number, got nan",
           "inf": "eps: expected a finite number, got inf",
           "-1": "eps=-1.0 must lie in [0, 0.1)",
           "0.1": "eps=0.1 must lie in [0, 0.1)",
           "0.2": "eps=0.2 must lie in [0, 0.1)"}
# a partial-transpose minimum of 2.0 gives the channel minimum 0.1 + 0.2*2.0, which
# is 0.4999999999999999 in doubles because 1 - 4/5 rounds below 0.2
OUT_OF_RANGE = "numerical failure: channel minimum of cut A, 0.4999999999999999, outside"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def matrix_doc_with_offdiagonal(x):
    """Matrix document of I/8 with ``x`` at entries (0, 1) and (1, 0)."""
    m = np.eye(8) / 8.0
    m[0, 1] = m[1, 0] = x
    return {"matrix": {"re": m.tolist()}}


def write_state(tmp_path, doc, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestClassifyCommand:
    def test_ghz_report(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "ghz", "params": [INV2, INV2]}})
        code, out, _ = run_cli(["classify", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["kind"] == "genuine-entangled"
        assert report["verdict"]["necessity_caveat"] is True
        assert report["spa_min"]["max"] == pytest.approx(0.0, abs=1e-10)
        assert report["threshold"] == pytest.approx(0.1)
        assert len(report["pt_spectra"]["B"]) == 8

    def test_kye_report_value(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "kye", "params": [4]}})
        code, out, _ = run_cli(["classify", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["kind"] == "fully-separable"
        assert report["spa_min"]["max"] == pytest.approx(0.11, abs=1e-12)

    def test_report_round_trips(self, tmp_path, capsys):
        doc = {
            "mix": {
                "parts": [
                    {"weight": 0.6, "state": {"catalog": {"name": "g2"}}},
                    {"weight": 0.4, "state": {"pure": {"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}}},
                ]
            }
        }
        path = write_state(tmp_path, doc)
        code, out, _ = run_cli(["classify", path], capsys)
        assert code == 0
        report = json.loads(out)
        echoed = parse_state_file(json.dumps(report["input"]))
        again = classify(to_density(echoed))
        assert again.kind == report["verdict"]["kind"]
        assert list(again.cuts) == report["verdict"]["cuts"]
        assert again.margin == pytest.approx(report["verdict"]["margin"], abs=1e-12)

    def test_tangle_flag(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "ghz", "params": [INV2, INV2]}})
        code, out, _ = run_cli(["classify", path, "--tangle"], capsys)
        assert json.loads(out)["tangle"] == pytest.approx(1.0, abs=1e-12)

    def test_tangle_flag_rejects_mixed_states(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "b1", "params": [0.3]}})
        code, _, err = run_cli(["classify", path, "--tangle"], capsys)
        assert code == 2
        assert "pure" in err

    @pytest.mark.parametrize("live", [
        {"pure": {"amplitudes": [0.6, 0, 0, 0, 0, 0, 0, 0.8]}},
        {"catalog": {"name": "ghz", "params": [0.6, 0.8]}},
    ], ids=["pure", "catalog"])
    def test_tangle_of_a_mix_with_one_live_pure_part(self, tmp_path, capsys, live):
        w = {"catalog": {"name": "w", "params": [3 ** -0.5] * 3}}
        path = write_state(tmp_path, {"mix": {"parts": [
            {"weight": 1, "state": live}, {"weight": 0, "state": w}]}})
        code, out, _ = run_cli(["classify", path, "--tangle"], capsys)
        assert code == 0
        assert json.loads(out)["tangle"] == pytest.approx(4 * 0.36 * 0.64, abs=1e-12)

    def test_tangle_rejects_a_mix_with_two_live_parts(self, tmp_path, capsys):
        ghz = {"catalog": {"name": "ghz", "params": [0.6, 0.8]}}
        path = write_state(tmp_path, {"mix": {"parts": [
            {"weight": 0.5, "state": ghz}, {"weight": 0.5, "state": ghz}]}})
        code, out, err = run_cli(["classify", path, "--tangle"], capsys)
        assert code == 2
        assert out == ""
        assert "pure" in err

    def test_pretty_output_with_tangle(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "g2"}})
        code, out, _ = run_cli(["classify", path, "--pretty", "--tangle"], capsys)
        assert code == 0
        assert out.endswith("three-tangle: 0.16\n")

    def test_pretty_output(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "kye", "params": [4]}})
        code, out, _ = run_cli(["classify", path, "--pretty"], capsys)
        assert code == 0
        assert "verdict: fully-separable" in out
        assert "0.11" in out

    @pytest.mark.parametrize("eps", list(BAD_EPS))
    @pytest.mark.parametrize("extra", [[], ["--pretty"]])
    def test_bad_eps_exits_2_before_output(self, tmp_path, capsys, eps, extra):
        path = write_state(tmp_path, {"catalog": {"name": "kye", "params": [4]}})
        assert run_cli(["classify", path, "--eps", eps] + extra, capsys) == (
            2, "", f"error: {BAD_EPS[eps]}\n")

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        code, _, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert "error" in err

    def test_schema_diagnostic_names_path(self, tmp_path, capsys):
        path = write_state(tmp_path, {"pure": {"amplitudes": [1, 0, 0, "x", 0, 0, 0, 0]}})
        code, _, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert "amplitudes[3]" in err

    def test_bad_weights_exit_2(self, tmp_path, capsys):
        doc = {"mix": {"parts": [
            {"weight": 0.5, "state": {"catalog": {"name": "g2"}}},
            {"weight": 0.4, "state": {"catalog": {"name": "wtilde"}}},
        ]}}
        code, _, err = run_cli(["classify", write_state(tmp_path, doc)], capsys)
        assert code == 2

    def test_negative_weight_exits_2_naming_the_part(self, tmp_path, capsys):
        doc = {"mix": {"parts": [
            {"weight": 1.5, "state": {"catalog": {"name": "g2"}}},
            {"weight": -0.5, "state": {"catalog": {"name": "wtilde"}}},
        ]}}
        code, out, err = run_cli(["classify", write_state(tmp_path, doc)], capsys)
        assert code == 2 and out == ""
        assert err == "error: $.mix.parts[1].weight: weight 1 = -0.5 is negative\n"
        assert "np." not in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["classify", "/nonexistent/state.json"], capsys)
        assert code == 2

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: $: cannot read {path}: ")

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        # decoded as UTF-8 whatever the locale, like a file
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(["classify", "-"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: $: cannot read -: ")
        assert err.count("\n") == 1

    def test_closed_stdin_exits_2(self, capsys, monkeypatch):
        # a process started with its stdin closed (spapt classify - <&-) has no sys.stdin
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(["classify", "-"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: $: cannot read -: stdin is closed\n"

    def test_rounded_catalog_parameters_accepted(self, tmp_path, capsys):
        path = write_state(tmp_path, {"catalog": {"name": "ghz", "params": [0.7071, 0.7071]}})
        code, out, _ = run_cli(["classify", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["kind"] == "genuine-entangled"
        assert abs(report["spa_min"]["max"]) <= 1e-10

    @pytest.mark.parametrize("doc, where", [
        ({"catalog": {"name": "kye", "params": [float("nan")]}}, "$.catalog.params[0]"),
        ({"catalog": {"name": "b1", "params": [float("inf")]}}, "$.catalog.params[0]"),
        ({"pure": {"amplitudes": [float("nan"), 0, 0, 0, 0, 0, 0, 1]}}, "$.pure.amplitudes[0]"),
        ({"pure": {"amplitudes": [1, [0, float("-inf")], 0, 0, 0, 0, 0, 0]}},
         "$.pure.amplitudes[1][1]"),
        ({"matrix": {"re": [[float("nan") if (i, j) == (2, 3) else float(i == j) / 8
                             for j in range(8)] for i in range(8)]}}, "$.matrix.re[2][3]"),
        ({"matrix": {"re": (np.eye(8) / 8).tolist(),
                     "im": [[float("inf")] + [0.0] * 7] + [[0.0] * 8] * 7}}, "$.matrix.im[0][0]"),
        ({"mix": {"parts": [
            {"weight": float("nan"), "state": {"catalog": {"name": "g2"}}},
            {"weight": 1.0, "state": {"catalog": {"name": "wtilde"}}},
        ]}}, "$.mix.parts[0].weight"),
        ({"mix": {"parts": [
            {"weight": 1.0, "state": {"catalog": {"name": "s3", "params": [float("nan")]}}},
        ]}}, "$.mix.parts[0].state.catalog.params[0]"),
    ])
    def test_non_finite_numbers_exit_2_naming_the_field(self, tmp_path, capsys, doc, where):
        # json decodes NaN and Infinity; they must not reach the solver
        code, out, err = run_cli(["classify", write_state(tmp_path, doc)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}: ")
        assert "finite" in err

    @pytest.mark.parametrize("text, where", [
        ('{"catalog": {"name": "kye", "params": [1%s]}}' % ("0" * 400), "$.catalog.params[0]"),
        ('{"pure": {"amplitudes": [-1%s, 0, 0, 0, 0, 0, 0, 1]}}' % ("0" * 400),
         "$.pure.amplitudes[0]"),
        ('{"pure": {"amplitudes": [1, [0, 1%s], 0, 0, 0, 0, 0, 0]}}' % ("0" * 400),
         "$.pure.amplitudes[1][1]"),
        ('{"matrix": {"re": %s}}' % json.dumps((np.eye(8) / 8).tolist()).replace(
            "0.125", "1" + "0" * 400, 1), "$.matrix.re[0][0]"),
        ('{"mix": {"parts": [{"weight": 1%s, "state": {"catalog": {"name": "g2"}}}]}}'
         % ("0" * 400), "$.mix.parts[0].weight"),
        ('{"catalog": {"name": "kye", "params": [1%s]}}' % ("0" * 5000), "$"),
    ], ids=["catalog-param", "amplitude", "pair-part", "matrix-entry", "weight", "digit-limit"])
    def test_oversized_integers_exit_2_naming_the_field(self, tmp_path, capsys, text, where):
        # 10**400 overflows a double; 5000 digits exceed the decoder's digit limit
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}: ")
        assert len(err) < 200

    def test_numerical_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from spapt.errors import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic")

        monkeypatch.setattr("spapt.cli.hermitian_eigenvalues", boom)
        path = write_state(tmp_path, {"catalog": {"name": "g2"}})
        code, out, err = run_cli(["classify", path], capsys)
        assert code == 1
        assert out == ""
        assert "numerical failure" in err

    @pytest.mark.parametrize("doc, line", [
        ({"pure": {"amplitudes": [2, 0, 0, 0, 0, 0, 0, 0]}},
         "$.pure.amplitudes: squared norm 4.0 differs from 1 beyond 1e-10"),
        ({"mix": {"parts": [{"weight": 0.5, "state": {"catalog": {"name": "g2"}}},
                            {"weight": 0.5, "state": {"matrix": {"re": [[0.0] * 8] * 8}}}]}},
         "$.mix.parts[1].state.matrix: trace: trace 0.0"),
        ({"catalog": {"name": "kye", "params": [1]}}, "kye: psd: minimum eigenvalue -6.250e-02"),
        ({"catalog": {"name": "b1", "params": [1.5]}}, "$.catalog: b1: 1.5 outside [0, 1]"),
    ], ids=["pure-norm", "matrix-trace", "family-psd", "catalog-param"])
    def test_document_error_names_its_path_or_family(self, tmp_path, capsys, doc, line):
        code, out, err = run_cli(["classify", write_state(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize("doc, line", [
        ({"pure": {"amplitudes": [1e200, 0, 0, 0, 0, 0, 0, 0]}},
         "$.pure.amplitudes: amplitude 0 is (1e+200+0j), above 1e+150 in modulus"),
        (matrix_doc_with_offdiagonal(1e308),
         "$.matrix: modulus: entry (0, 1) is (1e+308+0j), above 1e+150 in modulus"),
        (matrix_doc_with_offdiagonal(1e160),
         "$.matrix: modulus: entry (0, 1) is (1e+160+0j), above 1e+150 in modulus"),
    ], ids=["amplitude", "matrix-overflows-sum", "matrix-overflows-solver"])
    def test_huge_finite_numbers_exit_2_with_one_line(self, tmp_path, capsys, doc, line):
        # squaring or adding these overflows; numpy would warn before the error
        code, out, err = run_cli(["classify", write_state(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_deeply_nested_document_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(nested_mix(400), encoding="utf-8")
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: $:")

    def test_mix_nested_to_the_limit_classifies(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text(nested_mix(MAX_MIX_DEPTH), encoding="utf-8")
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["verdict"]["kind"] == "genuine-entangled"

    def test_mix_nested_past_the_limit_exits_2(self, tmp_path, capsys):
        # a fixed limit, so the answer does not depend on the caller's stack
        path = tmp_path / "nested.json"
        path.write_text(nested_mix(MAX_MIX_DEPTH + 1), encoding="utf-8")
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert code == 2
        assert out == ""
        where = "$" + ".mix.parts[0].state" * MAX_MIX_DEPTH + ".mix"
        assert err == f"error: {where}: mix nested more than {MAX_MIX_DEPTH} levels deep\n"

    def test_channel_minimum_out_of_range_exits_1(self, tmp_path, capsys, monkeypatch):
        # no density matrix has a partial-transpose minimum above 1, so none has a
        # canonical minimum 0.1 + 0.2*mu above 0.3
        monkeypatch.setattr(CLASSIFY_MODULE, "min_eigenvalue", lambda m: 2.0)
        path = write_state(tmp_path, {"catalog": {"name": "kye", "params": [4]}})
        code, out, err = run_cli(["classify", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(OUT_OF_RANGE)


def nested_mix(depth: int) -> str:
    """A GHZ catalog document wrapped in ``depth`` single-part mixtures, built
    as text so that no encoder recursion limits the depth."""
    ghz = json.dumps({"catalog": {"name": "ghz", "params": [INV2, INV2]}})
    return '{"mix": {"parts": [{"weight": 1.0, "state": ' * depth + ghz + "}]}}" * depth


class TestReproduceCommand:
    def test_table2_verdicts_all_c_cut(self, capsys):
        code, out, _ = run_cli(["reproduce", "table2"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 4
        for row in rows:
            assert row.endswith("biseparable:C-AB")
            assert float(row.split(",")[11]) <= 1e-3  # delta_max column

    def test_table1_deltas_within_tolerance(self, capsys):
        code, out, _ = run_cli(["reproduce", "table1"], capsys)
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 5
        for row in rows:
            cells = row.split(",")
            assert float(cells[11]) <= 1e-3
            assert cells[12] == "genuine-entangled"

    def test_examples_cover_all_families(self, capsys):
        code, out, _ = run_cli(["reproduce", "examples"], capsys)
        assert code == 0
        names = [row.split(",")[0] for row in out.strip().split("\n")[1:]]
        assert names == ["g1", "g2", "g3", "ghz-w", "b1", "b2", "kye", "s2", "s3", "rho1", "rho2"]

    def test_byte_stable(self, capsys):
        _, first, _ = run_cli(["reproduce", "table1"], capsys)
        _, second, _ = run_cli(["reproduce", "table1"], capsys)
        assert first == second
        assert "\r" not in first  # LF only
        # each output byte for byte against its committed golden file; a
        # change to one of these files is a change to the printed numbers
        for name, argv in GOLDEN_OUTPUTS.items():
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            assert out == (DATA / name).read_text(encoding="utf-8"), name

    @pytest.mark.parametrize("x, cell", [(-1e-17, "0"), (0.1 - 3e-17, "0.1"), (4.8e-15, "0")])
    def test_computed_cells_print_at_1e12_resolution(self, x, cell):
        # solver noise below 1e-12 prints as nothing, -0.0 included
        assert cli._fmt_computed(x) == cell

    def test_parameter_cells_print_as_given(self, capsys):
        code, out, _ = run_cli(["scan", "ghz-w", "--grid", "q=1e-15"], capsys)
        assert code == 0
        assert out.split("\n")[1].split(",")[0] == "1e-15"


class TestScanCommand:
    def test_rho1_endpoints(self, capsys):
        code, out, _ = run_cli(["scan", "rho1", "--grid", "q=0,1"], capsys)
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0] == "q,lam_a,lam_b,lam_c,lam_max,verdict"
        first, last = rows[1].split(","), rows[2].split(",")
        assert abs(float(first[4])) <= 1e-10 and first[5] == "genuine-entangled"
        assert float(last[4]) == pytest.approx(0.1, abs=1e-12)
        assert last[5] == "fully-separable"

    def test_ghz_w_matches_closed_form(self, capsys):
        code, out, _ = run_cli(["scan", "ghz-w", "--grid", "q=0:1:3"], capsys)
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            cells = row.split(",")
            q = float(cells[0])
            q1 = (4 - q - np.sqrt(1 - 2 * q + 10 * q * q)) / 30
            q2 = (6 + 3 * q - np.sqrt(32 - 64 * q + 41 * q * q)) / 60
            assert float(cells[4]) == pytest.approx(min(q1, q2), abs=1e-9)

    def test_grid_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(["scan", "b1", "--grid", "q=0:2:5"], capsys)
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("eps", list(BAD_EPS))
    def test_bad_eps_exits_2_before_the_header(self, capsys, eps):
        assert run_cli(["scan", "kye", "--grid", "a=4", "--eps", eps], capsys) == (
            2, "", f"error: {BAD_EPS[eps]}\n")

    @pytest.mark.parametrize("grids", [
        ["q=0:1:1000000000000"],
        ["q1=0:1:1000", "q2=0:1:101"],
    ], ids=["one-count", "product"])
    def test_grid_over_the_row_cap_exits_2(self, capsys, monkeypatch, grids):
        # rejected before any linspace over the cap and before any row
        real = np.linspace

        def small_linspace(lo, hi, count):
            assert count <= cli.MAX_SCAN_ROWS
            return real(lo, hi, count)

        monkeypatch.setattr(np, "linspace", small_linspace)
        monkeypatch.setattr(cli, "to_density", lambda spec: pytest.fail("a row was realised"))
        argv = ["scan", "rho2"] + [arg for g in grids for arg in ("--grid", g)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --grid:")
        assert str(cli.MAX_SCAN_ROWS) in err

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run_cli(["scan", "mystery", "--grid", "q=0:1:3"], capsys)
        assert code == 2

    def test_missing_grid_exits_2(self, capsys):
        code, _, err = run_cli(["scan", "rho2", "--grid", "q1=0.5"], capsys)
        assert code == 2
        assert "q2" in err

    def test_tangle_column_for_pure_family(self, capsys):
        code, out, _ = run_cli(
            ["scan", "ghz", "--grid", f"alpha={INV2}", "--grid", f"beta={INV2}", "--tangle"],
            capsys,
        )
        assert code == 0
        rows = out.strip().split("\n")
        assert rows[0].endswith(",tau")
        assert float(rows[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_tangle_of_s2_at_alpha_0(self, capsys):
        # the maximally mixed part has weight 0, so the one live part is pure GHZ
        code, out, _ = run_cli(["scan", "s2", "--grid", "alpha=0", "--tangle"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[-1] == "1"

    def test_tangle_on_mixed_family_exits_2(self, capsys):
        code, out, err = run_cli(["scan", "s2", "--grid", "alpha=0.5", "--tangle"], capsys)
        assert code == 2
        assert out == ""

    def test_bad_second_grid_point_leaves_stdout_empty(self, capsys):
        # the first point is valid; the second is off-norm, so no partial CSV
        code, out, err = run_cli(
            ["scan", "ghz", "--grid", "alpha=0.7071,0.5", "--grid", "beta=0.7071"], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ghz: squared norm")

    @pytest.mark.parametrize("grids, line", [
        (["q"], "error: --grid: expected name=values, got 'q'"),
        (["q=0.5", "x=1"], "error: ghz-w has parameters ('q',); unknown grid name(s) ['x']"),
    ])
    def test_bad_grid_name_exits_2(self, capsys, grids, line):
        argv = ["scan", "ghz-w"] + [arg for g in grids for arg in ("--grid", g)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == line + "\n"

    def test_repeated_grid_name_exits_2(self, capsys):
        code, out, err = run_cli(["scan", "ghz-w", "--grid", "q=0.1", "--grid", "q=0.9"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --grid:")
        assert "'q'" in err

    @pytest.mark.parametrize("argv, line", [
        (["ghz", "--grid", "alpha=1e200", "--grid", "beta=1"],
         "ghz: a parameter in (1e+200, 1.0) is above 1e+150 in modulus"),
        (["ghz-w", "--grid", "q=0:inf:3"],
         "--grid: cannot parse 'q=0:inf:3': the range must be finite"),
        (["ghz-w", "--grid", "q=-1e308:1e308:3"],
         "--grid: cannot parse 'q=-1e308:1e308:3': the range must be finite"),
    ], ids=["huge-parameter", "infinite-range", "range-overflows"])
    def test_huge_or_infinite_grid_exits_2_with_one_line(self, capsys, argv, line):
        assert run_cli(["scan"] + argv, capsys) == (2, "", f"error: {line}\n")

    def test_non_finite_grid_value_exits_2(self, capsys):
        code, out, err = run_cli(["scan", "kye", "--grid", "a=4,nan"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: kye: a: expected a finite number, got nan\n"

    def test_kye_at_the_top_of_the_double_range(self, capsys):
        # 8 + 8a would overflow to inf here; the state is I/8 up to entries near 1e-308
        assert run_cli(["scan", "kye", "--grid", "a=1e308"], capsys) == (
            0, "a,lam_a,lam_b,lam_c,lam_max,verdict\n"
               "1e+308,0.125,0.125,0.125,0.125,fully-separable\n", "")

    def test_numerical_failure_on_second_row_leaves_stdout_empty(self, capsys, monkeypatch):
        from spapt.errors import NumericalFailure

        real, calls = cli.to_density, []

        def fail_second(spec):
            calls.append(spec)
            if len(calls) == 2:
                raise NumericalFailure("synthetic")
            return real(spec)

        monkeypatch.setattr(cli, "to_density", fail_second)
        code, out, err = run_cli(["scan", "ghz-w", "--grid", "q=0.1,0.2,0.3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure: synthetic")

    def test_channel_minimum_out_of_range_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(CLASSIFY_MODULE, "min_eigenvalue", lambda m: 2.0)
        code, out, err = run_cli(["scan", "ghz-w", "--grid", "q=0.5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(OUT_OF_RANGE)

    def test_deterministic_row_order(self, capsys):
        _, first, _ = run_cli(
            ["scan", "rho2", "--grid", "q1=0.5:0.7:2", "--grid", "q2=0.1:0.2:2"], capsys
        )
        _, second, _ = run_cli(
            ["scan", "rho2", "--grid", "q1=0.5:0.7:2", "--grid", "q2=0.1:0.2:2"], capsys
        )
        assert first == second
        body = first.strip().split("\n")[1:]
        assert [row.split(",")[0] for row in body] == ["0.5", "0.5", "0.7", "0.7"]


@pytest.mark.parametrize("family, grid, label", [
    ("ghz", ["alpha=1", "beta=0"], "fully-separable"),
    ("w", ["l0=0", "l1=1", "l2=0"], "fully-separable"),
    ("g3", ["l0=0", "l1=1", "l2=0"], "fully-separable"),
    ("b2", ["l0=0.6", "l1=0.1", "l2=0.7937"], "biseparable:C-AB"),
    ("s3", ["q=0.5"], "fully-separable"),
], ids=["ghz-000", "w-010", "g3-100", "b2-cut-c", "s3"])
def test_threshold_exact_states_get_one_label_on_every_path(capsys, family, grid, label):
    # some cut of each state sits exactly on 1/10, where a path that
    # computed the minimum differently could flip the verdict
    params = [float(g.split("=")[1]) for g in grid]
    spec = catalog(family, *params)
    report = build_report(spec)["verdict"]
    from_report = Verdict(report["kind"], tuple(report["cuts"]), report["margin"]).label
    args = ["scan", family] + [x for g in grid for x in ("--grid", g)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    from_scan = out.strip().split("\n")[1].split(",")[-1]
    assert classify(to_density(spec)).label == from_report == from_scan == label


def test_calls_in_one_process_keep_only_their_own_arguments(tmp_path, capsys):
    # the parser is built once per process, so a repeated --grid or a flag of one
    # call must not reach the next
    assert cli.make_parser() is cli.make_parser()
    for grid, rows in (("q=0.1", ["q", "0.1"]), ("q=0.9,1", ["q", "0.9", "1"])):
        code, out, _ = run_cli(["scan", "ghz-w", "--grid", grid], capsys)
        assert code == 0 and [row.split(",")[0] for row in out.splitlines()] == rows
    path = write_state(tmp_path, {"catalog": {"name": "ghz", "params": [INV2, INV2]}})
    _, with_tangle, _ = run_cli(["classify", path, "--tangle"], capsys)
    assert json.loads(with_tangle)["tangle"] == pytest.approx(1.0, abs=1e-12)
    _, plain, _ = run_cli(["classify", path], capsys)
    assert json.loads(plain)["tangle"] is None


def test_every_catalog_family_has_in_range_parameters():
    assert sorted(CATALOG_PARAMS) == sorted(catalog_names())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CATALOG_PARAMS)).flatmap(
    lambda family: st.tuples(st.just(family), CATALOG_PARAMS[family])))
def test_scan_row_agrees_with_the_classify_report(point):
    # a scan row's minima and verdict are the report's, cell for cell, anywhere in
    # each family's domain (a stacked or affine scan path must keep this)
    family, params = point
    grid = [x for name, v in zip(catalog_param_names(family), params)
            for x in ("--grid", f"{name}={v!r}")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["scan", family, *grid]) == 0
    row = out.getvalue().splitlines()[1].split(",")[len(params):]
    report = build_report(catalog(family, *params))
    minima = [cli._fmt_computed(report["spa_min"][k]) for k in ("A", "B", "C", "max")]
    verdict = report["verdict"]
    label = Verdict(verdict["kind"], tuple(verdict["cuts"]), verdict["margin"]).label
    assert row == minima + [label]


def test_stdin_input(tmp_path, capsys, monkeypatch):
    doc = json.dumps({"catalog": {"name": "s3", "params": [0.5]}})
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc.encode("utf-8"))))
    code, out, _ = run_cli(["classify", "-"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "fully-separable"


def counted_builder(monkeypatch, name):
    """Replace a catalog family's builder by one that counts its calls."""
    param_names, build = states._CATALOG[name]
    calls = []

    def counting(*params):
        calls.append(params)
        return build(*params)

    monkeypatch.setitem(states._CATALOG, name, (param_names, counting))
    return calls


def test_scan_builds_each_row_once(capsys, monkeypatch):
    calls = counted_builder(monkeypatch, "kye")
    code, out, _ = run_cli(["scan", "kye", "--grid", "a=4,5,6"], capsys)
    assert code == 0 and len(out.splitlines()) == 4
    assert calls == [(4.0,), (5.0,), (6.0,)]


def test_classify_tangle_builds_the_catalog_state_once(tmp_path, capsys, monkeypatch):
    calls = counted_builder(monkeypatch, "ghz")
    path = write_state(tmp_path, {"catalog": {"name": "ghz", "params": [0.6, 0.8]}})
    code, out, _ = run_cli(["classify", path, "--tangle"], capsys)
    assert code == 0
    assert json.loads(out)["tangle"] == pytest.approx(4 * 0.36 * 0.64, abs=1e-12)
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["classify", "{path}"],
    ["scan", "ghz", "--grid", "alpha=0.6", "--grid", "beta=0.8"],
], ids=["classify", "scan"])
def test_solver_failure_names_its_cut_on_every_command(tmp_path, capsys, monkeypatch, argv):
    # a pure input needs no validation solve, so the second solve is cut B's
    path = write_state(tmp_path, {"pure": {"amplitudes": [0.6, 0, 0, 0, 0, 0, 0, 0.8]}})
    linalg, calls = importlib.import_module("spapt.linalg"), []
    real = linalg._jacobi_eigvalsh

    def wrong_second_spectrum(m):
        calls.append(m)
        return real(m) + (1.0 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(linalg, "_jacobi_eigvalsh", wrong_second_spectrum)
    code, out, err = run_cli([a.format(path=path) for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("numerical failure: cut B: eigenvalue sweeps left trace residuals")
