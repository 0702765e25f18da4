"""Self-tests of the benchmark: span arithmetic, oracle, corpus, counts.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import oracle
import tracer
import worker
import workloads


def _span(name, start, end, parent, op=0, n=0, error=False):
    return (name, start, end, parent, op, n, error)


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.self", 0.0, 10.0, -1),
        _span("cli.report", 1.0, 7.0, 0),
        _span("linalg.eigvalsh", 2.0, 3.0, 1, n=8),
        _span("linalg.eigvalsh", 4.0, 6.5, 1, n=64, error=True),
        _span("states.parse", 8.0, 9.0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0])
    m = tracer.layer_metrics(spans, ops=2, op_wall_s=20.0)
    assert m["linalg.eigvalsh.calls_per_op"] == 1.0
    assert m["linalg.eigvalsh.calls_per_op.n8"] == 0.5
    assert m["linalg.eigvalsh.calls_per_op.n64"] == 0.5
    assert m["linalg.eigvalsh.self_ms_per_op"] == pytest.approx(1750.0)
    assert m["linalg.eigvalsh.errors"] == 1
    assert m["cli.self.share"] == pytest.approx(3.0 / 20.0)
    assert m["process.import.calls_per_op"] == 0.0
    shares = sum(v for k, v in m.items() if k.endswith(".share"))
    assert shares == pytest.approx(10.0 / 20.0)


def _classify(tmp_path, doc, *flags):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return worker.run_op({"argv": ["classify", str(path), *flags]})


def test_oracle_catches_wrong_verdict(tmp_path):
    doc = {"catalog": {"name": "ghz-w", "params": [0.3]}}
    expected = oracle.expect_classify(doc, False)
    r = _classify(tmp_path, doc)
    assert oracle.check_classify(expected, r["rc"], r["out"], r["err"]) is None
    report = json.loads(r["out"])
    report["verdict"]["kind"] = "fully-separable"
    assert oracle.check_classify(expected, 0, json.dumps(report), "") is not None
    report = json.loads(r["out"])
    report["spa_min"]["B"] += 1e-6
    assert oracle.check_classify(expected, 0, json.dumps(report), "") is not None
    assert oracle.check_classify(expected, 0, r["out"][:-20], "") is not None
    del report["spa_min"]["C"]
    assert oracle.check_classify(expected, 0, json.dumps(report), "") is not None


def test_oracle_catches_truncated_csv():
    wl = workloads.scan_grid(seed=3)
    r = worker.run_op(wl.ops[1])
    assert wl.checks[1](r) == [None] * workloads.GHZW_POINTS
    lines = r["out"].split("\n")
    truncated = dict(r, out="\n".join(lines[:-3]) + "\n")
    assert all(wl.checks[1](truncated))
    wrong = dict(r, out=r["out"].replace("genuine-entangled", "fully-separable", 1))
    assert sum(x is not None for x in wl.checks[1](wrong)) == 1


def test_invalid_documents_are_rejected_cleanly(tmp_path):
    rng = np.random.default_rng(0)
    for kind in workloads.INVALID_KINDS:
        r = _classify(tmp_path, workloads.make_doc(rng, kind))
        assert oracle.check_invalid(r["rc"], r["out"], r["err"]) is None, kind
    ok = _classify(tmp_path, {"catalog": {"name": "g2"}})
    assert oracle.check_invalid(ok["rc"], ok["out"], ok["err"]) is not None


def _corpus(seed, path):
    path.mkdir()
    wl = workloads.classify_docs(seed, str(path), n=42)
    return wl, {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_same_seed_gives_identical_corpus_and_another_seed_differs(tmp_path):
    wl_a, files_a = _corpus(11, tmp_path / "a")
    wl_b, files_b = _corpus(11, tmp_path / "b")
    _, files_c = _corpus(12, tmp_path / "c")
    assert files_a == files_b
    assert len(files_a) == 42
    assert files_a.keys() == files_c.keys()
    assert all(files_a[k] != files_c[k] for k in files_a)
    assert workloads.scan_grid(11).ops == workloads.scan_grid(11).ops != workloads.scan_grid(12).ops
    kinds = wl_a.kinds
    assert kinds.count("dense") == kinds.count("catalog") == 8
    assert sum(k in workloads.INVALID_KINDS for k in kinds) == 2


def test_whole_corpus_passes_the_oracle(tmp_path):
    wl = workloads.classify_docs(5, str(tmp_path), n=42)
    for i, op in enumerate(wl.ops):
        assert wl.checks[i](worker.run_op(op)) == [None], wl.kinds[i]


def _counts(ops):
    t = tracer.Tracer()
    wrapped = t.install()
    try:
        for i, op in enumerate(ops):
            t.op = i
            worker.run_op(op)
    finally:
        t.uninstall()
    return t.spans, wrapped


def _calls(spans, layer):
    return sum(1 for s in spans if s[0] == layer)


@pytest.mark.parametrize("doc, eigvalsh", [
    ({"matrix": {"re": (np.eye(8) / 8).tolist()}}, 8),
    ({"pure": {"amplitudes": [[0.5, 0.0], 0, 0, [0.0, 0.5], 0, 0.5, 0, 0.5]}}, 6),
    ({"catalog": {"name": "ghz-w", "params": [0.4]}}, 7),
    ({"mix": {"parts": [
        {"weight": 0.5, "state": {"pure": {"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}}},
        {"weight": 0.5, "state": {"catalog": {"name": "rho1", "params": [0.3]}}},
    ]}}, 8),
])
def test_call_counts_match_the_baseline_table(tmp_path, doc, eigvalsh):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    spans, _ = _counts([{"argv": ["classify", str(path)]}])
    assert _calls(spans, "linalg.eigvalsh") == eigvalsh
    assert _calls(spans, "ptranspose.partial_transpose") == 6
    assert _calls(spans, "cli.self") == _calls(spans, "cli.report") == 1


def test_scan_row_of_a_mixed_family_counts():
    spans, _ = _counts([{"argv": ["scan", "ghz-w", "--grid", "q=0.1,0.2,0.3"]}])
    assert _calls(spans, "linalg.eigvalsh") == 4 * 3
    assert _calls(spans, "ptranspose.partial_transpose") == 3 * 3


def test_counts_repeat_exactly_and_tracer_restores_the_package(tmp_path):
    import spapt
    import spapt.cli
    import spapt.linalg
    import spapt.states

    def bindings():
        return (spapt.cli.main, spapt.linalg.hermitian_eigenvalues, spapt.cli.hermitian_eigenvalues,
                spapt.hermitian_eigenvalues, spapt.states.to_density, spapt.to_density)

    originals = bindings()
    wl = workloads.classify_docs(7, str(tmp_path), n=21)
    runs = []
    for _ in range(2):
        spans, wrapped = _counts(wl.ops)
        runs.append({k: v for k, v in tracer.layer_metrics(spans, len(wl.ops), 1.0).items()
                     if k.endswith("calls_per_op") or ".calls_per_op." in k or k.endswith("errors")})
    assert runs[0] == runs[1]
    assert runs[0]["linalg.eigvalsh.calls_per_op"] > 6
    assert runs[0]["states.parse.errors"] == 1  # the block's one invalid document
    assert "spapt.spa.min_choi_psd_parameter" in wrapped
    assert bindings() == originals
    t = tracer.Tracer()
    t.install()
    try:
        assert all(now is not before for now, before in zip(bindings(), originals))
    finally:
        t.uninstall()
    assert bindings() == originals


def test_tracer_skips_functions_the_package_lacks(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "gone.layer", [("spapt.kernels_removed", "solve"),
                                                       ("spapt.linalg", "no_such_function")])
    t = tracer.Tracer()
    wrapped = t.install()
    t.uninstall()
    assert not any("removed" in w or "no_such" in w for w in wrapped)
    assert "spapt.linalg.hermitian_eigenvalues" in wrapped


def test_weights_pass_the_oracle():
    wl = workloads.channel_weights(seed=1)
    r = worker.run_op(wl.ops[0])
    assert wl.checks[0](r) == [None]
    assert oracle.check_weights({q: [0.8, 0.9] for q in "ABC"}) is not None
