"""End-to-end runs of every ``rog`` subcommand through ``cli.run``.

Each test writes small fixed inputs under ``tmp_path``, runs one
subcommand, and checks its exit code and the JSON it writes.
"""

import json

import numpy as np

import rogcones as rc
from rogcones import cli, jsonio, symlin


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _run(tmp_path, *argv):
    """Exit code and parsed report of ``rog *argv --out <file>``."""
    out = tmp_path / "report.json"
    code = cli.run([*argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def _cone_path(tmp_path, cone, name="cone.json"):
    return _write(tmp_path, name, jsonio.cone_to_json(cone))


def test_cli_build(tmp_path):
    cone = rc.direct_sum(rc.hankel_cone(3), rc.diagonal_cone(1))
    expr = _write(tmp_path, "expr.json", jsonio.expr_to_json(cone.expr))
    code, report = _run(tmp_path, "build", "--expr", expr)
    assert code == 0
    assert report["n"] == 4
    assert len(report["span_basis"]) == cone.dim == 6
    assert report["expr"]["kind"] == "direct_sum"
    assert report == jsonio.cone_to_json(cone)


def test_cli_analyze(tmp_path):
    path = _cone_path(tmp_path, rc.direct_sum(rc.tridiagonal_cone(3), rc.diagonal_cone(2)))
    code, report = _run(tmp_path, "analyze", path)
    assert code == 0
    assert report == {"n": 5, "dim": 7, "degree": 5, "certificate_complete": True,
                      "simple": False, "factor_dims": [3, 1, 1],
                      "isolated_rays": report["isolated_rays"]}
    assert len(report["isolated_rays"]) == 2


def test_cli_analyze_honours_tol(tmp_path):
    # the certificate e1, e2, (e1 + e2)/sqrt(2) sums to a matrix with
    # eigenvalues 2 and 1, so a cut of 0.6 * 2 drops the smaller one
    path = _cone_path(tmp_path, rc.full_psd_cone(2))
    code, report = _run(tmp_path, "analyze", path)
    assert code == 0
    assert report["degree"] == 2 and report["simple"] is True
    code, report = _run(tmp_path, "--tol", "0.6", "analyze", path)
    assert code == 0
    assert report["degree"] == 1
    assert "simple" not in report


def test_cli_parser_reused_across_runs(tmp_path):
    # the parser is built once per process; a --tol given to one run must
    # not leak into the next, whose report matches a fresh parser's
    path = _cone_path(tmp_path, rc.full_psd_cone(2))
    out = tmp_path / "report.json"
    cli.make_parser.cache_clear()
    assert cli.run(["analyze", path, "--out", str(out)]) == 0
    first = out.read_bytes()
    assert cli.run(["--tol", "0.6", "analyze", path, "--out", str(out)]) == 0
    assert out.read_bytes() != first
    assert cli.run(["analyze", path, "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert cli.make_parser.cache_info().misses == 1


def test_cli_decompose(tmp_path):
    cone = rc.tridiagonal_cone(3)
    x_mat = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    path = _cone_path(tmp_path, cone)
    matrix = _write(tmp_path, "x.json", {"matrix": x_mat.tolist()})
    code, report = _run(tmp_path, "decompose", path, matrix)
    assert code == 0
    dec = jsonio.decomposition_from_json(report)
    assert len(dec.atoms) == 3
    assert np.allclose(dec.reconstruct(3), x_mat, atol=1e-10)
    assert dec.residual <= 1e-10
    for atom in dec.atoms:
        assert atom.weight > 0
        assert symlin.span_distance(cone.span_basis, symlin.outer(atom.vector)) < 1e-10


def test_cli_iso(tmp_path):
    k1 = rc.tridiagonal_cone(3)
    a = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.5]])
    k2 = rc.apply_congruence(k1, a, keep_expr=False)
    code, report = _run(tmp_path, "iso", _cone_path(tmp_path, k1, "k1.json"),
                        _cone_path(tmp_path, k2, "k2.json"))
    assert code == 0
    assert report["status"] == "isomorphic"
    s_mat = jsonio.matrix_from_json(report["witness"]["S"])
    for m in k1.span_basis:
        img = s_mat @ m @ s_mat.T
        assert symlin.span_distance(k2.span_basis, img) < 1e-6 * (1 + np.linalg.norm(img))
    code, report = _run(tmp_path, "iso", _cone_path(tmp_path, rc.hankel_cone(3), "k3.json"),
                        _cone_path(tmp_path, k1, "k1.json"))
    assert code == 0
    assert report["status"] == "not_isomorphic" and "signature" in report["reason"]


def test_cli_classify(tmp_path):
    code, report = _run(tmp_path, "classify", _cone_path(tmp_path, rc.tridiagonal_cone(4)))
    assert code == 0
    assert report == {"tag": "Tri", "n": 4}


def test_cli_qcqp(tmp_path):
    problem = _write(tmp_path, "p.json", {"S": np.diag([1.0, 2.0]).tolist(),
                                          "B": np.eye(2).tolist(), "A": []})
    code, report = _run(tmp_path, "qcqp", problem, "--gap-samples", "10")
    assert code == 0
    assert report["status"] == "exact-with-solution"
    assert abs(report["relaxed_value"] - 1.0) < 1e-6
    assert abs(report["extracted_value"] - 1.0) < 1e-6
    assert report["iterations"] >= 1
    assert 0.0 <= report["duality_gap"] <= 1e-8 * (1.0 + abs(report["relaxed_value"]))
    x_opt = np.array(report["x_opt"])
    assert abs(abs(x_opt[0]) - 1.0) < 1e-4 and abs(x_opt[1]) < 1e-4


def test_cli_complete(tmp_path):
    feasible = _write(tmp_path, "pm.json", {"shape": [2, 2], "entries": [
        {"i": 0, "j": 0, "v": 1.0}, {"i": 0, "j": 1, "v": 2.0}, {"i": 1, "j": 0, "v": 3.0}]})
    code, report = _run(tmp_path, "complete", feasible)
    assert code == 0
    assert report["feasible"] is True
    assert np.allclose(report["completion"], [[1.0, 2.0], [3.0, 6.0]])
    infeasible = _write(tmp_path, "bad.json", {"shape": [2, 2], "entries": [
        {"i": 0, "j": 0, "v": 1.0}, {"i": 0, "j": 1, "v": 2.0},
        {"i": 1, "j": 0, "v": 3.0}, {"i": 1, "j": 1, "v": 4.0}]})
    code, report = _run(tmp_path, "complete", infeasible)
    assert code == 1
    assert report["feasible"] is False
    assert report["violation"] == "cycle"
    assert len(report["cycle"]) == 4


def test_cli_pencil(tmp_path):
    pencil = _write(tmp_path, "pencil.json", {"Q1": np.diag([1.0, 0.0]).tolist(),
                                              "Q2": np.diag([0.0, 1.0]).tolist()})
    code, report = _run(tmp_path, "pencil", pencil)
    assert code == 0
    assert np.array(report["kernel"]).size == 0
    assert np.allclose([blk["angle"] for blk in report["blocks"]], [0.0, np.pi / 2])
    for blk in report["blocks"]:
        assert np.array(blk["basis"]).shape == (2, 1)
        assert np.array(blk["form"]).shape == (1, 1)
