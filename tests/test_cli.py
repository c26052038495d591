"""End-to-end runs of every ``rog`` subcommand through ``cli.run``.

Each test writes small fixed inputs under ``tmp_path``, runs one
subcommand, and checks its exit code and the JSON it writes.
"""

import json

import numpy as np
import pytest

import rogcones as rc
from rogcones import cli, jsonio, symlin

from conftest import random_congruence, raw_four_cycle_cone


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
    # a complex cone; the file holds one line of compact JSON
    cone = rc.direct_sum(rc.block_toeplitz_cone(2, 1), rc.block_toeplitz_cone(2, 2))
    expr = _write(tmp_path, "expr.json", jsonio.expr_to_json(cone.expr))
    code, report = _run(tmp_path, "build", "--expr", expr)
    assert code == 0
    assert report["complex"] is True
    assert report == jsonio.cone_to_json(cone)
    assert (tmp_path / "report.json").read_text().count("\n") == 1


def test_cli_build_reduce_over_a_degenerate_complex_raw_cone(tmp_path):
    gens = np.array([[1, 1j, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    raw = rc.make_cone(3, [symlin.outer(g) for g in gens], gens)
    expr = _write(tmp_path, "expr.json", {"kind": "reduce", "params": {}, "children": [
        {"kind": "raw", "params": {"cone": jsonio.cone_to_json(raw)}}]})
    code, report = _run(tmp_path, "build", "--expr", expr)
    assert code == 0
    back, reduced = jsonio.cone_from_json(report), rc.reduce_nondegenerate(raw)[0]
    assert back.n == reduced.n == 2 and back.complex_field

    def projector(cone):
        rows = symlin._vec_stack(cone.span_basis)
        return rows.T @ rows
    assert np.abs(projector(back) - projector(reduced)).max() <= 1e-10
    overlaps = np.abs(back.generators @ reduced.generators.conj().T)
    assert overlaps.shape == (4, 4)
    assert np.all(overlaps.max(axis=0) > 1 - 1e-8) and np.all(overlaps.max(axis=1) > 1 - 1e-8)


@pytest.mark.parametrize("expr, message", [
    ([{"kind": "full_psd"}], "a cone expression must be a JSON object"),
    ({"kind": "full_psd", "params": {}}, "full_psd expression is missing parameter 'n'"),
    ({"kind": "full_ext", "params": {}, "children": [{"kind": "full_psd", "params": {"n": 2}}]},
     "full_ext expression is missing parameter 'n'"),
    ({"kind": "hankel", "params": [3]}, "hankel params must be an object"),
], ids=["array", "missing-leaf-param", "missing-combinator-param", "params-array"])
def test_cli_build_rejects_malformed_expressions(tmp_path, capsys, expr, message):
    # domain errors: exit 1 with one error line, no traceback
    assert cli.run(["build", "--expr", _write(tmp_path, "expr.json", expr)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_INTERTWINE_S2 = {"kind": "intertwine", "params": {"rank": 1, "iota1": [1.0, 0.0],
                                                  "iota2": [[1.0], [0.0]]},
                  "children": [{"kind": "full_psd", "params": {"n": 2}}] * 2}


@pytest.mark.parametrize("command, data", [
    ("complete", {"shape": [2, 2, 2], "entries": []}),
    ("complete", {"shape": [2, 2], "entries": [{"i": "a", "j": 0, "v": 1.0}]}),
    ("qcqp", {"S": np.eye(2).tolist(), "B": np.eye(2).tolist(), "A": 3}),
    ("analyze", {"n": "x", "span_basis": [[1, 0, 0]], "generators": []}),
    ("analyze", {"n": 2, "span_basis": [[1, 0, 0]], "generators": [[1, 0, 0]]}),
    ("build", {"kind": "full_psd", "params": {"n": "x"}}),
    ("build", {"kind": "chordal", "params": {"n": 3, "edges": [[0]]}}),
    ("build", {"kind": "direct_sum", "params": {}, "children": 3}),
    ("build", _INTERTWINE_S2),
    ("build", {"kind": "hankel", "params": {"n": 2.5}}),
    ("pencil", [1, 2]),
    ("build", {"kind": "raw", "params": [1]}),
    ("build", {"kind": "cross_ratio", "params": {"angles": "abcd"}}),
    ("build", {"kind": "moment", "params": {"samples": 3, "powers": [[2]]}}),
], ids=["complete-shape", "complete-index", "qcqp-forms", "analyze-n", "analyze-generator",
        "build-n", "build-edge", "build-children", "build-iota", "build-float-n",
        "pencil-array", "build-raw-params", "build-angles", "build-samples"])
def test_cli_rejects_malformed_json(tmp_path, capsys, command, data):
    # the readers check what they read: one error line, no traceback
    path = _write(tmp_path, "in.json", data)
    argv = ["build", "--expr", path] if command == "build" else [command, path]
    assert cli.run(argv) in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_analyze_checks_raw_generators(tmp_path, capsys):
    cone = _write(tmp_path, "raw.json",
                  {"n": 2, "span_basis": [[1, 0, 0]], "generators": [[1, 1]]})
    assert cli.run(["analyze", cone]) == 1
    assert capsys.readouterr().err == "error: generator outer product is not in the span\n"


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


def test_cli_leaves_numpy_print_options_alone(tmp_path):
    # reports go through tolist() and json; a caller in the same process
    # keeps the print options it set
    cone = _cone_path(tmp_path, rc.hankel_cone(3))
    problem = _write(tmp_path, "p.json", {"S": np.diag([1.0, 2.0]).tolist(),
                                          "B": np.eye(2).tolist(), "A": []})
    before = np.get_printoptions()
    for argv in (["analyze", cone], ["qcqp", problem, "--gap-samples", "10"]):
        assert _run(tmp_path, *argv)[0] == 0
        assert np.get_printoptions() == before


def test_cli_decompose(tmp_path):
    cone = rc.tridiagonal_cone(3)
    x_mat = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    path = _cone_path(tmp_path, cone)
    matrix = _write(tmp_path, "x.json", {"matrix": x_mat.tolist()})
    code, report = _run(tmp_path, "decompose", path, matrix)
    assert code == 0
    atoms = [(a["weight"], np.array(a["vector"])) for a in report["atoms"]]
    assert len(atoms) == 3
    assert np.allclose(sum(w * np.outer(v, v) for w, v in atoms), x_mat, atol=1e-10)
    assert report["residual"] <= 1e-10
    for weight, vector in atoms:
        assert weight > 0
        assert symlin.span_distance(cone.span_basis, symlin.outer(vector)) < 1e-10


def test_cli_decompose_reads_only_the_matrix_key(tmp_path, capsys):
    path = _cone_path(tmp_path, rc.tridiagonal_cone(3))
    matrix = _write(tmp_path, "x.json", {"X": np.eye(3).tolist()})
    assert cli.run(["decompose", path, matrix]) == 1
    assert capsys.readouterr().err == "error: no matrix found in input\n"


def test_cli_decompose_rejects_a_non_member(tmp_path, capsys):
    s2 = rc.full_psd_cone(2)
    arrow = rc.intertwine(s2, s2, rc.rank1_glue(s2, [0, 1], s2, [1, 0]))
    x_mat = np.eye(3)
    x_mat[0, 2] = x_mat[2, 0] = 0.5  # PSD, with a corner off the span
    matrix = _write(tmp_path, "x.json", {"matrix": x_mat.tolist()})
    assert cli.run(["decompose", _cone_path(tmp_path, arrow), matrix]) == 1
    assert capsys.readouterr().err == "error: matrix is not a member of the cone\n"


def test_cli_iso(tmp_path):
    k1 = rc.tridiagonal_cone(3)
    a = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.4, 0.0, 1.5]])
    k2 = rc.apply_congruence(k1, a, keep_expr=False)
    code, report = _run(tmp_path, "iso", _cone_path(tmp_path, k1, "k1.json"),
                        _cone_path(tmp_path, k2, "k2.json"))
    assert code == 0
    assert report["status"] == "isomorphic"
    s_mat = np.array(report["witness"]["S"])
    for m in k1.span_basis:
        img = s_mat @ m @ s_mat.T
        assert symlin.span_distance(k2.span_basis, img) < 1e-6 * (1 + np.linalg.norm(img))
    code, report = _run(tmp_path, "iso", _cone_path(tmp_path, rc.hankel_cone(3), "k3.json"),
                        _cone_path(tmp_path, k1, "k1.json"))
    assert code == 0
    assert report["status"] == "not_isomorphic" and "signature" in report["reason"]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
def test_cli_tol_must_be_finite_and_positive(tmp_path, capsys, value):
    path = _cone_path(tmp_path, rc.full_psd_cone(2))
    assert cli.run(["--tol", value, "decompose", path, path]) == 2
    assert "argument --tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "1.5", "x"])
def test_cli_gap_samples_must_be_a_count(tmp_path, capsys, value):
    problem = _write(tmp_path, "p.json", {"S": np.eye(2).tolist(), "B": np.eye(2).tolist()})
    assert cli.run(["qcqp", problem, "--gap-samples", value]) == 2
    assert "argument --gap-samples" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "1.5", "x"])
def test_cli_seed_must_be_a_count(tmp_path, capsys, value):
    # the 4-cycle gap problem reaches the sampler, which seeds default_rng
    forms = []
    for i, j in ((0, 2), (1, 3)):
        a = np.zeros((4, 4))
        a[i, j] = a[j, i] = 1.0
        forms.append(a.tolist())
    s = [[1.5791, 0.733, 0.1551, -0.5412], [0.733, 0.2194, 0.5624, 1.3786],
         [0.1551, 0.5624, 0.1832, 0.2496], [-0.5412, 1.3786, 0.2496, -0.1795]]
    problem = _write(tmp_path, "p.json", {"S": s, "B": np.eye(4).tolist(), "A": forms})
    assert cli.run(["--seed", value, "qcqp", problem, "--gap-samples", "10"]) == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "Traceback" not in err


def test_cli_iso_ignores_the_seed(tmp_path):
    # a shuffled congruent copy of Han4 reaches the matching search
    rng = np.random.default_rng(4)
    k1 = rc.hankel_cone(4)
    moved = rc.apply_congruence(k1, random_congruence(rng, 4), keep_expr=False)
    k2 = rc.make_cone(4, moved.span_basis, moved.generators[rng.permutation(8)], check=False)
    paths = _cone_path(tmp_path, k1, "k1.json"), _cone_path(tmp_path, k2, "k2.json")
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"iso{seed}.json"
        assert cli.run(["--seed", seed, "iso", *paths, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["status"] == "isomorphic"


def test_cli_classify(tmp_path):
    # the raw 4-cycle has the degree and dimension of Codim2FullExt, but its
    # forms do not split: it gets no ROG label
    for cone, label in ((rc.tridiagonal_cone(4), {"tag": "Tri", "n": 4}),
                        (raw_four_cycle_cone(), {"tag": "Unknown", "n": 4})):
        code, report = _run(tmp_path, "classify", _cone_path(tmp_path, cone))
        assert code == 0
        assert report == label


def test_cli_qcqp(tmp_path):
    problem = _write(tmp_path, "p.json", {"S": np.diag([1.0, 2.0]).tolist(),
                                          "B": np.eye(2).tolist(), "A": []})
    code, report = _run(tmp_path, "qcqp", problem, "--gap-samples", "10")
    assert code == 0
    assert report["status"] == "exact-with-solution"
    assert abs(report["relaxed_value"] - 1.0) < 1e-6
    assert abs(report["extracted_value"] - 1.0) < 1e-6
    # no constraint form: the relaxation is an eigenvalue problem, solved in
    # closed form
    assert report["iterations"] == 0
    assert 0.0 <= report["duality_gap"] <= 1e-8 * (1.0 + abs(report["relaxed_value"]))
    x_opt = np.array(report["x_opt"])
    assert abs(abs(x_opt[0]) - 1.0) < 1e-4 and abs(x_opt[1]) < 1e-4
    # one indefinite form: the S-lemma search, in closed form too; its
    # optimum x = (1, 1, 0) / sqrt(2) sits at a kink of lambda_min(S - w A)
    problem = _write(tmp_path, "p1.json", {"S": np.diag([1.0, 2.0, 3.0]).tolist(),
                                           "B": np.eye(3).tolist(),
                                           "A": [np.diag([1.0, -1.0, 0.0]).tolist()]})
    code, report = _run(tmp_path, "qcqp", problem, "--gap-samples", "10")
    assert code == 0
    assert report["status"] == "exact-with-solution"
    assert abs(report["relaxed_value"] - 1.5) < 1e-6
    assert report["iterations"] == 0
    assert 0.0 <= report["duality_gap"] <= 1e-8 * (1.0 + abs(report["relaxed_value"]))
    # the 4-cycle pattern X_02 = X_13 = 0 is not chordal: the interior-point
    # method runs.  <S, X> >= tr X = 1 with equality only at X = e0 e0^T,
    # which the pattern allows, so the relaxation is exact with value 1
    forms = []
    for i, j in ((0, 2), (1, 3)):
        a = np.zeros((4, 4))
        a[i, j] = a[j, i] = 1.0
        forms.append(a.tolist())
    problem = _write(tmp_path, "p2.json", {"S": np.diag([1.0, 2.0, 3.0, 4.0]).tolist(),
                                           "B": np.eye(4).tolist(), "A": forms})
    code, report = _run(tmp_path, "qcqp", problem, "--gap-samples", "10")
    assert code == 0
    assert report["status"] == "exact-with-solution"
    assert abs(report["relaxed_value"] - 1.0) < 1e-6
    assert report["iterations"] >= 1
    assert 0.0 <= report["duality_gap"] <= 1e-8 * (1.0 + abs(report["relaxed_value"]))
    x_opt = np.array(report["x_opt"])
    assert abs(abs(x_opt[0]) - 1.0) < 1e-4 and np.abs(x_opt[1:]).max() < 1e-4


@pytest.mark.parametrize("s_mat", [[[1.0, 0.0], [0.0]], [["one", 0.0], [0.0, 1.0]]],
                         ids=["ragged", "non-numeric"])
def test_cli_qcqp_malformed_matrix(tmp_path, capsys, s_mat):
    problem = _write(tmp_path, "p.json", {"S": s_mat, "B": np.eye(2).tolist()})
    assert cli.run(["qcqp", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_cli_pencil_ignores_the_seed(tmp_path):
    rng = np.random.default_rng(5)
    t = random_congruence(rng, 4)
    q1 = t.T @ np.diag([1.0, 2.0, -1.0, 0.0]) @ t
    q2 = t.T @ np.diag([0.5, -1.0, 3.0, 0.0]) @ t
    pencil = _write(tmp_path, "pencil.json", {"Q1": q1.tolist(), "Q2": q2.tolist()})
    reports = []
    for seed in ("0", "7"):
        out = tmp_path / f"pencil{seed}.json"
        assert cli.run(["--seed", seed, "pencil", pencil, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert len(json.loads(reports[0])["blocks"]) == 3
