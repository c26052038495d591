"""Cold start of ``rog``: what a fresh interpreter loads, and the exit
codes of ``python -m rogcones.cli``.

Every check runs in a new interpreter (``subprocess.run`` with a timeout),
since the modules an import pulls in only show in a process that has not
loaded them yet.  ``import rogcones`` and the ``build``, ``analyze``,
``qcqp``, ``decompose`` and ``pencil`` subcommands must not load any
``scipy`` module: not when ``qcqp`` reaches the rank-1 sampler or takes a
closed form (a chordal coordinate pattern, one indefinite form), nor when
``decompose`` takes the block-Toeplitz route, nor in ``pencil``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import rogcones as rc
from rogcones import jsonio
from rogcones.symlin import to_json_array

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rc.__file__)))
HEAVY = ("scipy", "networkx", "sympy", "hypothesis")

CHILD = """
import json, sys
import rogcones
from rogcones import cli

HEAVY = {heavy!r}

def loaded():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))

report = {{"after_import": loaded()}}
report["codes"] = [
    cli.run(["build", "--expr", {expr!r}, "--out", {cone!r}]),
    cli.run(["analyze", {cone!r}, "--out", {analysis!r}]),
    cli.run(["qcqp", {problem!r}, "--gap-samples", "10", "--out", {solution!r}]),
    cli.run(["qcqp", {cycle!r}, "--gap-samples", "100", "--out", {cycle_solution!r}]),
    cli.run(["qcqp", {path!r}, "--gap-samples", "10", "--out", {path_solution!r}]),
    cli.run(["qcqp", {one_form!r}, "--gap-samples", "10", "--out", {one_form_solution!r}]),
    cli.run(["decompose", {toeplitz!r}, {toeplitz_member!r}, "--out", {toeplitz_atoms!r}]),
    cli.run(["pencil", {pencil!r}, "--out", {pencil_blocks!r}]),
]
report["after_cli"] = loaded()
report["scipy_linalg_loaded"] = "scipy.linalg" in sys.modules
print(json.dumps(report))
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _python(*args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=120)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _problem(tmp_path, name, s_mat):
    return _write(tmp_path, name, {"S": s_mat, "B": np.eye(2).tolist(), "A": []})


FOUR_CYCLE_S = [[1.5791, 0.733, 0.1551, -0.5412],
                [0.733, 0.2194, 0.5624, 1.3786],
                [0.1551, 0.5624, 0.1832, 0.2496],
                [-0.5412, 1.3786, 0.2496, -0.1795]]


def _pattern(pairs):
    """x_i x_j = 0 for each pair, with the cost of the 4-cycle problem."""
    forms = []
    for i, j in pairs:
        a = np.zeros((4, 4))
        a[i, j] = a[j, i] = 1.0
        forms.append(a.tolist())
    return {"S": FOUR_CYCLE_S, "B": np.eye(4).tolist(), "A": forms}


def _four_cycle():
    """The 4-cycle problem of ``test_qcqp.test_certify_four_cycle_gap``."""
    return _pattern([(0, 2), (1, 3)])


def test_cold_start_keeps_heavy_modules_off_the_cli_path(tmp_path):
    cone = rc.direct_sum(rc.hankel_cone(3), rc.diagonal_cone(1))
    # a rank-2 member of the 3 x 3 Toeplitz cone: w w^* with w = (1, q, q^2)
    t_mat = sum(np.outer(w, w.conj()) for w in
                (q ** np.arange(3) for q in (np.exp(0.4j), np.exp(2.1j))))
    script = CHILD.format(
        heavy=HEAVY,
        expr=_write(tmp_path, "expr.json", jsonio.expr_to_json(cone.expr)),
        cone=str(tmp_path / "cone.json"),
        analysis=str(tmp_path / "analysis.json"),
        problem=_problem(tmp_path, "p.json", np.diag([1.0, 2.0]).tolist()),
        solution=str(tmp_path / "solution.json"),
        cycle=_write(tmp_path, "cycle.json", _four_cycle()),
        cycle_solution=str(tmp_path / "cycle_solution.json"),
        # the path 0 - 1 - 2 - 3 is chordal
        path=_write(tmp_path, "path.json", _pattern([(0, 2), (0, 3), (1, 3)])),
        path_solution=str(tmp_path / "path_solution.json"),
        one_form=_write(tmp_path, "one_form.json", {
            "S": FOUR_CYCLE_S, "B": np.eye(4).tolist(),
            "A": [np.diag([1.0, -2.0, 0.5, -0.5]).tolist()]}),
        one_form_solution=str(tmp_path / "one_form_solution.json"),
        toeplitz=_write(tmp_path, "toeplitz.json",
                        jsonio.cone_to_json(rc.block_toeplitz_cone(3, 1))),
        toeplitz_member=_write(tmp_path, "toeplitz_member.json", to_json_array(t_mat)),
        toeplitz_atoms=str(tmp_path / "toeplitz_atoms.json"),
        pencil=_write(tmp_path, "pencil.json", {"Q1": np.diag([1.0, 0.0, 2.0]).tolist(),
                                                "Q2": np.diag([0.0, 1.0, 1.0]).tolist()}),
        pencil_blocks=str(tmp_path / "pencil_blocks.json"))
    proc = _python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["codes"] == [0, 0, 0, 0, 0, 0, 0, 0]
    assert report["after_cli"] == []
    assert json.loads((tmp_path / "analysis.json").read_text())["degree"] == 4
    assert json.loads((tmp_path / "solution.json").read_text())["status"] \
        == "exact-with-solution"
    # the 4-cycle relaxation is not exact: purification stalls at rank 2
    # and the sampler runs
    assert json.loads((tmp_path / "cycle_solution.json").read_text())["status"] \
        == "gap-detected"
    # the chordal pattern and the one form take their closed forms
    for name in ("path_solution.json", "one_form_solution.json"):
        solution = json.loads((tmp_path / name).read_text())
        assert solution["status"] == "exact-with-solution"
        assert solution["iterations"] == 0
    # the block-Toeplitz route and the pencil run on numpy alone
    dec = json.loads((tmp_path / "toeplitz_atoms.json").read_text())
    assert len(dec["atoms"]) == 2
    assert dec["residual"] < 1e-10
    pen = json.loads((tmp_path / "pencil_blocks.json").read_text())
    assert len(pen["blocks"]) == 3  # angles 0, pi/2 and atan(1/2)
    assert report["scipy_linalg_loaded"] is False


def test_no_module_of_the_package_imports_scipy():
    # rog runs on numpy alone; the tests keep scipy as an independent oracle
    for path in sorted(pathlib.Path(rc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in names), \
                f"{path.name}:{node.lineno} imports scipy"


def test_module_main_exit_codes(tmp_path):
    good = _problem(tmp_path, "good.json", [[1.0, 0.3], [0.3, 2.0]])
    proc = _python("-m", "rogcones.cli", "qcqp", good, "--gap-samples", "10", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "exact-with-solution"
    # json reads Infinity; the matrix check rejects it before any solve
    bad = tmp_path / "bad.json"
    bad.write_text('{"S": [[1, 0], [0, Infinity]], "B": [[1, 0], [0, 1]]}')
    proc = _python("-m", "rogcones.cli", "qcqp", str(bad), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: matrix has non-finite entries\n"
    proc = _python("-m", "rogcones.cli", "qcqp", str(tmp_path / "missing.json"),
                   cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
