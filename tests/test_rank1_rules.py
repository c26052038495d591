"""One rank-1 rule per cone kind, and the checks that lean on it.

Peeling a member and certifying a face ask a kind the same question:
which x in a subspace H have x x^T in the span?  ``Family.rays`` answers
it once, so the extreme-ray oracle's candidates are the face rays, in the
same order.
"""

import ast
import importlib
import inspect
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import symlin
from rogcones.decompose import extreme_ray_oracle, rays_spanning_face

from conftest import atom_columns, random_congruence, rank_r_member

_CODIM = rc.codim1_cone(np.diag([1.0, 2.0, 1.5, -1.0, -0.5]))
RULE_CONES = {
    "full_psd": rc.full_psd_cone(4),
    "diagonal": rc.diagonal_cone(5),
    "codim1": _CODIM,
    "cross_ratio": rc.cross_ratio_cone([0.1, 0.7, 1.5, 2.4]),
    "transform": rc.apply_congruence(_CODIM, random_congruence(np.random.default_rng(4), 5)),
}


def _range(x_mat):
    dec = symlin.eig_sym(x_mat)
    return dec.vectors[:, dec.values > symlin.cut(dec.values, 1e-8)]


@pytest.mark.parametrize("name", sorted(RULE_CONES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_takes_the_face_rays_in_order(name, seed):
    cone = RULE_CONES[name]
    rng = np.random.default_rng(seed)
    h = _range(rank_r_member(cone, rng, int(rng.integers(1, cone.n))))
    rays = rays_spanning_face(cone, h)
    assert rays
    for attempt, ray in enumerate(rays):
        assert np.array_equal(extreme_ray_oracle(cone, h, attempt=attempt), ray)
        assert np.linalg.norm(ray - h @ (h.conj().T @ ray)) <= 1e-8 * np.linalg.norm(ray)
        assert symlin.span_contains(cone.span_basis, symlin.outer(ray))
    assert extreme_ray_oracle(cone, h, attempt=len(rays)) is None
    assert rc.certificate_complete(rc.face_of(cone, rc.FaceHandle(h)))


def test_first_codim1_candidate_is_a_plus_pair():
    q = np.diag([1.0, 4.0, -1.0])
    cone = rc.codim1_cone(q)
    u, v, _ = symlin.inertia_split(q)
    assert np.array_equal(extreme_ray_oracle(cone, np.eye(3)), u[:, 0] + v[:, 0])


def test_iterate_kinds_have_no_rule():
    # the chordal and composite kinds are routed by elimination and
    # recursion; a rule read off an iterate would re-run those routes
    glued = rc.intertwine(rc.hankel_cone(3), rc.full_psd_cone(2),
                          rc.rank1_glue(None, [1.0, 0.0, 0.0], None, [1.0, 0.0]))
    for cone in (rc.tridiagonal_cone(4), rc.full_extension(rc.hankel_cone(3), 5), glued):
        h = np.eye(cone.n)
        assert rays_spanning_face(cone, h) == []
        with pytest.raises(rc.OracleUnavailableError, match=repr(cone.expr.kind)):
            extreme_ray_oracle(cone, h)


# the only functions of the package that draw random numbers: the QCQP
# feasibility sampler and the gap test that calls it
_RANDOMIZED = {("qcqp_relax", "rank1_feasible_samples"), ("qcqp_relax", "certify_exactness")}


def test_rank1_rules_read_the_face_alone():
    # a rule sees the cone, the face and the tolerance, nothing else, and
    # no rule, certificate or other engine outside _RANDOMIZED draws
    # random vectors
    families = importlib.import_module("rogcones.decompose")._FAMILIES
    for kind, family in families.items():
        if family.rays is not None:
            assert list(inspect.signature(family.rays).parameters) == ["cone", "h", "tol"], kind

    def draws(tree):
        return {id(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "default_rng"}

    found = set()
    for path in sorted(pathlib.Path(rc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        outside = draws(tree)
        for func in tree.body:
            if isinstance(func, ast.FunctionDef) and draws(func):
                found.add((path.stem, func.name))
                outside -= draws(func)
        assert not outside, f"{path.name} draws outside a module-level function"
    assert found == _RANDOMIZED


def _random_form(rng, n):
    # an indefinite form with a kernel of dimension 0..n-2 in a random basis
    d = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 0.0, 1.0], n)
    d[0], d[1] = rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return symlin.sym(u @ np.diag(d) @ u.T), int(np.count_nonzero(d == 0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7))
def test_codim1_certificate_is_the_closed_form(seed, n):
    # a nondegenerate form gets a basis of Q^perp: n (n + 1) / 2 - 1
    # generators; the faces of the ranges of members are complete
    rng = np.random.default_rng(seed)
    q, kernel = _random_form(rng, n)
    cone = rc.codim1_cone(q)
    assert rc.certificate_complete(cone)
    if kernel == 0:
        assert len(cone.generators) == n * (n + 1) // 2 - 1
    moved = rc.apply_congruence(cone, random_congruence(rng, n))
    for k in (cone, moved):
        h = _range(rank_r_member(k, rng, int(rng.integers(1, n + 1))))
        assert rc.certificate_complete(rc.face_of(k, rc.FaceHandle(h)))


def test_codim1_cone_is_the_same_on_every_call():
    q = np.array([[0.0, 1.0, 0.5], [1.0, -1.0, 0.0], [0.5, 0.0, 2.0]])
    first, again = rc.codim1_cone(q), rc.codim1_cone(q)
    assert np.array_equal(first.generators, again.generators)
    assert np.array_equal(first.span_basis, again.span_basis)


def test_summand_without_a_rule_is_named_by_the_peel_and_skipped_by_the_face():
    moment = rc.moment_cone_from_samples(None, [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
                                         powers=[(0,), (1,), (2,)])
    cone = rc.direct_sum(rc.full_psd_cone(2), moment)
    with pytest.raises(rc.OracleUnavailableError, match="'moment'"):
        rc.carath_decompose(cone, sum(symlin.outer(g) for g in cone.generators))
    assert len(rays_spanning_face(cone, np.eye(5))) == 3   # the full_psd block's


def test_cone_model_imports_no_engine():
    tree = ast.parse(pathlib.Path(rc.cone_model.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported
                if name.split(".")[-1] in ("decompose", "constructions")}


def test_decompose_tests_membership_only_in_its_gate():
    # one membership rule for every route: membership, PSD and span tests,
    # and the checked Schur split, are called from _span_member and nowhere
    # else in the module, so no route can gate X a second time
    tests = {"membership", "psd_check", "psd_values", "schur_split", "span_contains"}
    tree = ast.parse(pathlib.Path(importlib.import_module("rogcones.decompose").__file__)
                     .read_text())
    gate = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_span_member")
    in_gate = {id(node) for node in ast.walk(gate)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in tests]
    assert [node.lineno for node in calls if id(node) not in in_gate] == []
    assert calls


def test_no_route_falls_back_to_the_peel():
    # carath_decompose is called in the package only by decompose, on the
    # branch of the kinds without a route: no route hands a member it
    # misses to the peel
    allowed, calls = set(), []
    for path in pathlib.Path(rc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.stem == "decompose":
            top = next(node for node in tree.body
                       if isinstance(node, ast.FunctionDef) and node.name == "decompose")
            allowed = {id(node) for branch in ast.walk(top)
                       if isinstance(branch, ast.If) and ast.unparse(branch.test) == "route is None"
                       for stmt in branch.body for node in ast.walk(stmt)}
        calls += [(path.name, node.lineno, id(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "carath_decompose"]
    assert calls and [(name, line) for name, line, key in calls if key not in allowed] == []


# ---------------------------------------------------------------------------
# invertibility by singular values, relative to the largest


@pytest.mark.parametrize("cone, a", [
    (rc.tridiagonal_cone(10), 0.05 * np.eye(10)),   # det 9.8e-14
    (rc.full_psd_cone(6), 1e-3 * np.eye(6)),         # det 1e-18
])
def test_congruence_by_a_small_multiple_of_the_identity(cone, a):
    image = rc.apply_congruence(cone, a)
    assert image.dim == cone.dim


@pytest.mark.parametrize("scale", [1e-11, 1e-30, 1e30])
@pytest.mark.parametrize("cone", [rc.codim1_cone(np.diag([1.0, 2.0, -1.0])),
                                  rc.block_toeplitz_cone(2, 1)])
def test_congruence_image_does_not_depend_on_the_scale(cone, scale):
    image = rc.apply_congruence(cone, scale * np.eye(cone.n))
    assert image.dim == cone.dim
    assert len(image.generators) == len(cone.generators)


@pytest.mark.parametrize("a", [np.diag([1e6, 1e6, 1e-10]),   # condition number 1e16
                               np.ones((3, 2))])
def test_congruence_rejects_a_singular_or_non_square_matrix(a):
    with pytest.raises(rc.InvalidInputError, match="invertible"):
        rc.apply_congruence(rc.full_psd_cone(3), a)


def test_diagonalizing_basis_of_a_small_member():
    # the atom columns sqrt(w_i) v_i are a basis in which X reads I
    x = 1e-6 * np.eye(5)
    b = atom_columns(rc.decompose(rc.full_psd_cone(5), x))
    assert b.shape == (5, 5)
    assert np.linalg.norm(b @ b.T - x) <= 1e-9 * np.linalg.norm(x)
    assert symlin.invertible(b / np.linalg.norm(b, axis=0))


def test_diagonalizing_basis_of_a_large_rank_one_member():
    x = 1e25 * symlin.outer(np.array([1.0, 0.5, 0.25, 0.125]))
    b = atom_columns(rc.decompose(rc.hankel_cone(4), x))
    assert b.shape == (4, 1)
    assert np.linalg.norm(b @ b.T - x) <= 1e-9 * np.linalg.norm(x)


@pytest.mark.parametrize("c", [1.0, 1e12, 1e20, 1e25])
@pytest.mark.parametrize("kind", ["full_psd", "diagonal"])
def test_peeling_is_scale_free(kind, c):
    # the peel compares x^T X^+ x and the candidate's rank and sign with
    # the scale of the iterate, so heavy atoms are not skipped
    v = np.array([1.0, 2.0, 0.0, 1.0])
    cone, x = ((rc.full_psd_cone(4), symlin.outer(v)) if kind == "full_psd"
               else (rc.diagonal_cone(4), np.diag(v)))
    rank = 1 if kind == "full_psd" else 3
    dec = rc.decompose(cone, c * x)
    assert len(dec.atoms) == rank
    assert dec.residual <= 1e-12 * c
    head = atom_columns(dec)
    assert np.linalg.norm(head @ head.T - c * x) <= 1e-9 * c * np.linalg.norm(x)
    assert symlin.subspace_of_vectors(head.T).shape[1] == rank


# ---------------------------------------------------------------------------
# complex cones


def test_complement_basis_keeps_complex_entries():
    cols = np.array([[1.0], [1j], [0.0]]) / np.sqrt(2)
    comp = symlin.complement_basis(cols, 3)
    assert comp.shape == (3, 2)
    assert np.linalg.norm(comp.conj().T @ cols) < 1e-12
    assert np.allclose(comp.conj().T @ comp, np.eye(2))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_diagonalizing_basis_of_block_toeplitz_members(rank):
    cone = rc.block_toeplitz_cone(3, 1)
    x = rank_r_member(cone, np.random.default_rng(rank), rank)
    b = atom_columns(rc.decompose(cone, x))
    assert b.shape == (3, rank)
    assert np.linalg.norm(b @ b.conj().T - x) < 1e-9
    assert symlin.subspace_of_vectors(b.T).shape[1] == rank
