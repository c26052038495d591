import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import qcqp_relax, symlin
from rogcones.qcqp_relax import (QcqpProblem, certify_exactness, induced_cone,
                                 purify_to_extreme, solve_relaxation)


def constraint_forms(cone):
    """Orthonormal basis of the orthogonal complement of the cone span."""
    full = symlin.sym_basis(cone.n)
    out = []
    for s in full:
        r = s - symlin.span_project(cone.span_basis, s)
        if np.linalg.norm(r) > 1e-9:
            for prev in out:
                r = r - np.tensordot(r, prev) * prev
            if np.linalg.norm(r) > 1e-9:
                out.append(r / np.linalg.norm(r))
    return out


def test_induced_cone_no_constraints():
    p = QcqpProblem(np.eye(3), np.eye(3), [])
    k = induced_cone(p)
    assert k.dim == 6


def test_induced_cone_chordal_pattern():
    g = rc.ChordalGraph(4, [(0, 1), (1, 2), (2, 3)])
    kg = rc.chordal_cone(g)
    forms = []
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) not in g.edges:
                m = np.zeros((4, 4))
                m[i, j] = m[j, i] = 1.0
                forms.append(m)
    p = QcqpProblem(np.eye(4), np.eye(4), forms)
    k = induced_cone(p)
    assert k.dim == kg.dim
    for s in kg.span_basis:
        assert symlin.span_distance(k.span_basis, s) < 1e-9


def test_induced_cone_codim1():
    p = QcqpProblem(np.eye(2), np.eye(2), [np.diag([1.0, -1.0])])
    assert induced_cone(p).dim == 2


def test_solver_trace_normalization():
    sol = solve_relaxation(QcqpProblem(np.eye(2), np.eye(2), []))
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0) < 1e-7
    assert abs(np.trace(sol.x_mat) - 1.0) < 1e-7


def test_solver_infeasible():
    sol = solve_relaxation(QcqpProblem(np.eye(2), np.zeros((2, 2)), []))
    assert sol.status == "infeasible"


def test_solver_infeasible_negative_b():
    sol = solve_relaxation(QcqpProblem(np.eye(2), -np.eye(2), []))
    assert sol.status == "infeasible"


def test_solver_unbounded():
    b = np.zeros((2, 2))
    b[0, 0] = 1.0
    s = np.diag([0.0, -1.0])
    sol = solve_relaxation(QcqpProblem(s, b, []))
    assert sol.status == "unbounded"


def test_solver_certificate_only_when_optimal():
    b = np.zeros((2, 2))
    b[0, 0] = 1.0
    sols = [solve_relaxation(QcqpProblem(np.eye(2), np.zeros((2, 2)), [])),
            solve_relaxation(QcqpProblem(np.diag([0.0, -1.0]), b, [])),
            solve_relaxation(QcqpProblem(np.eye(3), np.eye(3), []), max_outer=1)]
    assert [sol.status for sol in sols] == ["infeasible", "unbounded", "max-iter"]
    for sol in sols:
        assert sol.y is None and sol.z_mat is None
    # The solve runs on the row B / |B| = I / sqrt(3), so its iterate
    # |B| X starts at I / sqrt(3): X = I / 3 is feasible with objective 1,
    # Z = 3 (1 + sqrt(3)) I and y = 0, and the recomputed Z = S = I is PSD,
    # so y = 0 is the first dual bound, at measured gap max(|1 - 0|,
    # <I / 3, I>) = 1.  Every iterate is a multiple of I.  X is feasible
    # and a multiple dX of I has <B, dX> = 0 only at dX = 0, so predictor
    # and corrector both give dX = 0, dZ = -Z, whose largest dual step is 1;
    # the step is 0.95, so y = 0.95 and the recomputed Z = 0.05 I is PSD.
    # The measured gap is max(|1 - 0.95|, <I / 3, 0.05 I>) = 0.05.
    assert sols[2].iterations == 1
    assert abs(sols[2].duality_gap - 0.05) < 1e-9


def test_solver_matches_eigenvalue():
    # min <S, X> s.t. tr X = 1 equals the smallest eigenvalue of S
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        sol = solve_relaxation(QcqpProblem(s, np.eye(n), []))
        assert sol.status == "optimal"
        assert abs(sol.objective - np.linalg.eigvalsh(s)[0]) < 1e-6


def test_solver_kkt_residuals(rng):
    count = 0
    while count < 100:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(0, min(3, n)))
        forms = []
        for _ in range(k):
            a = rng.standard_normal((n, n))
            a = a + a.T
            a = a - np.trace(a) / n * np.eye(n)  # keep identity feasible
            forms.append(a)
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        p = QcqpProblem(s, np.eye(n), forms)
        sol = solve_relaxation(p)
        if sol.status != "optimal":
            continue
        count += 1
        x = sol.x_mat
        assert symlin.psd_check(x, 1e-7)
        for a in forms:
            assert abs(np.tensordot(a, x)) < 1e-7
        assert abs(np.tensordot(np.eye(n), x) - 1.0) < 1e-7
        assert sol.duality_gap <= 1e-6 * (1.0 + abs(sol.objective))
        # dual feasibility: the returned certificate Z is PSD
        z, y = sol.z_mat, sol.y
        assert symlin.psd_check(z, 1e-7)
        # stationarity: S - y B - Z vanishes on the span
        cone = induced_cone(p)
        resid_mat = s - z
        coords = np.array([float(np.tensordot(resid_mat, b)) for b in cone.span_basis])
        b_coords = np.array([float(np.tensordot(np.eye(n), b)) for b in cone.span_basis])
        stat = np.linalg.norm(coords - y * b_coords)
        assert stat < 1e-6 * (1.0 + np.linalg.norm(s))
        # complementarity: the reported gap is the measured <X, Z> = obj - y
        xz = float(np.tensordot(x, z))
        assert abs(sol.objective - y - xz) <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.duality_gap >= xz


def test_purification_preserves_objective(rng):
    k = rc.tridiagonal_cone(4)
    forms = constraint_forms(k)
    s = rng.standard_normal((4, 4))
    s = 0.5 * (s + s.T)
    p = QcqpProblem(s, np.eye(4), forms)
    sol = solve_relaxation(p)
    assert sol.status == "optimal"
    x_pure = purify_to_extreme(p, k, sol.x_mat)
    assert abs(np.tensordot(s, x_pure) - sol.objective) < 1e-7 * (1 + abs(sol.objective))
    assert rc.numeric_rank(x_pure) <= rc.numeric_rank(sol.x_mat)


def test_certify_codim1_exact(rng):
    s = np.array([[0.3, 1.1], [1.1, -0.4]])
    p = QcqpProblem(s, np.eye(2), [np.diag([1.0, -1.0])])
    cert = certify_exactness(p, gap_samples=300)
    assert cert.status in ("exact-with-solution", "exact-by-rog")
    assert cert.x_opt is not None
    x = cert.x_opt
    assert abs(x @ np.diag([1.0, -1.0]) @ x) < 1e-6
    assert abs(x @ x - 1.0) < 1e-6
    # brute force over the unit circle restricted to |x1| = |x2|
    vals = []
    for sgn in (1.0, -1.0):
        v = np.array([1.0, sgn]) / np.sqrt(2.0)
        vals.append(v @ s @ v)
    assert abs(cert.relaxed_value - min(vals)) < 1e-6


def test_certify_chordal_exact_by_rog(rng):
    k = rc.tridiagonal_cone(3)
    forms = constraint_forms(k)
    s = rng.standard_normal((3, 3))
    s = 0.5 * (s + s.T)
    p = QcqpProblem(s, np.eye(3), forms)
    cert = certify_exactness(p, cone=k, gap_samples=100)
    assert cert.status == "exact-by-rog"
    assert abs(cert.extracted_value - cert.relaxed_value) <= \
        1e-5 * (1.0 + abs(cert.relaxed_value))


def test_certify_four_cycle_gap():
    # the four-cycle pattern is not chordal; this cost has a genuine gap
    s = np.array([
        [1.5791, 0.733, 0.1551, -0.5412],
        [0.733, 0.2194, 0.5624, 1.3786],
        [0.1551, 0.5624, 0.1832, 0.2496],
        [-0.5412, 1.3786, 0.2496, -0.1795]])
    a1 = np.zeros((4, 4))
    a1[0, 2] = a1[2, 0] = 1.0
    a2 = np.zeros((4, 4))
    a2[1, 3] = a2[3, 1] = 1.0
    p = QcqpProblem(s, np.eye(4), [a1, a2])
    # independent oracle: the rank-1 feasible set splits into four
    # coordinate cases, each an eigenvalue minimization
    brute = min(np.linalg.eigvalsh(s[np.ix_(keep, keep)])[0]
                for keep in ([2, 3], [2, 1], [0, 3], [0, 1]))
    cert = certify_exactness(p, gap_samples=2000, seed=1)
    assert cert.status in ("gap-detected", "inconclusive")
    assert cert.status != "exact-by-rog"
    assert cert.relaxed_value < brute - 1e-3
    if cert.status == "gap-detected":
        assert cert.extracted_value >= brute - 1e-6


def test_trichotomy_statuses():
    seen = set()
    seen.add(solve_relaxation(QcqpProblem(np.eye(2), np.zeros((2, 2)), [])).status)
    b = np.zeros((2, 2))
    b[0, 0] = 1.0
    seen.add(solve_relaxation(QcqpProblem(np.diag([0.0, -1.0]), b, [])).status)
    seen.add(solve_relaxation(QcqpProblem(np.eye(2), np.eye(2), [])).status)
    assert seen == {"infeasible", "unbounded", "optimal"}


def random_sym_stack(rng, k, n):
    a = rng.standard_normal((k, n, n))
    return a + a.transpose(0, 2, 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_schur_complement_matches_trace_forms(n, k, seed):
    # the stacked assembly against the per-pair forms tr(F_i X F_j Z^-1)
    rng = np.random.default_rng(seed)
    mats = random_sym_stack(rng, k, n)
    g, h = rng.standard_normal((2, n, n))
    x = g @ g.T + 0.1 * np.eye(n)
    z_inv = np.linalg.inv(h @ h.T + 0.1 * np.eye(n))
    schur = qcqp_relax._schur_complement(mats.reshape(k, n * n), x, z_inv)
    ref = np.array([[np.trace(a @ x @ b @ z_inv) for b in mats] for a in mats])
    assert np.abs(schur - ref).max() <= 1e-12 * np.abs(ref).max()


def assert_kkt(p, sol):
    """The checks of test_solver_kkt_residuals on an optimal solution."""
    n = p.n
    x, z, y = sol.x_mat, sol.z_mat, sol.y
    assert symlin.psd_check(x, 1e-7)
    for a in p.constraints:
        assert abs(np.tensordot(a, x)) < 1e-7
    assert abs(np.tensordot(p.normalization, x) - 1.0) < 1e-7
    assert sol.duality_gap <= 1e-6 * (1.0 + abs(sol.objective))
    assert symlin.psd_check(z, 1e-7)
    basis = induced_cone(p).span_basis.reshape(-1, n * n)
    stat = np.linalg.norm(basis @ (p.cost - z).ravel() - y * basis @ p.normalization.ravel())
    assert stat < 1e-6 * (1.0 + np.linalg.norm(p.cost))
    xz = float(np.tensordot(x, z))
    assert abs(sol.objective - y - xz) <= 1e-7 * (1.0 + abs(sol.objective))
    assert sol.duality_gap >= xz


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), k=st.integers(1, 3),
       extra=st.sampled_from(["repeat", "scaled", "combination"]),
       seed=st.integers(0, 2**32 - 1))
def test_solver_drops_dependent_forms(n, k, extra, seed):
    # a dependent constraint form changes neither the status nor the value
    rng = np.random.default_rng(seed)
    forms = [a - np.trace(a) / n * np.eye(n) for a in random_sym_stack(rng, k, n)]
    s = random_sym_stack(rng, 1, n)[0]
    added = {"repeat": forms[0], "scaled": -3.5 * forms[0],
             "combination": np.tensordot(rng.standard_normal(k), forms, axes=1)}[extra]
    ref = solve_relaxation(QcqpProblem(s, np.eye(n), forms))
    p = QcqpProblem(s, np.eye(n), forms + [added])
    sol = solve_relaxation(p)
    assert sol.status == ref.status
    if sol.status == "optimal":
        assert abs(sol.objective - ref.objective) <= 1e-8 * (1.0 + abs(ref.objective))
        assert_kkt(p, sol)


def assert_infeasibility_ray(p, ray):
    """ray is PSD and ray + B lies in the span of the constraint forms."""
    assert np.linalg.eigvalsh(ray)[0] >= -1e-12 * (1.0 + np.linalg.norm(ray))
    target = (ray + p.normalization).ravel()
    if p.constraints:
        forms = np.array(p.constraints).reshape(len(p.constraints), -1).T
        coef, *_ = np.linalg.lstsq(forms, target, rcond=None)
        target = target - forms @ coef
    assert np.linalg.norm(target) <= 1e-8


def assert_recession_ray(p, ray):
    """ray is a unit PSD direction annihilated by B and the forms along
    which the cost falls."""
    assert abs(np.linalg.norm(ray) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(ray)[0] >= -1e-12
    for a in [p.normalization] + p.constraints:
        assert abs(np.tensordot(a, ray)) <= 1e-8 * (1.0 + np.linalg.norm(a))
    assert np.tensordot(p.cost, ray) < 0


def test_solver_rays_pass_independent_checks():
    b = np.zeros((2, 2))
    b[0, 0] = 1.0
    s3 = np.diag([1.0, 2.0, 3.0])
    for p in (QcqpProblem(np.eye(2), np.zeros((2, 2)), []),
              QcqpProblem(np.eye(2), -np.eye(2), []),
              QcqpProblem(s3, np.eye(3), [np.eye(3)])):
        sol = solve_relaxation(p)
        assert sol.status == "infeasible"
        assert_infeasibility_ray(p, sol.ray)
    p = QcqpProblem(np.diag([0.0, -1.0]), b, [])
    sol = solve_relaxation(p)
    assert sol.status == "unbounded"
    assert_recession_ray(p, sol.ray)
    assert solve_relaxation(QcqpProblem(s3, np.eye(3), [])).ray is None


def test_solver_recession_direction_without_feasible_point():
    # no PSD X has <diag(-1, 0), X> = 1, although e1 e1^T is a PSD
    # direction with <B, D> = 0 and <S, D> = -1: infeasible, not unbounded
    p = QcqpProblem(np.diag([0.0, -1.0]), np.diag([-1.0, 0.0]), [])
    sol = solve_relaxation(p)
    assert sol.status == "infeasible"
    assert_infeasibility_ray(p, sol.ray)


@pytest.mark.parametrize("c", [1e-9, 1e-3, 1.0, 1e3])
def test_solver_statuses_invariant_under_scaling_b(c):
    # min tr X s.t. c tr X = 1 is 1 / c; -c I admits no feasible X; with
    # B = c e0 e0^T the cost diag(0, -1) falls without bound along e1 e1^T
    n = 3
    sol = solve_relaxation(QcqpProblem(np.eye(n), c * np.eye(n), []))
    assert sol.status == "optimal"
    assert abs(sol.objective - 1.0 / c) <= 1e-8 * (1.0 + 1.0 / c)
    p = QcqpProblem(np.eye(n), -c * np.eye(n), [])
    sol = solve_relaxation(p)
    assert sol.status == "infeasible"
    assert_infeasibility_ray(p, sol.ray)
    b = np.zeros((2, 2))
    b[0, 0] = c
    p = QcqpProblem(np.diag([0.0, -1.0]), b, [])
    sol = solve_relaxation(p)
    assert sol.status == "unbounded"
    assert_recession_ray(p, sol.ray)


@pytest.mark.parametrize("seed", range(12))
def test_solver_rays_on_random_problems(seed):
    # a negative definite B makes the problem infeasible; B = e0 e0^T makes
    # it unbounded exactly when S restricted to the other coordinates has
    # a negative eigenvalue, and the recession directions then lie on the
    # boundary of the PSD cone
    rng = np.random.default_rng(seed)
    n = 2 + seed % 5
    s = random_sym_stack(rng, 1, n)[0]
    g = rng.standard_normal((n, n))
    forms = list(random_sym_stack(rng, seed % 3, n))
    p = QcqpProblem(s, -(g @ g.T + 0.1 * np.eye(n)), forms)
    sol = solve_relaxation(p)
    assert sol.status == "infeasible"
    assert_infeasibility_ray(p, sol.ray)
    b = np.zeros((n, n))
    b[0, 0] = 1.0
    p = QcqpProblem(s, b, [])
    sol = solve_relaxation(p)
    if np.linalg.eigvalsh(s[1:, 1:])[0] < 0:
        assert sol.status == "unbounded"
        assert_recession_ray(p, sol.ray)
    else:
        assert sol.status == "optimal" and sol.ray is None


def test_certify_builds_induced_cone_once(monkeypatch):
    calls = []
    real = qcqp_relax.induced_cone

    def counted(problem):
        calls.append(problem)
        return real(problem)

    monkeypatch.setattr(qcqp_relax, "induced_cone", counted)
    p = QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3), [np.diag([1.0, -1.0, 0.0])])
    cert = certify_exactness(p, gap_samples=100)
    assert len(calls) == 1
    # the certificate keeps the solve it came from
    assert cert.solution.status == "optimal"
    assert cert.relaxed_value == cert.solution.objective
    assert abs(cert.relaxed_value - 1.5) < 1e-7


def four_cycle_problem():
    """The problem of test_certify_four_cycle_gap."""
    s = np.array([
        [1.5791, 0.733, 0.1551, -0.5412],
        [0.733, 0.2194, 0.5624, 1.3786],
        [0.1551, 0.5624, 0.1832, 0.2496],
        [-0.5412, 1.3786, 0.2496, -0.1795]])
    a1 = np.zeros((4, 4))
    a1[0, 2] = a1[2, 0] = 1.0
    a2 = np.zeros((4, 4))
    a2[1, 3] = a2[3, 1] = 1.0
    return QcqpProblem(s, np.eye(4), [a1, a2])


def sequential_samples(problem, count, rng, iters=50):
    """The one-start-at-a-time sampler: the reference for the batched one."""
    n = problem.n
    out = []
    for _ in range(count):
        x = rng.standard_normal(n)
        ok = False
        for _ in range(iters):
            f = np.array([x @ a @ x for a in problem.constraints]
                         + [x @ problem.normalization @ x - 1.0])
            if np.abs(f).max() < 1e-10:
                ok = True
                break
            jac = np.vstack([2.0 * (a @ x) for a in problem.constraints]
                            + [2.0 * (problem.normalization @ x)])
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
            x = x + step
            if np.linalg.norm(x) > 1e8:
                break
        if ok:
            out.append(x)
    return out


@pytest.mark.parametrize("name, problem, count", [
    ("four-cycle", four_cycle_problem(), 300),
    ("codim1", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3), [np.diag([1.0, -1.0, 0.5])]),
     qcqp_relax._SAMPLE_BLOCK + 37),
    ("infeasible", QcqpProblem(four_cycle_problem().cost, np.eye(4), [np.eye(4)]), 40),
])
def test_batched_samples_match_sequential(name, problem, count):
    ref = sequential_samples(problem, count, np.random.default_rng(7))
    out = qcqp_relax.rank1_feasible_samples(problem, count, np.random.default_rng(7))
    assert isinstance(out, list)
    assert len(out) == len(ref)
    if name == "infeasible":
        assert len(out) == 0
    else:
        assert len(out) > 0
    for x, y in zip(out, ref):
        assert np.abs(x - y).max() <= 1e-10


def test_solver_beyond_sixteen(rng):
    n = 20
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    sol = solve_relaxation(QcqpProblem(s, np.eye(n), []))
    assert sol.status == "optimal"
    assert abs(sol.objective - np.linalg.eigvalsh(s)[0]) < 1e-6
    forms = []
    for a in random_sym_stack(rng, 2, n):
        forms.append(a - np.trace(a) / n * np.eye(n))  # keep identity feasible
    sol = solve_relaxation(QcqpProblem(s, np.eye(n), forms))
    assert sol.status == "optimal"
    assert symlin.psd_check(sol.z_mat, 1e-7)
