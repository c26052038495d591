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
    # one barrier step at mu = 2 leaves the measured gap 3 mu = 6
    assert abs(sols[2].duality_gap - 6.0) < 1e-9


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
def test_logdet_derivatives_match_trace_forms(n, k, seed):
    # the Gram-matrix Hessian and the trace gradient against the per-matrix
    # forms tr(W_i W_j) and tr(W_j), W_j = X^-1/2 M_j X^-1/2
    rng = np.random.default_rng(seed)
    mats = random_sym_stack(rng, k, n)
    g = rng.standard_normal((n, n))
    w, v = np.linalg.eigh(g @ g.T + 0.1 * np.eye(n))
    grad, hess = qcqp_relax._logdet_derivatives(mats.reshape(k, n * n), w, v)
    xi_half = (v / np.sqrt(w)) @ v.T
    ws = xi_half @ mats @ xi_half
    ref_grad = -np.trace(ws, axis1=1, axis2=2)
    ref_hess = np.einsum("iab,jba->ij", ws, ws)
    assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
    assert np.abs(hess - ref_hess).max() <= 1e-12 * np.abs(ref_hess).max()


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
