import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from conftest import random_congruence, raw_four_cycle_cone
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


def test_solver_feasibility_does_not_depend_on_the_scale_of_b():
    # X = I / (3c) is feasible for B = c I: the part of B off the forms'
    # span is cut relative to |B|, so a small c is no reason for
    # "infeasible"; a B inside that span is infeasible at every scale
    form = np.diag([1.0, -1.0, 0.0])
    for c in 10.0 ** -np.arange(101):
        sol = solve_relaxation(QcqpProblem(np.eye(3), c * np.eye(3), [form]))
        assert sol.status == "optimal", c
        assert abs(sol.objective * c - 1.0) <= 1e-7, c
        assert solve_relaxation(QcqpProblem(np.eye(3), c * form, [form])).status == "infeasible"


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
            solve_relaxation(QcqpProblem(np.eye(3), np.eye(3), [np.diag([1.0, -1.0, 0.0]),
                                                                np.diag([0.0, 1.0, -1.0])]),
                             max_outer=1)]
    assert [sol.status for sol in sols] == ["infeasible", "unbounded", "max-iter"]
    for sol in sols:
        assert sol.y is None and sol.z_mat is None
    # Two forms with diagonal entries keep the problem off every closed form
    # (a coordinate pattern needs off-diagonal forms, the S-lemma one form).
    # They are traceless, so B' = B = I and every multiple of I is
    # orthogonal to their rows E_k.  The solve runs on the rows
    # B / |B| = I / sqrt(3) and E_k, so its iterate |B| X starts at
    # I / sqrt(3): X = I / 3 is feasible with objective 1,
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


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), b_kind=st.sampled_from(["spd", 1e-9, 1e-3, 1.0, 1e3, 1e9]),
       seed=st.integers(0, 2**32 - 1))
def test_unconstrained_relaxation_in_closed_form(n, b_kind, seed):
    # with no form and B = L L^T PD the value is lambda_min(L^-1 S L^-T),
    # reached at a rank-1 X without an interior-point step; scipy's
    # generalized eigensolver is the oracle
    import scipy.linalg
    rng = np.random.default_rng(seed)
    s = random_sym_stack(rng, 1, n)[0]
    if b_kind == "spd":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        b = (q * 10.0 ** rng.uniform(-2.0, 2.0, n)) @ q.T
    else:
        b = b_kind * np.eye(n)
    p = QcqpProblem(s, b, [])
    sol = solve_relaxation(p)
    lam = float(scipy.linalg.eigh(p.cost, p.normalization, eigvals_only=True)[0])
    assert sol.status == "optimal" and sol.iterations == 0
    assert abs(sol.objective - lam) <= 1e-10 * (1.0 + abs(lam))
    assert np.array_equal(sol.z_mat, p.cost - sol.y * p.normalization)
    assert symlin.psd_check(sol.z_mat, 1e-7)
    assert sol.duality_gap <= 0.1 * symlin.DEFAULT_TOL * (1.0 + abs(sol.objective))
    assert np.linalg.matrix_rank(sol.x_mat) == 1
    assert abs(np.vdot(p.normalization, sol.x_mat) - 1.0) <= 1e-10


def generalized_min(s, b):
    """lambda_min(S, B) for B PD, by scipy's generalized eigensolver."""
    import scipy.linalg
    return float(scipy.linalg.eigh(s, b, eigvals_only=True)[0])


def random_spd(rng, n, log_spread=1.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (q * 10.0 ** rng.uniform(-log_spread, log_spread, n)) @ q.T


def assert_closed_form(p, sol, oracle):
    """``optimal`` after 0 iterations at the oracle's value, with the
    evidence of the interior-point loop's stop rule."""
    assert sol.status == "optimal" and sol.iterations == 0
    assert abs(sol.objective - oracle) <= 1e-10 * (1.0 + abs(sol.y))
    assert symlin.psd_check(sol.z_mat, 1e-7)
    assert sol.duality_gap <= 0.1 * symlin.DEFAULT_TOL * (1.0 + abs(sol.objective))
    assert sol.primal_residual <= symlin.DEFAULT_TOL
    assert np.linalg.matrix_rank(sol.x_mat) == 1
    for a in p.constraints:
        assert abs(np.vdot(a, sol.x_mat)) <= 1e-8 * np.linalg.norm(a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), clique_max=st.integers(1, 6), b_kind=st.sampled_from(["I", "spd"]),
       seed=st.integers(0, 2**32 - 1))
def test_chordal_pattern_relaxation_in_closed_form(n, clique_max, b_kind, seed):
    # x_i x_j = 0 off a chordal graph whose vertices are shuffled: each new
    # vertex joins a clique of the earlier ones, so those cliques and the
    # new vertex give every maximal clique, and the value is the least
    # lambda_min(S_CC, B_CC) over them
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    cliques, adj = [], [set() for _ in range(n)]
    for v in range(n):
        clique = []
        if v and rng.random() < 0.9:
            clique = [int(rng.integers(v))]
            for c in rng.permutation(sorted(adj[clique[0]])):
                if len(clique) < clique_max and all(c in adj[u] for u in clique):
                    clique.append(int(c))
        for u in clique:
            adj[u].add(v)
            adj[v].add(u)
        cliques.append([int(label[u]) for u in clique + [v]])
    edges = {(min(label[u], label[v]), max(label[u], label[v]))
             for v in range(n) for u in adj[v]}
    forms = [coordinate_unit(n, i, j) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in edges]
    s = random_sym_stack(rng, 1, n)[0]
    b = np.eye(n) if b_kind == "I" else random_spd(rng, n)
    p = QcqpProblem(s, b, forms)
    oracle = min(generalized_min(s[np.ix_(c, c)], b[np.ix_(c, c)]) for c in cliques)
    assert_closed_form(p, solve_relaxation(p), oracle)


def test_chordal_pattern_on_sixty_vertices_is_fast():
    # a path of triangles on 60 shuffled vertices leaves 1,653 forms; the
    # interior-point method took 14 s on a chordal pattern of this size
    rng = np.random.default_rng(11)
    label = rng.permutation(60)
    edges = {tuple(sorted((int(label[v]), int(label[v - d])))) for v in range(60)
             for d in (1, 2) if v >= d}
    forms = [coordinate_unit(60, i, j) for i in range(60) for j in range(i + 1, 60)
             if (i, j) not in edges]
    p = QcqpProblem(random_sym_stack(rng, 1, 60)[0], np.eye(60), forms)
    cliques = [[int(label[v - 2]), int(label[v - 1]), int(label[v])] for v in range(2, 60)]
    oracle = min(float(np.linalg.eigvalsh(p.cost[np.ix_(c, c)])[0]) for c in cliques)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        sol = solve_relaxation(p)
        times.append(time.perf_counter() - start)
    assert_closed_form(p, sol, oracle)
    assert min(times) < 0.05


def s_lemma_value(s, a, b):
    """max over w of lambda_min(S - w A, B) by golden-section search.  The
    function f is concave, and at the ends w of the bracket, where |w|
    times an extreme generalized eigenvalue of (A, B) is 4 (|S|_2 /
    lambda_min(B) + 1), f(w) < f(0): the maximiser lies between them."""
    import scipy.linalg
    ends = scipy.linalg.eigh(a, b, eigvals_only=True)[[0, -1]]
    reach = 4.0 * (np.linalg.norm(s, 2) / np.linalg.eigvalsh(b)[0] + 1.0)
    lo, hi = reach / ends[0], reach / ends[1]
    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    gc, gd = generalized_min(s - c * a, b), generalized_min(s - d * a, b)
    while hi - lo > 1e-13 * (1.0 + abs(lo)):
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - phi * (hi - lo)
            gc = generalized_min(s - c * a, b)
        else:
            lo, c, gc = c, d, gd
            d = lo + phi * (hi - lo)
            gd = generalized_min(s - d * a, b)
    return max(gc, gd)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 7), kind=st.sampled_from(["generic", "kink"]),
       b_kind=st.sampled_from(["I", "spd"]), seed=st.integers(0, 2**32 - 1))
def test_one_form_relaxation_in_closed_form(n, kind, b_kind, seed):
    # one indefinite form: the value is max over w of lambda_min(S - w A, B)
    # (the S-lemma).  A kink: S, A and B congruent to diagonal matrices by
    # one R, so that lambda_min(S - w A, B) = min_i (s_i - w a_i) / b_i is
    # piecewise linear and its maximum sits where two pieces cross, with a
    # double bottom eigenvalue; the value is the best crossing
    rng = np.random.default_rng(seed)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    a_diag = rng.permutation(signs * rng.uniform(0.2, 5.0, n))
    if kind == "generic":
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = (q * a_diag) @ q.T
        s = random_sym_stack(rng, 1, n)[0]
        b = np.eye(n) if b_kind == "I" else random_spd(rng, n)
        oracle = s_lemma_value(s, a, b)
    else:
        r = random_congruence(rng, n) if b_kind == "spd" else np.linalg.qr(
            rng.standard_normal((n, n)))[0]
        s_diag = rng.standard_normal(n)
        s, a, b = (r.T * d @ r for d in (s_diag, a_diag, np.ones(n)))
        ups, downs = np.flatnonzero(a_diag > 0), np.flatnonzero(a_diag < 0)
        crossings = [(s_diag[i] - s_diag[j]) / (a_diag[i] - a_diag[j]) for i in ups for j in downs]
        oracle = max(float(np.min(s_diag - w * a_diag)) for w in crossings)
    p = QcqpProblem(s, b, [a])
    assert_closed_form(p, solve_relaxation(p), oracle)


def test_repeated_eigenvalue_certifies_with_solution():
    # S = I: every unit vector is optimal, and the closed form picks one
    cert = certify_exactness(QcqpProblem(np.eye(4), np.eye(4), []), gap_samples=10)
    assert cert.status == "exact-with-solution"
    assert cert.solution.iterations == 0
    assert abs(cert.relaxed_value - 1.0) <= 1e-12
    assert abs(np.linalg.norm(cert.x_opt) - 1.0) <= 1e-10


@pytest.mark.parametrize("s, b", [(1e10 * np.eye(2), 1e-300 * np.eye(2)),
                                  (np.diag([1e308, 1.0]), 1e-308 * np.eye(2))],
                         ids=["tiny-b", "huge-s"])
def test_closed_form_gives_way_on_overflow(s, b):
    # L^-1 S L^-T overflows: the closed form has no evidence, stops, warns
    # of nothing and leaves the problem to the interior-point method, where
    # the norm of a B this small underflows to zero
    p = QcqpProblem(s, b, [])
    no_pairs = qcqp_relax._coordinate_pairs([])
    assert qcqp_relax._clique_solution(p.cost, p.normalization, no_pairs,
                                       symlin.DEFAULT_TOL) is None
    assert solve_relaxation(p).status == "infeasible"


def test_closed_form_near_the_float_range():
    # the interior-point method stops at max-iter on this problem
    sol = solve_relaxation(QcqpProblem(np.diag([1e300, -1e300]), np.eye(2), []))
    assert sol.status == "optimal" and sol.iterations == 0
    assert sol.objective == -1e300


def coordinate_unit(n, i, j):
    """The form x_i x_j: e_i e_j^T + e_j e_i^T."""
    a = np.zeros((n, n))
    a[i, j] = a[j, i] = 1.0
    return a


def cycle_problem(s):
    """x_i x_j = 0 off the cycle 0 - 1 - ... - (n - 1) - 0, with B = I."""
    n = len(s)
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return QcqpProblem(s, np.eye(n), [coordinate_unit(n, i, j) for i in range(n)
                                      for j in range(i + 1, n) if (i, j) not in edges])


@pytest.mark.parametrize("name, problem", [
    ("singular-b", QcqpProblem(np.eye(3), np.diag([1.0, 1.0, 0.0]), [])),
    ("indefinite-b", QcqpProblem(np.eye(3), np.diag([1.0, 1.0, -1.0]), [])),
    # one semidefinite form: the S-lemma search needs an indefinite one
    ("one-form", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3), [np.diag([1.0, 1.0, 0.0])])),
    # cycles of 4 and 5 vertices are not chordal
    ("four-cycle", cycle_problem(np.array([[1.5791, 0.733, 0.1551, -0.5412],
                                           [0.733, 0.2194, 0.5624, 1.3786],
                                           [0.1551, 0.5624, 0.1832, 0.2496],
                                           [-0.5412, 1.3786, 0.2496, -0.1795]]))),
    ("five-cycle", cycle_problem(random_sym_stack(np.random.default_rng(4), 1, 5)[0] / 2.0)),
    # a coordinate pattern's forms are off the diagonal
    ("diagonal-form", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3),
                                  [np.diag([0.0, 0.0, 1.0]), coordinate_unit(3, 0, 1)])),
    ("singular-b-with-forms", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0]),
                                          [np.diag([1.0, -1.0, 0.0])])),
    ("two-forms", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3),
                              [np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])])),
])
def test_interior_point_method_outside_the_closed_form(monkeypatch, name, problem):
    calls = []
    step = qcqp_relax._hkm_step
    monkeypatch.setattr(qcqp_relax, "_hkm_step", lambda *args: calls.append(1) or step(*args))
    sol = solve_relaxation(problem)
    assert calls and sol.iterations >= 1
    assert sol.status == "optimal"


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
    # X* has rank 2 on the 4-cycle, so purification needs the cone
    cert = certify_exactness(four_cycle_problem(), gap_samples=100)
    assert len(calls) == 1
    assert cert.status in ("gap-detected", "inconclusive")
    # the certificate keeps the solve it came from
    assert cert.solution.status == "optimal"
    assert cert.relaxed_value == cert.solution.objective


@pytest.mark.parametrize("name, problem", [
    ("no-form", QcqpProblem(np.diag([3.0, 1.0, 2.0]), np.eye(3), [])),
    ("chordal", QcqpProblem(random_sym_stack(np.random.default_rng(1), 1, 4)[0], np.eye(4),
                            [coordinate_unit(4, 0, 2), coordinate_unit(4, 0, 3),
                             coordinate_unit(4, 1, 3)])),
    ("one-form", QcqpProblem(random_sym_stack(np.random.default_rng(2), 1, 4)[0], np.eye(4),
                             [np.diag([1.0, -2.0, 0.5, -0.5]) + coordinate_unit(4, 0, 1)])),
])
def test_certify_takes_a_rank_one_optimum_from_one_decomposition(monkeypatch, name, problem):
    # a closed-form optimum has rank 1: one eig_sym of X* gives x_opt, and
    # no cone is built or purified
    counts = {"eig_sym": 0, "make_cone": 0}

    def counted(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)
    counted(symlin, "eig_sym")
    counted(qcqp_relax, "make_cone")
    cert = certify_exactness(problem, gap_samples=100)
    assert counts == {"eig_sym": 1, "make_cone": 0}
    assert cert.status == "exact-with-solution" and cert.solution.iterations == 0
    x = cert.x_opt
    assert abs(x @ problem.normalization @ x - 1.0) <= 1e-8
    assert abs(cert.extracted_value - cert.relaxed_value) <= 1e-8 * (1.0 + abs(cert.relaxed_value))
    for a in problem.constraints:
        assert abs(x @ a @ x) <= 1e-8


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


@pytest.mark.parametrize("wrap", [lambda raw: raw,
                                  lambda raw: rc.apply_congruence(raw, np.eye(4))],
                         ids=["raw", "congruence-of-raw"])
def test_spanning_generators_are_no_rog_proof(wrap):
    # the 4-cycle is not chordal, so its pattern cone is not ROG although
    # its rank-1 generators span L; the call must not claim exactness
    cone = wrap(raw_four_cycle_cone())
    assert len(cone.generators) == 12 and rc.certificate_complete(cone)
    problem = four_cycle_problem()
    cert = certify_exactness(problem, cone=cone, gap_samples=2000, seed=1)
    alone = certify_exactness(problem, gap_samples=2000, seed=1)
    assert cert.status == alone.status == "gap-detected"
    assert cert.extracted_value > cert.relaxed_value + 0.05


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
    ("dependent", QcqpProblem(np.diag([1.0, 2.0, 3.0]), np.eye(3),
                              [np.diag([1.0, -1.0, 0.5]), np.diag([3.0, -3.0, 1.5])]), 300),
])
def test_batched_samples_match_sequential(name, problem, count):
    ref = sequential_samples(problem, count, np.random.default_rng(7))
    out = qcqp_relax.rank1_feasible_samples(problem, count, np.random.default_rng(7))
    assert isinstance(out, np.ndarray) and out.shape == (len(ref), problem.n)
    assert len(out) == len(ref)
    if name == "infeasible":
        assert len(out) == 0
    else:
        assert len(out) > 0
    for x, y in zip(out, ref):
        assert np.abs(x - y).max() <= 1e-10


def pinv_steps(jac, f):
    """The sampler's step before the Gram kernel: pinv with numpy's lstsq cut."""
    rcond = np.finfo(float).eps * max(jac.shape[1:])
    return np.einsum("snk,sk->sn", np.linalg.pinv(jac, rcond=rcond), f), rcond


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6), extra=st.integers(0, 5), log_cond=st.floats(0.0, 6.0),
       log_scale=st.floats(-4.0, 4.0), direction=st.sampled_from(["random", "top", "bottom"]),
       seed=st.integers(0, 2**32 - 1))
def test_min_norm_steps_match_pinv(rows, extra, log_cond, log_scale, direction, seed):
    # J = U diag(s) V^T with cond(J) = 10^log_cond; f random or along the
    # left singular vector of the largest or the smallest singular value
    # (plus a little noise), wide and square stacks of 8
    rng = np.random.default_rng(seed)
    k, cols = rows, rows + extra
    jac, f = [], []
    for _ in range(8):
        u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        sv = 10.0 ** (log_scale - np.sort(rng.uniform(0.0, log_cond, k))[::-1])
        sv[0], sv[-1] = 10.0 ** log_scale, 10.0 ** (log_scale - log_cond)
        jac.append((u[:, :k] * sv) @ v[:, :k].T)
        noise = 10.0 ** -rng.uniform(1, 8) * rng.standard_normal(rows)
        f.append({"random": rng.standard_normal(rows), "top": u[:, 0] + noise,
                  "bottom": u[:, k - 1] + noise}[direction] * 10.0 ** rng.uniform(-4, 4))
    jac, f = np.array(jac), np.array(f)
    ref, rcond = pinv_steps(jac, f)
    step = qcqp_relax._min_norm_steps(jac, f, rcond)
    err = np.linalg.norm(step - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert err.max() <= 1e-8


@pytest.mark.parametrize("case", ["duplicate", "times-three", "zero"])
@pytest.mark.parametrize("shape", [(3, 5), (3, 3)])
def test_min_norm_steps_of_rank_deficient_jacobians_are_pinv_steps(case, shape):
    # a row copied, tripled (3 is no power of two, so 3 r is rounded) or
    # zeroed, as forms whose A_i x are dependent at some x give; each stack
    # also holds a generic J, which may take the Gram step
    rng = np.random.default_rng(3)
    rows, cols = shape
    jac = rng.standard_normal((4, rows, cols))
    f = rng.standard_normal((4, rows))
    for j in jac[1:]:
        j[1] = {"duplicate": 1.0, "times-three": 3.0, "zero": 0.0}[case] * j[0]
    ref, rcond = pinv_steps(jac, f)
    step = qcqp_relax._min_norm_steps(jac, f, rcond)
    assert np.array_equal(step[1:], ref[1:])
    assert np.linalg.norm(step[0] - ref[0]) <= 1e-10 * np.linalg.norm(ref[0])


@pytest.mark.parametrize("name, constraints, gram", [
    ("independent", four_cycle_problem().constraints, True),
    ("duplicate", [np.diag([1.0, -1.0, 0.5, 0.0])] * 2, False),
    ("times-three", [np.diag([1.0, -1.0, 0.5, 0.0]), np.diag([3.0, -3.0, 1.5, 0.0])], False),
    ("zero", [np.diag([1.0, -1.0, 0.5, 0.0]), np.zeros((4, 4))], False),
    ("normalization", [np.eye(4)], False),
    ("more-forms-than-n", [np.diag(e) for e in np.eye(4)], False),
    # independent forms whose A_i x all lie in span(e0, e1)
    ("common-block", [np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4)[[1, 0, 2, 3]] - np.diag([0, 0, 1, 1]),
                      np.diag([-0.5, 1.0, 0.0, 0.0])], False),
])
def test_sampler_takes_gram_steps_only_for_independent_forms(monkeypatch, name, constraints,
                                                             gram):
    # these forms make J J^T singular at every x, so the path is chosen once
    # per call and such problems never try the Gram solve
    calls = []
    gram_steps = qcqp_relax._min_norm_steps
    monkeypatch.setattr(qcqp_relax, "_min_norm_steps",
                        lambda *args: calls.append(1) or gram_steps(*args))
    problem = QcqpProblem(np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4), constraints)
    qcqp_relax.rank1_feasible_samples(problem, 20, np.random.default_rng(0))
    assert bool(calls) == gram


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
