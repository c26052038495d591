import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import isomorph, symlin
from rogcones.cone_model import codimension
from rogcones.errors import InvalidInputError
from rogcones.isomorph import (PartialMatrix, _greedy_basis, _try_matching, cross_ratio,
                               rank1_complete, rank1_complete_signs, s4_orbit,
                               same_s4_orbit)
from conftest import (catalog_constructions, count_calls, count_span_tests,
                      random_chordal_graph, random_congruence)


def test_complete_diagonal_only():
    pm = PartialMatrix(2, 2, {(0, 0): 1.0})
    out = rank1_complete(pm)
    assert out.feasible
    assert np.allclose(out.e, [1.0, 1.0]) and np.allclose(out.f, [1.0, 1.0])


def test_complete_consistent():
    pm = PartialMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 6.0]]),
                                  np.ones((2, 2), dtype=bool))
    out = rank1_complete(pm)
    assert out.feasible
    assert np.allclose(out.e, [1.0, 3.0])
    assert np.allclose(out.f, [1.0, 2.0])


def test_complete_inconsistent_cycle():
    pm = PartialMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 5.0]]),
                                  np.ones((2, 2), dtype=bool))
    out = rank1_complete(pm)
    assert not out.feasible
    assert out.violation == "cycle"
    assert out.cycle is not None and len(out.cycle) >= 4


def test_complete_zero_row_condition():
    # a zero entry with nonzero row and column companions is infeasible
    pm = PartialMatrix(2, 2, {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 1.0})
    out = rank1_complete(pm)
    assert not out.feasible
    assert "zero" in out.violation
    # but a fully zero row completes fine
    pm2 = PartialMatrix(2, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0})
    out2 = rank1_complete(pm2)
    assert out2.feasible
    assert abs(out2.matrix()[0, 0]) < 1e-12


def test_complete_roundtrip_random(rng):
    for _ in range(500):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        e = rng.standard_normal(n)
        f = rng.standard_normal(m)
        if rng.random() < 0.3:
            e[rng.integers(n)] = 0.0
        a = np.outer(e, f)
        mask = rng.random((n, m)) < 0.6
        out = rank1_complete(PartialMatrix.from_dense(a, mask))
        assert out.feasible
        c = out.matrix()
        assert np.abs((c - a)[mask]).max(initial=0.0) < 1e-9 * (1 + np.abs(a).max())


def test_signs_examples():
    pm = PartialMatrix(3, 3, {(0, 0): -1.0})
    out = rank1_complete_signs(pm)
    assert out.feasible and out.e[0] * out.f[0] == -1.0

    pm = PartialMatrix.from_dense(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
    out = rank1_complete_signs(pm)
    assert out.feasible
    assert np.allclose(np.outer(out.e, out.f), np.ones((2, 2)))

    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    out = rank1_complete_signs(PartialMatrix.from_dense(a, np.ones((2, 2), dtype=bool)))
    assert not out.feasible


def brute_force_sign_feasible(pm: PartialMatrix):
    n, m = pm.n_rows, pm.n_cols
    for bits in range(2 ** (n + m)):
        e = [1 if (bits >> i) & 1 else -1 for i in range(n)]
        f = [1 if (bits >> (n + j)) & 1 else -1 for j in range(m)]
        if all(e[i] * f[j] == v for (i, j), v in pm.entries.items()):
            return True
    return False


def test_signs_against_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        mask = rng.random((n, m)) < 0.5
        a = np.where(rng.random((n, m)) < 0.5, 1.0, -1.0)
        pm = PartialMatrix.from_dense(a, mask)
        assert rank1_complete_signs(pm).feasible == brute_force_sign_feasible(pm)


# the congruence read off an index-aligned generator matching: raw cones
# spanned by the generators' outer products, matched in the order given


def _reconstruct(xs, ys):
    """``_try_matching`` of the raw cones of xs and ys, matched in order,
    and the two cones."""
    k1, k2 = (rc.make_cone(len(v[0]), [symlin.outer(np.asarray(g, dtype=float)) for g in v],
                           v, check=False) for v in (xs, ys))
    assert len(k1.generators) == len(xs) and len(k2.generators) == len(ys)
    return _try_matching(k1, k2, list(range(len(xs))), _greedy_basis(k1.generators.T)), k1, k2


def _assert_witness(out, k1, k2, a):
    """S is a multiple of a and sends each generator to its match up to sign."""
    assert out is not None and out.status == "isomorphic"
    s, sigma = out.witness.s_matrix, out.witness.sigma
    img = s @ k1.generators.T
    img = sigma * img / np.linalg.norm(img, axis=0)
    assert np.allclose(img, k2.generators.T, atol=1e-8)
    ratio = s / (np.vdot(a, s) / np.vdot(a, a))
    assert np.allclose(ratio, a, atol=1e-8 * np.linalg.norm(a))


def test_reconstruct_identity():
    xs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    _assert_witness(*_reconstruct(xs, xs), np.eye(2))


def test_reconstruct_homothety():
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    _assert_witness(*_reconstruct(xs, [-2.0 * x for x in xs]), np.eye(2))


def test_reconstruct_shear_with_signs():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    xs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    signs = [1.0, -1.0, 1.0]
    _assert_witness(*_reconstruct(xs, [s * a @ x for s, x in zip(signs, xs)]), a)


def test_reconstruct_roundtrip_random(rng):
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 4))
        a = random_congruence(rng, n)
        xs = [rng.standard_normal(n) for _ in range(m)]
        if np.linalg.matrix_rank(np.array(xs)) < n:
            continue
        signs = rng.choice([-1.0, 1.0], m)
        _assert_witness(*_reconstruct(xs, [s * a @ x for s, x in zip(signs, xs)]), a)


@pytest.mark.parametrize("xs, ys", [
    # e1 + e2 is matched with e1 + e2 + e3: the zero patterns differ
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
    # the basis e1, e2, e3 is matched with e1, e2, e1 + e2: singular
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
     [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]),
], ids=["zero-pattern", "singular-basis"])
def test_reconstruct_incompatible(xs, ys):
    assert _reconstruct(xs, ys)[0] is None


def test_cones_isomorphic_roundtrip(rng):
    k = rc.hankel_cone(3)
    a = random_congruence(rng, 3)
    ka = rc.apply_congruence(k, a, keep_expr=False)
    out = rc.cones_isomorphic(k, ka)
    assert out.status == "isomorphic"


def test_cones_isomorphic_shuffled_generators(rng):
    k = rc.tridiagonal_cone(3)
    a = random_congruence(rng, 3)
    ka = rc.apply_congruence(k, a, keep_expr=False)
    shuffled = ka.copy_with(generators=ka.generators[rng.permutation(len(ka.generators))])
    out = rc.cones_isomorphic(k, shuffled)
    assert out.status == "isomorphic"


def test_cones_isomorphic_exhausted_search_reports_count():
    """Tri4 and FullExtDiag3 share degree and dimension, and their pair
    graphs differ, so the search runs out without a candidate: the
    result is "inconclusive" with the search's reason and node count,
    not a claim."""
    out = rc.cones_isomorphic(rc.tridiagonal_cone(4),
                              rc.full_extension(rc.diagonal_cone(3), 4))
    assert out.status == "inconclusive" and out.witness is None
    assert out.reason.startswith("matching search exhausted after 0 nodes")


def test_complex_cones_are_inconclusive_without_a_search(monkeypatch):
    """The rank-1 completion is real, so complex cones are not matched."""
    searches = count_calls(monkeypatch, isomorph, "_search_matching")
    k = rc.block_toeplitz_cone(3, 1)
    a = np.array([[1.0, 0.5j, 0.0], [0.2, 1.0, 0.3j], [0.0, 0.1, 1.0]])
    out = rc.cones_isomorphic(k, rc.apply_congruence(k, a, keep_expr=False))
    assert out.status == "inconclusive" and "over the reals" in out.reason
    assert searches == []


def test_cones_isomorphic_catalog_congruent(rng):
    for name, (cone, _) in catalog_constructions().items():
        moved = rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False)
        out = rc.cones_isomorphic(cone, moved)
        assert out.status == "isomorphic", (name, out.reason)
        s = out.witness.s_matrix
        for mat in cone.span_basis:
            img = s @ mat @ s.T
            dist = symlin.span_distance(moved.span_basis, img)
            assert dist < 1e-7 * (1.0 + np.linalg.norm(img)), name


def test_cones_not_isomorphic_signature():
    out = rc.cones_isomorphic(rc.hankel_cone(3), rc.tridiagonal_cone(3))
    assert out.status == "not_isomorphic"
    assert "signature" in out.reason


def test_cross_ratio_values():
    # angles with cotangents (0, 1, 2, 3)
    phis = [np.arctan2(1.0, c) for c in (0.0, 1.0, 2.0, 3.0)]
    lam = cross_ratio(*phis)
    assert abs(lam - 4.0 / 3.0) < 1e-12


def test_cross_ratio_harmonic():
    # cotangents (1, -1, 0, infinity); the vertical line is angle 0
    phis = [np.pi / 4, 3 * np.pi / 4, np.pi / 2, 0.0]
    lam = cross_ratio(*phis)
    assert abs(lam - (-1.0)) < 1e-12
    orbit = sorted(set(round(v, 9) for v in s4_orbit(lam)))
    assert orbit == [-1.0, 0.5, 2.0]


def test_cross_ratio_swap_inverts():
    phis = [0.3, 0.9, 1.7, 2.5]
    lam = cross_ratio(*phis)
    swapped = cross_ratio(phis[1], phis[0], phis[2], phis[3])
    assert abs(swapped - 1.0 / lam) < 1e-10
    assert same_s4_orbit(lam, swapped)


def test_cross_ratio_coincident_rejected():
    with pytest.raises(InvalidInputError):
        cross_ratio(0.3, 0.3, 1.0, 2.0)


def test_s4_orbit_invariance():
    phis = [0.25, 0.85, 1.55, 2.45]
    lam = cross_ratio(*phis)
    for perm in itertools.permutations(range(4)):
        lam_p = cross_ratio(*[phis[i] for i in perm])
        assert same_s4_orbit(lam, lam_p)


def test_cross_ratio_cones_isomorphism(rng):
    phis = [np.arctan2(1.0, c) for c in (0.0, 1.0, 2.0, 3.0)]
    k1 = rc.cross_ratio_cone(phis)
    # a permuted quadruple has an S4-equivalent cross-ratio
    k2 = rc.cross_ratio_cone([phis[2], phis[0], phis[3], phis[1]])
    out = rc.cones_isomorphic(k1, k2)
    assert out.status == "isomorphic"
    a = out.witness.s_matrix
    for s in k1.span_basis:
        img = a @ s @ a.T
        assert symlin.span_distance(k2.span_basis, img) < 1e-7

    phis_b = [np.arctan2(1.0, c) for c in (0.0, 1.0, 2.0, -4.0)]
    assert abs(cross_ratio(*phis_b) - 2.5) < 1e-12
    k3 = rc.cross_ratio_cone(phis_b)
    out = rc.cones_isomorphic(k1, k3)
    assert out.status == "not_isomorphic"


def test_cones_isomorphic_k4_minus_edge(rng):
    # the codim-1 signatures compared here need the form from the symmetric
    # kernel; in the full n^2 space the kernel also holds antisymmetric ones
    k = rc.chordal_cone(rc.ChordalGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))
    for _ in range(3):
        ka = rc.apply_congruence(k, random_congruence(rng, 4), keep_expr=False)
        assert rc.cones_isomorphic(k, ka).status == "isomorphic"


def test_codim1_form_recovers_the_form(rng):
    from rogcones.isomorph import codim1_form
    q = np.diag([1.0, 2.0, -1.0, -0.5])
    a = random_congruence(rng, 4)
    a_inv = np.linalg.inv(a)
    for cone, form in ((rc.codim1_cone(q), q),
                       (rc.apply_congruence(rc.codim1_cone(q), a), a_inv.T @ q @ a_inv)):
        got = codim1_form(cone)
        form = form / np.linalg.norm(form)
        assert min(np.linalg.norm(got - form), np.linalg.norm(got + form)) < 1e-8


def _greedy_one_column_at_a_time(cols):
    """The greedy pick computing one column's residual at a time."""
    n = cols.shape[0]
    chosen, residuals = [], []
    basis = np.zeros((n, 0))
    for _ in range(n):
        best, best_res = None, 1e-9
        for j in range(cols.shape[1]):
            if j in chosen:
                continue
            r = cols[:, j] - basis @ (basis.T @ cols[:, j]) if basis.shape[1] else cols[:, j]
            res = np.linalg.norm(r)
            if res > best_res:
                best, best_res = j, res
        if best is None:
            break
        chosen.append(best)
        residuals.append(best_res)
        new = cols[:, best]
        if basis.shape[1]:
            new = new - basis @ (basis.T @ new)
        basis = np.hstack([basis, (new / np.linalg.norm(new))[:, None]])
    return chosen, residuals


@pytest.mark.parametrize("cone", [
    rc.full_psd_cone(4), rc.hankel_cone(3), rc.hankel_cone(5), rc.hankel_cone(3, 2),
    rc.chordal_cone(random_chordal_graph(np.random.default_rng(3), 7)),
    rc.chordal_cone(rc.ChordalGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))],
    ids=["full_psd4", "hankel3", "hankel5", "hankel3x2", "chordal7", "chordal4"])
def test_greedy_basis_matches_the_column_loop(cone):
    cols = cone.generators.T
    got = _greedy_basis(cols)
    want, residuals = _greedy_one_column_at_a_time(cols)
    assert got == want
    assert len(got) == cone.n and min(residuals) > 1e-9
    assert np.linalg.matrix_rank(cols[:, got]) == cone.n


def test_span_maps_onto_tests_each_direction_in_one_kernel_call(monkeypatch, rng):
    k = rc.hankel_cone(4)
    moved = rc.apply_congruence(k, random_congruence(rng, 4), keep_expr=False)
    calls = count_span_tests(monkeypatch)
    per_call = []
    real = isomorph._span_maps_onto

    def counted(*args):
        start = len(calls)
        out = real(*args)
        per_call.append(calls[start:])
        return out
    monkeypatch.setattr(isomorph, "_span_maps_onto", counted)
    assert rc.cones_isomorphic(k, moved).status == "isomorphic"
    assert per_call == [["span_distances"]] * 2
    assert not real(np.eye(4), k.span_basis, rc.tridiagonal_cone(4).span_basis)


# ---------------------------------------------------------------------------
# codimension <= 1: the congruence by Sylvester's law of inertia


def _maps_spans(s_mat, k1, k2):
    for a, src, dst in ((s_mat, k1, k2), (np.linalg.inv(s_mat), k2, k1)):
        img = a @ src.span_basis @ a.T
        dist = symlin.span_distances(dst.span_basis, img)
        if not (dist < 1e-7 * (1.0 + np.linalg.norm(img, axis=(1, 2)))).all():
            return False
    return True


def test_codim_le1_pairs_are_congruent_by_inertia(monkeypatch):
    """Shuffled congruent copies of every catalog cone of codimension <= 1
    come out isomorphic with a verified structural witness, and no
    generator matching is tried."""
    rng = np.random.default_rng(21)
    searches = count_calls(monkeypatch, isomorph, "_match_and_reconstruct")
    cases = 0
    for name, (cone, _) in catalog_constructions().items():
        if codimension(cone) > 1:
            continue
        for _ in range(5):
            moved = rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False)
            shuffled = moved.copy_with(
                generators=moved.generators[rng.permutation(len(moved.generators))])
            out = rc.cones_isomorphic(cone, shuffled)
            assert out.status == "isomorphic", (name, out.reason)
            assert out.witness.sigma.size == 0, name
            assert _maps_spans(out.witness.s_matrix, cone, shuffled), name
            cases += 1
    assert cases == 50 and searches == []


def test_codim1_signatures_decide_without_a_search(monkeypatch):
    searches = count_calls(monkeypatch, isomorph, "_match_and_reconstruct")
    out = rc.cones_isomorphic(rc.codim1_cone(np.diag([1.0, 1.0, -1.0, -1.0])),
                              rc.codim1_cone(np.diag([1.0, 1.0, 1.0, -1.0])))
    assert out.status == "not_isomorphic" and "signature" in out.reason
    # Q and -Q cut out one section: swapped signs are the same class
    out = rc.cones_isomorphic(rc.codim1_cone(np.diag([1.0, 2.0, -1.0])),
                              rc.codim1_cone(np.diag([-1.0, 1.0, -3.0])))
    assert out.status == "isomorphic"
    assert searches == []


def _isomorphic_pairs():
    rng = np.random.default_rng(22)
    base = [0.15, 0.8, 1.65, 2.4]
    pairs = [(rc.cross_ratio_cone(base),
              rc.cross_ratio_cone([base[2], base[0], base[3], base[1]]))]
    for name, (cone, _) in catalog_constructions().items():
        pairs.append((cone, rc.apply_congruence(cone, random_congruence(rng, cone.n),
                                                keep_expr=False)))
    cone = rc.hankel_cone(3, 2)
    pairs.append((cone, rc.apply_congruence(cone, random_congruence(rng, 6), keep_expr=False)))
    return pairs


def test_witness_signs_are_checked_or_empty():
    """A non-empty sigma is a claim about matched generators: each
    sigma_i S x_i is, up to a positive factor, a generator of the second
    cone.  Structural witnesses (cross-ratio, codimension <= 1) match no
    generators and carry an empty sigma."""
    matched = 0
    for k1, k2 in _isomorphic_pairs():
        out = rc.cones_isomorphic(k1, k2)
        assert out.status == "isomorphic"
        s_mat, sigma = out.witness.s_matrix, out.witness.sigma
        structural = (codimension(k1) <= 1
                      or (k1.expr is not None and k1.expr.kind == "cross_ratio"))
        assert (sigma.size == 0) == structural
        if sigma.size == 0:
            continue
        assert len(sigma) == len(k1.generators)
        img = sigma * (s_mat @ k1.generators.T)
        img /= np.linalg.norm(img, axis=0)
        assert (np.abs(k2.generators @ img - 1.0).min(axis=0) < 1e-6).all()
        matched += 1
    assert matched >= 5


def _assert_verified_witness(k1, k2):
    """cones_isomorphic finds a witness S that maps each span onto the
    other, and each sigma_i S x_i of a matched one is a generator of k2."""
    out = rc.cones_isomorphic(k1, k2)
    assert out.status == "isomorphic", out.reason
    s_mat, sigma = out.witness.s_matrix, out.witness.sigma
    assert _maps_spans(s_mat, k1, k2)
    if sigma.size:
        img = sigma * (s_mat @ k1.generators.T)
        img /= np.linalg.norm(img, axis=0)
        assert (np.abs(k2.generators @ img - 1.0).min(axis=0) < 1e-6).all()


_CATALOG = catalog_constructions()


@pytest.mark.parametrize("name", sorted(_CATALOG))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shuffled_congruent_catalog_copies_are_matched(name, seed):
    rng = np.random.default_rng(seed)
    cone = _CATALOG[name][0]
    moved = rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False)
    perm = rng.permutation(len(moved.generators))
    _assert_verified_witness(
        cone, rc.make_cone(cone.n, moved.span_basis, moved.generators[perm], check=False))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 10), seed=st.integers(0, 2**32 - 1))
def test_vertex_permuted_chordal_pairs_are_matched(n, seed):
    rng = np.random.default_rng(seed)
    graph = random_chordal_graph(rng, n)
    p = rng.permutation(n)
    permuted = rc.ChordalGraph(n, [(int(p[u]), int(p[v])) for u, v in graph.edges])
    _assert_verified_witness(rc.chordal_cone(graph), rc.chordal_cone(permuted))


_HANKEL12 = rc.hankel_cone(12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ill_conditioned_congruent_hankel_copy_is_matched(seed):
    # the moment generators of hankel_cone(12) are far from orthogonal: the
    # matched basis has a determinant near 1e-12 at a condition number near
    # 4e3, and a residual read against n matched columns used to grow the
    # search's basis past n
    moved = rc.apply_congruence(_HANKEL12, random_congruence(np.random.default_rng(seed), 12),
                                keep_expr=False)
    _assert_verified_witness(_HANKEL12, moved)


def test_capped_search_on_an_ill_conditioned_copy_is_inconclusive(monkeypatch):
    rng = np.random.default_rng(3)
    moved = rc.apply_congruence(_HANKEL12, random_congruence(rng, 12), keep_expr=False)
    shuffled = moved.copy_with(
        generators=moved.generators[rng.permutation(len(moved.generators))])
    monkeypatch.setattr(isomorph, "_SEARCH_NODES", 10)
    out = rc.cones_isomorphic(_HANKEL12, shuffled)
    assert out.status == "inconclusive"
    assert "cap of 10 nodes" in out.reason
