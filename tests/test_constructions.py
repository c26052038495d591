import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import jsonio, symlin
from rogcones.constructions import _avoiding_path_cycle, chordless_cycle, mcs_order
from rogcones.errors import InvalidInputError

from conftest import random_chordal_graph


def span_equal(k1, k2, tol=1e-8):
    if k1.dim != k2.dim:
        return False
    return all(symlin.span_distance(k2.span_basis, s) < tol for s in k1.span_basis)


def test_all_builders_certified():
    cones = [
        rc.full_psd_cone(3), rc.diagonal_cone(4), rc.hankel_cone(4),
        rc.hankel_cone(2, 2), rc.tridiagonal_cone(4),
        rc.codim1_cone(np.diag([1.0, -1.0, 1.0])), rc.ternary_quartic_cone(),
        rc.cross_ratio_cone([0.3, 1.0, 1.8, 2.6]),
        rc.direct_sum(rc.hankel_cone(3), rc.full_psd_cone(2)),
        rc.full_extension(rc.hankel_cone(3), 5),
        rc.intertwine(rc.full_psd_cone(2), rc.full_psd_cone(2),
                      rc.rank1_glue(None, [0, 1], None, [1, 0])),
        rc.block_toeplitz_cone(2, 2),
    ]
    for k in cones:
        assert rc.certificate_complete(k), k.expr.kind


def test_hankel_dimensions():
    for n in range(2, 7):
        assert rc.dimension(rc.hankel_cone(n)) == 2 * n - 1
    assert rc.dimension(rc.hankel_cone(2, 2)) == 9
    assert span_equal(rc.hankel_cone(1, 3), rc.full_psd_cone(3))


def test_direct_sum_adds():
    k = rc.direct_sum(rc.hankel_cone(3), rc.full_psd_cone(2))
    assert rc.dimension(k) == 8
    assert rc.degree(k) == 5
    k2 = rc.direct_sum(rc.full_psd_cone(2), rc.full_psd_cone(2))
    assert rc.dimension(k2) == 6 and rc.degree(k2) == 4
    k3 = rc.direct_sum(rc.full_psd_cone(1), rc.full_psd_cone(1))
    assert rc.dimension(k3) == 2


def test_full_extension_examples():
    k = rc.full_extension(rc.diagonal_cone(2), 3)
    assert rc.dimension(k) == 5
    out = rc.cones_isomorphic(k, rc.tridiagonal_cone(3))
    assert out.status == "isomorphic"

    k2 = rc.full_extension(rc.full_psd_cone(2), 3)
    assert span_equal(k2, rc.full_psd_cone(3))

    k3 = rc.full_extension(rc.direct_sum(rc.full_psd_cone(1), rc.full_psd_cone(2)), 4)
    assert rc.dimension(k3) == 8 and rc.degree(k3) == 4

    with pytest.raises(InvalidInputError):
        rc.full_extension(rc.full_psd_cone(3), 3)


def test_full_extension_degree_law(rng):
    for _ in range(10):
        base = rc.hankel_cone(int(rng.integers(2, 4)))
        n = base.n + int(rng.integers(1, 3))
        ext = rc.full_extension(base, n)
        assert rc.degree(ext) == n - base.n + rc.degree(base)


def test_intertwine_examples():
    s2 = rc.full_psd_cone(2)
    arrow = rc.intertwine(s2, s2, rc.rank1_glue(s2, [0, 1], s2, [1, 0]))
    assert arrow.n == 3 and rc.dimension(arrow) == 5

    k = rc.intertwine(rc.hankel_cone(3), s2,
                      rc.rank1_glue(rc.hankel_cone(3), [1, 1, 1], s2, [1, 0]))
    assert k.n == 4 and rc.dimension(k) == 7

    with pytest.raises(InvalidInputError):
        rc.intertwine(s2, s2, rc.GlueSpec(0, np.zeros((2, 0)), np.zeros((2, 0))))


def test_intertwine_dimension_law(rng):
    # dim = dim L1 + dim L2 - k(k+1)/2
    k1 = rc.full_psd_cone(3)
    k2 = rc.full_psd_cone(3)
    glue = rc.GlueSpec(2, np.eye(3)[:, 1:], np.eye(3)[:, :2])
    k = rc.intertwine(k1, k2, glue)
    assert rc.dimension(k) == 6 + 6 - 3
    assert rc.degree(k) == 4


def test_intertwine_rejects_non_face():
    # the glue span must carry a full face: a Hankel node works, a random
    # direction does not
    han = rc.hankel_cone(3)
    s2 = rc.full_psd_cone(2)
    with pytest.raises(InvalidInputError):
        rc.intertwine(han, s2, rc.rank1_glue(han, [1.0, 2.0, 3.0], s2, [1, 0]))


def test_chordal_path_equals_tridiagonal():
    g = rc.ChordalGraph(4, [(0, 1), (1, 2), (2, 3)])
    k = rc.chordal_cone(g)
    assert rc.dimension(k) == 7
    pattern = rc.tridiagonal_cone(4)
    assert span_equal(k, pattern)


def test_chordal_complete_graph():
    g = rc.ChordalGraph(3, [(0, 1), (0, 2), (1, 2)])
    assert span_equal(rc.chordal_cone(g), rc.full_psd_cone(3))


@pytest.mark.parametrize("n, edges, rays", [
    (3, [(0, 1), (1, 2)], [(0,), (1,), (0, 1), (2,), (1, 2)]),
    (4, [(3, 0), (3, 1), (3, 2)], [(0,), (3,), (0, 3), (1,), (3, 1), (2,), (3, 2)]),
    (6, [(0, 1), (0, 2), (1, 2), (3, 5)],
     [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (3,), (5,), (3, 5), (4,)]),
    (3, [], [(0,), (1,), (2,)]),
])
def test_chordal_certificate_in_mcs_order(n, edges, rays):
    """e_v, then (e_u + e_v) / sqrt(2) for each earlier neighbor u, vertex
    by vertex in MCS order; the bit-exact JSON round trip depends on it.
    Those rays are unit up to rounding, so make_cone keeps them as built."""
    eye = np.eye(n)
    expected = [eye[list(ray)].sum(axis=0) / np.sqrt(len(ray)) for ray in rays]
    cone = rc.chordal_cone(rc.ChordalGraph(n, edges))
    assert np.array_equal(cone.generators, np.array(expected))
    assert rc.certificate_complete(cone)


def test_chordal_rejects_cycle():
    with pytest.raises(InvalidInputError) as err:
        rc.ChordalGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    msg = str(err.value)
    assert "chordless cycle" in msg
    assert all(str(v) in msg for v in (1, 2, 3, 4))


def scan_chordless_cycle(n, edges):
    """``chordless_cycle`` as it was before its early return: the backup
    scan over every vertex runs whenever the MCS pairs give no cycle."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    order = mcs_order(n, adj)
    pos = {v: idx for idx, v in enumerate(order)}
    pairs = [(v, a, b) for idx, v in enumerate(order)
             for a in adj[v] for b in adj[v]
             if pos[a] < idx and pos[b] < idx and a < b and b not in adj[a]]
    pairs += [(v, a, b) for v in range(n) for a in sorted(adj[v]) for b in sorted(adj[v])
              if a < b and b not in adj[a]]
    for v, a, b in pairs:
        cycle = _avoiding_path_cycle(n, adj, v, a, b)
        if cycle is not None:
            return cycle
    return None


def is_chordless_cycle(edges, cycle):
    edge_set = {(min(i, j), max(i, j)) for i, j in edges}
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            if ((min(cycle[i], cycle[j]), max(cycle[i], cycle[j])) in edge_set) != consecutive:
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), extra=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_chordless_cycle_matches_the_full_scan(n, extra, seed):
    # chordal graphs, then the same graphs with random edges added, which
    # may or may not break chordality
    rng = np.random.default_rng(seed)
    edges = set(random_chordal_graph(rng, n).edges)
    base = sorted(edges)
    for _ in range(extra if n > 1 else 0):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((i, j))
    for graph in (base, sorted(edges)):
        cycle = chordless_cycle(n, graph)
        assert (cycle is None) == (scan_chordless_cycle(n, graph) is None)
        if cycle is not None:
            assert is_chordless_cycle(graph, cycle)


def test_codim1_examples():
    k = rc.codim1_cone(np.diag([1.0, -1.0]))
    assert rc.dimension(k) == 2
    for x in k.generators:
        assert abs(abs(x[0]) - abs(x[1])) < 1e-9
    with pytest.raises(InvalidInputError):
        rc.codim1_cone(np.diag([1.0, 1.0]))


def test_codim1_class_count_n4():
    qs = [np.diag(v) for v in ([1, -1, 0, 0], [1, 1, -1, 0],
                               [1, 1, -1, -1], [1, 1, 1, -1.0])]
    labels = {rc.classify_small(rc.codim1_cone(np.asarray(q, dtype=float))) for q in qs}
    assert len(labels) == 4  # [n^2/4] classes at n = 4


def test_ternary_quartic_structure():
    k = rc.ternary_quartic_cone()
    assert rc.dimension(k) == 15
    assert rc.degree(k) == 6
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert rc.membership(k, np.outer(e1, e1))
    # span matches the 15-parameter entry pattern
    layout = [
        [1, 6, 5, 7, 12, 14],
        [6, 2, 4, 15, 8, 10],
        [5, 4, 3, 11, 13, 9],
        [7, 15, 11, 4, 9, 8],
        [12, 8, 13, 9, 5, 7],
        [14, 10, 9, 8, 7, 6],
    ]
    pattern = []
    for p in range(1, 16):
        mat = np.array([[1.0 if layout[i][j] == p else 0.0 for j in range(6)]
                        for i in range(6)])
        pattern.append(mat)
    pk = rc.make_cone(6, pattern, [], check=False)
    assert span_equal(k, pk)


def test_cross_ratio_structure(rng):
    k = rc.cross_ratio_cone([0.2, 1.0, 1.9, 2.8])
    assert rc.dimension(k) == 11
    assert rc.degree(k) == 6
    planes = k.expr.aux["planes"]
    for _ in range(20):
        x = rc.random_extreme_ray(k, rng)
        hits = sum(1 for h in planes
                   if np.linalg.norm(x - h @ (h.T @ x)) < 1e-8)
        assert hits >= 1
    with pytest.raises(InvalidInputError):
        rc.cross_ratio_cone([0.2, 0.2, 1.0, 2.0])


def test_moment_cone_hankel_span():
    k = rc.moment_cone_from_samples(None, [[-2.0], [-1.0], [0.0], [1.0], [2.0]],
                                    powers=[(0,), (1,), (2,)])
    assert span_equal(k, rc.hankel_cone(3))


def test_moment_cone_ternary_quartic_span(rng):
    samples = [rng.standard_normal(3) for _ in range(20)]
    powers = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    k = rc.moment_cone_from_samples(None, samples, powers=powers)
    assert span_equal(k, rc.ternary_quartic_cone())


def test_moment_cone_single_sample():
    k = rc.moment_cone_from_samples(None, [[2.0]], powers=[(0,), (1,)])
    assert rc.dimension(k) == 1


def test_block_toeplitz_examples():
    k = rc.block_toeplitz_cone(2, 1)
    w = np.array([1.0, 1j])
    t = np.outer(w, w.conj())
    assert np.allclose(t, np.array([[1.0, -1j], [1j, 1.0]]))
    assert symlin.span_distance(k.span_basis, t) < 1e-9
    assert rc.dimension(k) == 3  # one real diagonal + one complex off value
    full = rc.block_toeplitz_cone(1, 3)
    assert rc.dimension(full) == 9  # entire Hermitian cone


def test_build_roundtrip():
    exprs = [
        {"kind": "full_psd", "params": {"n": 3}},
        {"kind": "hankel", "params": {"n": 3, "m": 1}},
        {"kind": "tridiag", "params": {"n": 4}},
        {"kind": "chordal", "params": {"n": 4, "edges": [[0, 1], [1, 2], [1, 3]]}},
        {"kind": "codim1", "params": {"Q": [[1.0, 0.0], [0.0, -1.0]]}},
        {"kind": "ternary_quartic", "params": {}},
        {"kind": "cross_ratio", "params": {"angles": [0.3, 1.1, 1.9, 2.7]}},
        {"kind": "full_ext", "params": {"n": 4},
         "children": [{"kind": "diagonal", "params": {"n": 2}}]},
        {"kind": "direct_sum", "params": {},
         "children": [{"kind": "full_psd", "params": {"n": 1}},
                      {"kind": "full_psd", "params": {"n": 2}}]},
    ]
    for expr in exprs:
        k = rc.build(expr)
        again = jsonio.cone_from_json(jsonio.cone_to_json(k))
        assert span_equal(k, again, tol=1e-10)
        assert np.allclose(again.generators, k.generators)


def test_builders_deterministic():
    a = rc.codim1_cone(np.diag([1.0, 1.0, -1.0]))
    b = rc.codim1_cone(np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(a.generators, b.generators)
    assert np.array_equal(a.span_basis, b.span_basis)
