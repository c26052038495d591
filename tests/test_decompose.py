import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import cone_model, constructions, symlin
from rogcones.decompose import (decompose_block_toeplitz, decompose_full_extension,
                                decompose_hankel, decompose_intertwining,
                                extreme_ray_oracle)
from rogcones.errors import InvalidInputError, OracleUnavailableError
from rogcones.qcqp_relax import QcqpProblem, induced_cone
from conftest import (catalog_constructions, count_calls, family_registry,
                      random_chordal_graph, random_congruence, rank_r_member)


def moment(t):
    return np.array([1.0, t, t * t])


def check_decomposition(cone, x_mat, dec, tol=1e-7):
    scale = 1.0 + np.linalg.norm(x_mat)
    assert dec.residual <= tol * scale
    assert len(dec.atoms) == rc.numeric_rank(x_mat)
    for atom in dec.atoms:
        assert atom.weight >= 0
        assert abs(np.linalg.norm(atom.vector) - 1.0) <= 1e-10
        assert symlin.span_distance(cone.span_basis, symlin.outer(atom.vector)) \
            <= 1e-7 * 2.0
    vecs = np.array([a.vector for a in dec.atoms])
    if len(vecs):
        sv = np.linalg.svd(vecs, compute_uv=False)
        assert sv[-1] > 1e-7  # linearly independent atom vectors


def test_carath_identity_full_psd():
    k = rc.full_psd_cone(3)
    dec = rc.carath_decompose(k, np.eye(3))
    assert len(dec.atoms) == 3
    check_decomposition(k, np.eye(3), dec)


def test_carath_hankel_nodes():
    k = rc.hankel_cone(3)
    x = np.outer(moment(1), moment(1)) + np.outer(moment(-1), moment(-1))
    dec = rc.carath_decompose(k, x)
    check_decomposition(k, x, dec)
    nodes = sorted(a.vector[1] / a.vector[0] for a in dec.atoms)
    assert np.allclose(nodes, [-1.0, 1.0], atol=1e-8)
    assert np.allclose(sorted(a.weight for a in dec.atoms), [3.0, 3.0], atol=1e-8)


def test_carath_codim1():
    k = rc.codim1_cone(np.diag([1.0, -1.0]))
    dec = rc.carath_decompose(k, np.eye(2))
    check_decomposition(k, np.eye(2), dec)
    for a in dec.atoms:
        assert abs(abs(a.vector[0]) - abs(a.vector[1])) < 1e-8
    assert np.allclose([a.weight for a in dec.atoms], [1.0, 1.0], atol=1e-8)


# kinds that decompose routes by elimination or recursion, with no rank-1 rule
_NO_RULE = {"tridiag4": "tridiag", "chordal6": "chordal", "full_ext_han3": "full_ext"}


@pytest.mark.parametrize("name", sorted(family_registry()))
def test_carath_families(name, rng):
    cone = family_registry()[name]
    deg = rc.degree(cone)
    for _ in range(10):
        r = int(rng.integers(1, deg + 1))
        x = rank_r_member(cone, rng, r)
        if name in _NO_RULE:
            with pytest.raises(OracleUnavailableError, match=f"'{_NO_RULE[name]}'"):
                rc.carath_decompose(cone, x)
            continue
        dec = rc.carath_decompose(cone, x)
        check_decomposition(cone, x, dec)
        for atom in dec.atoms:
            assert rc.membership(cone, atom.matrix(), 1e-7)


def test_decompose_full_extension_structure(rng):
    child = rc.hankel_cone(3)
    k = rc.full_extension(child, 5)
    for _ in range(10):
        x = rank_r_member(k, rng, int(rng.integers(1, 6)))
        dec = decompose_full_extension(k, x)
        check_decomposition(k, x, dec)


def test_decompose_full_extension_block_diag():
    child = rc.hankel_cone(3)
    k = rc.full_extension(child, 4)
    x_child = np.outer(moment(2.0), moment(2.0))
    x = np.zeros((4, 4))
    x[:3, :3] = x_child
    dec = decompose_full_extension(k, x)
    assert len(dec.atoms) == 1
    assert abs(dec.atoms[0].vector[3]) < 1e-9


def test_decompose_full_extension_identity_diag3():
    k = rc.full_extension(rc.diagonal_cone(2), 3)
    dec = rc.decompose(k, np.eye(3))
    assert len(dec.atoms) == 3
    for a in dec.atoms:
        assert np.abs(a.vector).max() > 1 - 1e-9  # coordinate directions


@pytest.mark.parametrize("x", [np.diag([1.0, 1.0, -1.0]),
                               np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])],
                         ids=["negative-tail", "strip-off-range"])
def test_decompose_full_extension_rejects_non_members(x):
    k = rc.full_extension(rc.full_psd_cone(2), 3)
    assert not rc.membership(k, x)
    with pytest.raises(InvalidInputError):
        rc.decompose(k, x)
    with pytest.raises(InvalidInputError):
        rc.carath_decompose(k, x)


@pytest.mark.parametrize("c", [1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("child", ["hankel3", "codim1"])
def test_decompose_full_extension_is_scale_free(child, c):
    # the tail's rank is cut at the scale of X, so the rounding of the Schur
    # complement reads neither as an atom nor as a PSD failure
    base = rc.hankel_cone(3) if child == "hankel3" else family_registry()["codim1"]
    cone = rc.full_extension(base, 5)
    degree = rc.degree(cone)
    for i in range(30):
        x = rank_r_member(cone, np.random.default_rng(i), 1 + i % degree)
        dec = rc.decompose(cone, c * x)
        assert len(dec.atoms) == rc.numeric_rank(x)
        assert dec.residual <= 1e-7 * np.linalg.norm(c * x)


def test_full_extension_keeps_a_small_head():
    # a rank-1 member whose vector lies almost on the two extension
    # coordinates: its head block h h^T (9e-10) fell under the child's rank
    # cut, and the strip h t^T (2.2e-5) was dropped with it
    v = np.array([4.5540898631286087e-06, 9.0096838620823405e-06, 1.7824506263198529e-05,
                  3.5263504069878859e-05, -1.9529583053639848e-01, -9.8074437898565425e-01])
    x = 0.5422273939862787 * np.outer(v, v)
    cone = rc.full_extension(rc.hankel_cone(4), 6)
    dec = rc.decompose(cone, x)
    check_decomposition(cone, x, dec)
    assert dec.residual <= 1e-10


@settings(max_examples=60, deadline=None)
@given(child=st.sampled_from(["hankel4", "tridiag4", "diagonal5"]), rank=st.integers(1, 2),
       log_norm=st.floats(-8.0, -2.0), seed=st.integers(0, 2**32 - 1))
def test_full_extension_decomposes_members_with_a_small_child_part(child, rank, log_norm,
                                                                   seed):
    # the child part of each atom has a norm from 1e-8 to 1e-2 against a
    # unit tail, so the head block is 1e-16 to 1e-4 of X
    base = family_registry()[child]
    cone = rc.full_extension(base, base.n + 2)
    rng = np.random.default_rng(seed)
    x = np.zeros((cone.n, cone.n))
    for _ in range(rank):
        tail = rng.standard_normal(2)
        v = np.concatenate([10.0 ** log_norm * rc.random_extreme_ray(base, rng),
                            tail / np.linalg.norm(tail)])
        x += rng.uniform(0.5, 2.0) * np.outer(v, v)
    check_decomposition(cone, x, rc.decompose(cone, x))


@pytest.mark.parametrize("c", [1.0, 1e4, 1e8, 1e12])
def test_decompose_intertwining_is_scale_free(c):
    # on a rank-1 member the Schur split can hand one child a share of pure
    # rounding of X's scale: it is skipped, neither an atom nor a PSD failure
    cone = rc.intertwine(rc.full_psd_cone(2), rc.hankel_cone(3),
                         rc.rank1_glue(None, [1.0, 0.0], None, [0.0, 0.0, 1.0]))
    degree = rc.degree(cone)
    for i in range(30):
        x = rank_r_member(cone, np.random.default_rng(i), 1 + i % degree)
        dec = rc.decompose(cone, c * x)
        assert len(dec.atoms) == rc.numeric_rank(x)
        assert dec.residual <= 1e-7 * np.linalg.norm(c * x)


_CHORDAL_CONES = {
    # the chordal cone of tests/test_kinds.py; draw 15 (rank 4) has eigenvalues
    # from 1.1e-5 to 4.3, so a cut at the scale of a late iterate misreads it
    "kinds4": rc.chordal_cone(rc.ChordalGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
    "tridiag4": rc.tridiagonal_cone(4),
    "random8": rc.chordal_cone(random_chordal_graph(np.random.default_rng(10), 8)),
}


@pytest.mark.parametrize("c", [1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("name", sorted(_CHORDAL_CONES))
def test_chordal_route_is_scale_free(monkeypatch, name, c):
    # zero-fill elimination tests each column against the cut of X's
    # eigenvalues, at the scale of X.  c < 1 is left out: the absolute floor
    # of symlin.cut (tol * max(1, max|v|)) cuts draw 15 of kinds4 wrongly
    # there, on the peel as on this route
    cone = _CHORDAL_CONES[name]
    peels = count_calls(monkeypatch, importlib.import_module("rogcones.decompose"),
                        "carath_decompose")
    degree = rc.degree(cone)
    for i in range(30):
        x = rank_r_member(cone, np.random.default_rng(i), 1 + i % degree)
        dec = rc.decompose(cone, c * x)
        assert len(dec.atoms) == rc.numeric_rank(x)
        assert dec.residual <= 1e-7 * np.linalg.norm(c * x)
    assert peels == []


@pytest.mark.parametrize("name", ["tridiag4", "chordal6", "diagonal5"])
def test_chordal_route_reuses_the_gate_eigendecomposition(monkeypatch, name):
    # one eigh, the gate's, at every rank: the elimination solves nothing
    cone = family_registry()[name]
    rng = np.random.default_rng(6)
    members = [rank_r_member(cone, rng, r) for r in range(1, rc.degree(cone) + 1)]
    calls = _count_eigensolves(monkeypatch)
    for x_mat in members:
        calls.clear()
        dec = rc.decompose(cone, x_mat)
        assert calls == ["eigh"]
        check_decomposition(cone, x_mat, dec)


def test_intertwining_split_reuses_the_gate(monkeypatch):
    # the split neither tests the glued projection for PSD again nor its
    # shares for span membership: each child's gate does
    cone = catalog_constructions()["IntertwineHan3S2"][0]
    rng = np.random.default_rng(7)
    members = [rank_r_member(cone, rng, r) for r in range(1, rc.degree(cone) + 1)]
    calls = _count_eigensolves(monkeypatch)
    spans = count_calls(monkeypatch, symlin, "span_contains")
    for x_mat in members:
        calls.clear()
        dec = rc.decompose(cone, x_mat)
        assert "eigvalsh" not in calls and spans == []
        check_decomposition(cone, x_mat, dec)


def test_intertwining_share_outside_a_child_raises(monkeypatch):
    cone = rc.intertwine(rc.full_psd_cone(2), rc.hankel_cone(3),
                         rc.rank1_glue(None, [1.0, 0.0], None, [0.0, 0.0, 1.0]))
    x_mat = rank_r_member(cone, np.random.default_rng(1), 3)
    real = symlin.schur_shares

    def shifted(m, blocks, tol):
        c1, c2 = real(m, blocks, tol)
        return c1, c2 - (1.0 + np.linalg.norm(m)) * np.eye(len(c2))
    monkeypatch.setattr(symlin, "schur_shares", shifted)
    with pytest.raises(rc.NumericalError, match="split"):
        rc.decompose(cone, x_mat)


def test_decompose_intertwining_counts(rng):
    s2 = rc.full_psd_cone(2)
    arrow = rc.intertwine(s2, s2, rc.rank1_glue(s2, [0, 1], s2, [1, 0]))
    dec = decompose_intertwining(arrow, np.eye(3))
    assert len(dec.atoms) == 3
    check_decomposition(arrow, np.eye(3), dec)

    han = rc.hankel_cone(3)
    k = rc.intertwine(han, s2, rc.rank1_glue(han, [1, 1, 1], s2, [1, 0]))
    x = sum(np.outer(g, g) for g in k.generators)
    x = x / np.linalg.norm(x) * 4
    dec = decompose_intertwining(k, x)
    assert len(dec.atoms) == 4  # generic interior member of a degree-4 cone
    check_decomposition(k, x, dec)


def test_decompose_intertwining_rejects_a_corner_off_the_span():
    # PSD, but the corner block of the glued coordinates is not zero
    s2 = rc.full_psd_cone(2)
    arrow = rc.intertwine(s2, s2, rc.rank1_glue(s2, [0, 1], s2, [1, 0]))
    x = np.eye(3)
    x[0, 2] = x[2, 0] = 0.5
    assert not rc.membership(arrow, x)
    with pytest.raises(InvalidInputError):
        rc.decompose(arrow, x)


def test_decompose_intertwining_child_face():
    s2 = rc.full_psd_cone(2)
    arrow = rc.intertwine(s2, s2, rc.rank1_glue(s2, [0, 1], s2, [1, 0]))
    x = np.zeros((3, 3))
    x[:2, :2] = np.array([[2.0, 1.0], [1.0, 1.0]])
    dec = decompose_intertwining(arrow, x)
    check_decomposition(arrow, x, dec)
    for atom in dec.atoms:
        assert abs(atom.vector[2]) < 1e-9


def test_decompose_hankel_examples():
    k = rc.hankel_cone(3)
    x = np.outer(moment(0.0), moment(0.0))
    dec = decompose_hankel(k, x)
    assert len(dec.atoms) == 1
    assert abs(abs(dec.atoms[0].vector[0]) - 1.0) < 1e-9

    h = np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 2.0]])
    dec = decompose_hankel(k, h)
    assert len(dec.atoms) == 2
    nodes = sorted(a.vector[1] / a.vector[0] for a in dec.atoms)
    assert np.allclose(nodes, [-1.0, 1.0], atol=1e-8)

    e3 = np.zeros(3)
    e3[2] = 1.0
    dec = decompose_hankel(k, np.outer(e3, e3))
    assert len(dec.atoms) == 1
    assert abs(abs(dec.atoms[0].vector[2]) - 1.0) < 1e-9


def test_decompose_hankel_block(rng):
    k = rc.hankel_cone(3, 2)
    for _ in range(10):
        x = rank_r_member(k, rng, int(rng.integers(1, 7)))
        dec = decompose_hankel(k, x)
        check_decomposition(k, x, dec)


def test_decompose_hankel_interior(rng):
    k = rc.hankel_cone(3)
    x = rank_r_member(k, rng, 3)
    dec = decompose_hankel(k, x)
    check_decomposition(k, x, dec)


def test_decompose_hankel_rejects():
    with pytest.raises(InvalidInputError):
        decompose_hankel(rc.hankel_cone(3), np.eye(4))  # size mismatch
    bad = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        decompose_hankel(rc.hankel_cone(3), bad)  # anti-diagonals disagree


def test_decompose_toeplitz_single_atom():
    w = np.kron(1j ** np.arange(2), np.array([1.0 + 0j]))
    t = np.outer(w, w.conj())
    dec = decompose_block_toeplitz(rc.block_toeplitz_cone(2, 1), t)
    assert len(dec.atoms) == 1
    v = dec.atoms[0].vector
    q = v[1] / v[0]
    assert abs(q - 1j) < 1e-8
    assert dec.residual < 1e-10


def test_decompose_toeplitz_identity():
    for n, m in [(2, 1), (3, 1), (2, 2)]:
        dec = decompose_block_toeplitz(rc.block_toeplitz_cone(n, m),
                                       np.eye(n * m, dtype=complex))
        assert len(dec.atoms) == n * m
        total = sum(a.matrix() for a in dec.atoms)
        assert np.linalg.norm(total - np.eye(n * m)) < 1e-8
        for atom in dec.atoms:
            _check_phase_structure(atom.vector, n, m)


def test_decompose_toeplitz_zero():
    dec = decompose_block_toeplitz(rc.block_toeplitz_cone(2, 2),
                                   np.zeros((4, 4), dtype=complex))
    assert dec.atoms == []


def test_decompose_toeplitz_rejects_pattern():
    t = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(InvalidInputError):
        decompose_block_toeplitz(rc.block_toeplitz_cone(2, 1), t)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       size=st.sampled_from([(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]))
def test_decompose_toeplitz_atoms_sharing_a_phase(seed, size):
    # up to (n - 1) m atoms w = (v, v q, ..., v q^{n-1}); the second atom
    # takes the phase of the first and each later one that of any earlier
    # atom or a new one, so U has repeated eigenvalues
    n, m = size
    rng = np.random.default_rng(seed)
    count = int(rng.integers(2, (n - 1) * m + 2))
    phases = [rng.uniform(-np.pi, np.pi)]
    for k in range(1, count):
        phases.append(phases[rng.integers(k)] if k == 1 or rng.random() < 0.5
                      else rng.uniform(-np.pi, np.pi))
    t_mat = sum(rng.uniform(0.5, 2.0) * symlin.outer(constructions._phase_vector(
        np.exp(1j * phi), n, rng.standard_normal(m) + 1j * rng.standard_normal(m)))
        for phi in phases)
    cone = rc.block_toeplitz_cone(n, m)
    dec = rc.decompose(cone, t_mat)
    check_decomposition(cone, t_mat, dec, tol=1e-8)
    for atom in dec.atoms:
        _check_phase_structure(atom.vector, n, m)


@pytest.mark.parametrize("n, edges, atoms", [
    # lambda_4 / lambda_1 = 0.025; the gluing-tree split rejected this
    # member as "not positive semidefinite"
    (8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 7), (2, 3), (2, 4),
         (2, 5), (3, 4), (3, 6), (4, 5), (4, 6)],
     [(0.518, {0: 0.0912, 2: -0.0085, 4: 0.0494, 5: 0.9946}),
      (1.501, {0: 0.9102, 2: -0.0053, 3: 0.0023, 4: 0.4140}),
      (0.870, {0: 0.2895, 3: -0.7649, 4: -0.1056, 6: 0.5657}),
      (0.582, {0: -0.1415, 2: 0.3620, 4: -0.2128, 5: -0.8965})]),
    # vertex 3 has a 7e-9 diagonal entry but a 1e-4 column, so a pivot
    # test on the diagonal would skip it and stall
    (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)],
     [(1.475, {0: -0.6257, 1: 0.6854, 2: 0.3723, 3: -6.7e-5}),
      (1.422, {4: -0.9052, 5: 0.4250})]),
])
def test_chordal_well_conditioned_member(n, edges, atoms):
    cone = rc.chordal_cone(rc.ChordalGraph(n, edges))
    x = np.zeros((n, n))
    for weight, entries in atoms:
        v = np.zeros(n)
        v[list(entries)] = list(entries.values())
        x += weight * np.outer(v, v)
    assert rc.numeric_rank(x) == len(atoms)
    check_decomposition(cone, x, rc.decompose(cone, x))


@pytest.mark.parametrize("cone, x_mat, rank", [
    # the gate admits -3e-8 on the diagonal, within 1e-7 (1 + |X|)
    (rc.diagonal_cone(3), np.diag([1.0, -3e-8, 1.0]), 2),
    # a rank-3 tridiagonal member with 1e-7 taken off X_11: elimination along
    # 3, 2, 1 leaves the pivot -1e-7 at vertex 0, above the cut 3.4e-8
    (rc.tridiagonal_cone(4), np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 2.0 - 1e-7, 1.0, 0.0],
                                       [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]]), 3),
], ids=["diagonal", "tridiagonal"])
def test_chordal_route_takes_slightly_negative_pivots_as_zero(cone, x_mat, rank):
    assert rc.membership(cone, x_mat, 1e-7)
    dec = rc.decompose(cone, x_mat)
    assert len(dec.atoms) == rank
    assert dec.residual <= 1e-7 * (1.0 + np.linalg.norm(x_mat))
    for atom in dec.atoms:
        assert atom.weight > 0
        assert symlin.span_distance(cone.span_basis, symlin.outer(atom.vector)) <= 1e-10


def test_chordal_route_rejects_a_pivot_beyond_the_gate_allowance():
    # the gate admits 1e-6 off X_11 (lambda_min = -2.5e-7), but the pivot
    # -1e-6 it leaves at vertex 0 is beyond 1e-7 (1 + |X|) = 5.6e-7
    x_mat = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 2.0 - 1e-6, 1.0, 0.0],
                      [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    cone = rc.tridiagonal_cone(4)
    assert rc.membership(cone, x_mat, 1e-7)
    with pytest.raises(rc.NumericalError, match="pivot -1.000e-06"):
        rc.decompose(cone, x_mat)


def _check_phase_structure(v, n, m, tol=1e-8):
    blocks = v.reshape(n, m)
    norms = np.linalg.norm(blocks, axis=1)
    assert norms.min() > 1e-12
    qs = []
    for i in range(n - 1):
        q = (blocks[i].conj() @ blocks[i + 1]) / (blocks[i].conj() @ blocks[i])
        qs.append(q)
        assert np.linalg.norm(blocks[i + 1] - q * blocks[i]) <= tol
    for q in qs:
        assert abs(abs(q) - 1.0) <= tol
    for q in qs[1:]:
        assert abs(q - qs[0]) <= tol


def test_oracle_examples():
    k = rc.full_psd_cone(3)
    h = np.eye(3)[:, :1]
    x = extreme_ray_oracle(k, h)
    assert abs(abs(x[0]) - 1.0) < 1e-12

    kd = rc.diagonal_cone(3)
    h = np.eye(3)[:, 1:]
    x = extreme_ray_oracle(kd, h)
    assert np.abs(x).max() == 1.0 and abs(x[0]) < 1e-12

    kc = rc.codim1_cone(np.diag([1.0, -1.0, 0.0]))
    x = extreme_ray_oracle(kc, np.eye(3))
    assert abs(x @ np.diag([1.0, -1.0, 0.0]) @ x) < 1e-9


def test_peel_stops_asking_once_its_rule_runs_dry(monkeypatch):
    calls = []

    def dry(cone, h, attempt, **kwargs):
        calls.append(attempt)

    monkeypatch.setattr(importlib.import_module("rogcones.decompose"),
                        "extreme_ray_oracle", dry)
    with pytest.raises(rc.NumericalError, match="stalled at rank 3"):
        rc.carath_decompose(rc.full_psd_cone(3), np.eye(3))
    assert calls == [0]


def test_oracle_unavailable_for_ternary_quartic():
    k = rc.ternary_quartic_cone()
    with pytest.raises(OracleUnavailableError):
        rc.carath_decompose(k, sum(np.outer(g, g) for g in k.generators[:3]))


def _count_eigensolves(monkeypatch):
    """Patch numpy's symmetric eigensolvers to record each call by name."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, real=getattr(np.linalg, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_carath_one_eigendecomposition_per_step(monkeypatch):
    """The membership gate decomposes the start once and the peel each
    accepted candidate once; the gate's decomposition gives the rank, the
    face basis and the pseudo-inverse of the first step."""
    cone = rc.hankel_cone(5)
    x_mat = rank_r_member(cone, np.random.default_rng(3), 3)
    calls = _count_eigensolves(monkeypatch)
    dec = rc.carath_decompose(cone, x_mat)
    eigensolves = len(calls)
    check_decomposition(cone, x_mat, dec)
    assert len(dec.atoms) == 3
    assert eigensolves <= 1 + len(dec.atoms)


@pytest.mark.parametrize("name, eigensolves", [("full_psd4", 1), ("codim1", 1),
                                               ("cross_ratio", 2)])
def test_closed_forms_reuse_the_gate_eigendecomposition(monkeypatch, name, eigensolves):
    # the cross-ratio route also splits its 2 x 2 base plane
    cone = family_registry()[name]
    x_mat = rank_r_member(cone, np.random.default_rng(5), 2)
    calls = _count_eigensolves(monkeypatch)
    dec = rc.decompose(cone, x_mat)
    assert calls == ["eigh"] * eigensolves
    check_decomposition(cone, x_mat, dec)


@functools.cache
def _routed_cone(name, n=None):
    """The cones whose decompositions have a closed form."""
    if name == "hankel_m2":
        return rc.hankel_cone(n, 2)
    return family_registry()[name]


def _codim1_with_kernel(rng, n):
    # an indefinite form with a kernel of dimension 1..n-2 in a random basis
    nonzero = int(rng.integers(2, n))
    d = np.zeros(n)
    d[:nonzero] = rng.uniform(0.5, 2.0, nonzero) * rng.choice([-1.0, 1.0], nonzero)
    d[0], d[1] = abs(d[0]), -abs(d[1])
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return rc.codim1_cone(u @ np.diag(d) @ u.T)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(["full_psd4", "codim1", "cross_ratio", "hankel4", "hankel22",
                             "codim1_kernel", "hankel_m2"]),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_routes_decompose_without_peeling(case, seed):
    rng = np.random.default_rng(seed)
    if case == "codim1_kernel":
        cone = _codim1_with_kernel(rng, int(rng.integers(3, 6)))
    else:
        cone = _routed_cone(case, int(rng.integers(2, 5)) if case == "hankel_m2" else None)
    x = rank_r_member(cone, rng, int(rng.integers(1, rc.degree(cone) + 1)))
    module = importlib.import_module("rogcones.decompose")
    peels = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "carath_decompose",
                   lambda *args, real=module.carath_decompose, **kwargs:
                   peels.append(1) or real(*args, **kwargs))
        dec = rc.decompose(cone, x)
        with pytest.raises(InvalidInputError):
            rc.decompose(cone, -x)  # not positive semidefinite
        off = symlin.sym(rng.standard_normal((cone.n, cone.n)))
        off -= symlin.span_project(cone.span_basis, off)
        if np.linalg.norm(off) > 1e-9:  # outside the span
            with pytest.raises(InvalidInputError):
                rc.decompose(cone, x + 1e-3 * (1.0 + np.linalg.norm(x)) * off / np.linalg.norm(off))
    check_decomposition(cone, x, dec)
    assert peels == []


def test_cross_ratio_route_ignores_rounding_on_empty_tails():
    # the projection onto the span leaves rounding on the tail diagonal of a
    # base-plane member; eliminating such a tail made a second, wrong atom
    cone = rc.cross_ratio_cone([0.15, 0.8, 1.65, 2.4])
    for theta in np.linspace(0.0, np.pi, 60, endpoint=False):
        v = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0, 0.0, 0.0])
        x = 1.9 * np.outer(v, v)
        dec = rc.decompose(cone, x)
        check_decomposition(cone, x, dec)
        assert len(dec.atoms) == 1


# ---------------------------------------------------------------------------
# codimension <= 1 by theorem, whatever built the cone


def _codim_le1_cones():
    """Every catalog cone of codimension <= 1, the degree-1 one included,
    with kinds that wrap or extend a codimension-1 child."""
    cones = {name: cone for name, (cone, _) in catalog_constructions().items()
             if cone_model.codimension(cone) <= 1}
    codim = rc.codim1_cone(np.diag([1.0, 2.0, -1.0, -0.5]))
    cones["transform"] = rc.apply_congruence(codim, random_congruence(np.random.default_rng(4), 4))
    cones["full_ext_han3"] = rc.full_extension(rc.hankel_cone(3), 5)
    cones["diagonal2"] = rc.diagonal_cone(2)
    return cones


def _bare(cone):
    """The cone's span alone: no construction, no certificate."""
    return rc.SpectrahedralCone(n=cone.n, span_basis=cone.span_basis,
                                generators=np.zeros((0, cone.n)), expr=None)


@pytest.mark.parametrize("name", sorted(_codim_le1_cones()))
def test_codim_le1_decomposes_by_closed_form_only(monkeypatch, name):
    """Codimension decides before the kind: the cone and its bare span
    decompose every member into rank(X) atoms, with no kind route asked
    for and no peel."""
    cone = _codim_le1_cones()[name]
    assert cone_model.codimension(cone) <= 1
    rng = np.random.default_rng(7)
    members = [rank_r_member(cone, rng, r) for r in range(1, cone.n + 1)]
    module = importlib.import_module("rogcones.decompose")
    rules = count_calls(monkeypatch, module, "_rule")
    peels = count_calls(monkeypatch, module, "carath_decompose")
    for x in members:
        for k in (cone, _bare(cone)):
            check_decomposition(k, x, rc.decompose(k, x))
    assert rules == [] and peels == []


def test_one_form_induced_cone_decomposes():
    q = np.diag([1.0, 2.0, -1.0, 0.0])
    cone = induced_cone(QcqpProblem(np.eye(4), np.eye(4), [q]))
    assert cone.expr is None and cone_model.codimension(cone) == 1
    rng = np.random.default_rng(8)
    for r in range(1, 5):
        x = rank_r_member(rc.codim1_cone(q), rng, r)
        check_decomposition(cone, x, rc.decompose(cone, x))


def test_hankel22_members_never_peel(monkeypatch):
    # hankel_cone(2, 2) has codimension 1; its node solve never worked on
    # rank-3 members, which all fell back to peeling
    cone = rc.hankel_cone(2, 2)
    peels = count_calls(monkeypatch, importlib.import_module("rogcones.decompose"),
                        "carath_decompose")
    rng = np.random.default_rng(0)
    for r in (2, 3, 4):
        for _ in range(50):
            x = rank_r_member(cone, rng, r)
            check_decomposition(cone, x, rc.decompose(cone, x))
    assert peels == []


def _nodes_and_infinity(rng, n, m):
    """A member of hankel_cone(n, m) with 1 to n - 1 finite nodes and an atom
    at the node at infinity, of weights 10^U(-4, 0)."""
    vecs = [constructions._moment_vector(t, n, rng.standard_normal(m))
            for t in rng.uniform(-2.0, 2.0, int(rng.integers(1, n)))]
    vecs.append(np.concatenate([np.zeros((n - 1) * m), rng.standard_normal(m)]))
    return sum(10.0 ** rng.uniform(-4.0, 0.0) * symlin.outer(v / np.linalg.norm(v))
               for v in vecs)


def test_hankel_node_solve_takes_every_rank(monkeypatch):
    # the node solve reads the nodes off the factor of X.  On the orthonormal
    # eigenvectors of X the node at infinity bent the finite pencil, and
    # these members peeled; the four rank_r_member draws stalled the peel
    members = [(rc.hankel_cone(*shape), seed, r) for shape, seed, r in
               (((5,), 83, 4), ((7,), 52, 4), ((4, 2), 46, 6), ((5, 2), 26, 7))]
    members = [(cone, rank_r_member(cone, np.random.default_rng(seed), r))
               for cone, seed, r in members]
    rng = np.random.default_rng(30)
    for n, m in ((4, 1), (5, 1), (3, 2), (4, 2)):
        cone = rc.hankel_cone(n, m)
        members += [(cone, _nodes_and_infinity(rng, n, m)) for _ in range(25)]
    peels = count_calls(monkeypatch, importlib.import_module("rogcones.decompose"),
                        "carath_decompose")
    for cone, x in members:
        check_decomposition(cone, x, rc.decompose(cone, x))
    assert peels == []


def test_hankel_node_solve_miss_raises(monkeypatch):
    # no silent fallback: a miss names the route and both counts
    monkeypatch.setattr(importlib.import_module("rogcones.decompose"), "_solve_weights",
                        lambda dirs, x_mat: None)
    x = sum(symlin.outer(constructions._moment_vector(t, 4, np.ones(1))) for t in (-1.0, 1.0))
    with pytest.raises(rc.NumericalError, match="Hankel node solve.*2 directions.*rank 2"):
        rc.decompose(rc.hankel_cone(4), x)
