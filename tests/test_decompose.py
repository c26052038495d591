import importlib

import numpy as np
import pytest

import rogcones as rc
from rogcones import symlin
from rogcones.decompose import (decompose_block_toeplitz,
                                decompose_full_extension, decompose_hankel,
                                decompose_intertwining, extreme_ray_oracle)
from rogcones.errors import InvalidInputError, OracleUnavailableError
from conftest import family_registry, rank_r_member


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


@pytest.mark.parametrize("name", sorted(family_registry()))
def test_carath_families(name, rng):
    cone = family_registry()[name]
    deg = rc.degree(cone)
    for _ in range(10):
        r = int(rng.integers(1, deg + 1))
        x = rank_r_member(cone, rng, r)
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
    x = np.outer(moment(0.0), moment(0.0))
    dec = decompose_hankel(x, 3)
    assert len(dec.atoms) == 1
    assert abs(abs(dec.atoms[0].vector[0]) - 1.0) < 1e-9

    h = np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 0.0], [2.0, 0.0, 2.0]])
    dec = decompose_hankel(h, 3)
    assert len(dec.atoms) == 2
    nodes = sorted(a.vector[1] / a.vector[0] for a in dec.atoms)
    assert np.allclose(nodes, [-1.0, 1.0], atol=1e-8)

    e3 = np.zeros(3)
    e3[2] = 1.0
    dec = decompose_hankel(np.outer(e3, e3), 3)
    assert len(dec.atoms) == 1
    assert abs(abs(dec.atoms[0].vector[2]) - 1.0) < 1e-9


def test_decompose_hankel_block(rng):
    k = rc.hankel_cone(3, 2)
    for _ in range(10):
        x = rank_r_member(k, rng, int(rng.integers(1, 7)))
        dec = decompose_hankel(x, 3, 2)
        check_decomposition(k, x, dec)


def test_decompose_hankel_interior(rng):
    k = rc.hankel_cone(3)
    x = rank_r_member(k, rng, 3)
    dec = decompose_hankel(x, 3)
    check_decomposition(k, x, dec)


def test_decompose_hankel_rejects():
    with pytest.raises(InvalidInputError):
        decompose_hankel(np.eye(4), 3, 1)  # size mismatch
    bad = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        decompose_hankel(bad, 3)  # anti-diagonals disagree


def test_decompose_toeplitz_single_atom():
    w = np.kron(1j ** np.arange(2), np.array([1.0 + 0j]))
    t = np.outer(w, w.conj())
    dec = decompose_block_toeplitz(t, 2, 1)
    assert len(dec.atoms) == 1
    v = dec.atoms[0].vector
    q = v[1] / v[0]
    assert abs(q - 1j) < 1e-8
    assert dec.residual < 1e-10


def test_decompose_toeplitz_identity():
    for n, m in [(2, 1), (3, 1), (2, 2)]:
        dec = decompose_block_toeplitz(np.eye(n * m, dtype=complex), n, m)
        assert len(dec.atoms) == n * m
        total = sum(a.matrix() for a in dec.atoms)
        assert np.linalg.norm(total - np.eye(n * m)) < 1e-8
        for atom in dec.atoms:
            _check_phase_structure(atom.vector, n, m)


def test_decompose_toeplitz_zero():
    dec = decompose_block_toeplitz(np.zeros((4, 4), dtype=complex), 2, 2)
    assert dec.atoms == []


def test_decompose_toeplitz_rejects_pattern():
    t = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(InvalidInputError):
        decompose_block_toeplitz(t, 2, 1)


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


def test_oracle_unavailable_for_ternary_quartic():
    k = rc.ternary_quartic_cone()
    with pytest.raises(OracleUnavailableError):
        rc.carath_decompose(k, sum(np.outer(g, g) for g in k.generators[:3]))


def test_compositional_matches_carath(rng):
    s2 = rc.full_psd_cone(2)
    han = rc.hankel_cone(3)
    cones = [rc.full_extension(han, 4),
             rc.intertwine(han, s2, rc.rank1_glue(han, [1, 0, 0], s2, [1, 0]))]
    for cone in cones:
        for _ in range(10):
            r = int(rng.integers(1, rc.degree(cone) + 1))
            x = rank_r_member(cone, rng, r)
            d1 = rc.decompose(cone, x)
            d2 = rc.carath_decompose(cone, x)
            assert len(d1.atoms) == len(d2.atoms) == r


def test_carath_one_eigendecomposition_per_step(monkeypatch):
    """After the membership check the peel decomposes the start once and
    each accepted candidate once; that decomposition gives the rank, the
    PSD test, the face basis and the pseudo-inverse of the next step."""
    decompose = importlib.import_module("rogcones.decompose")  # the package re-exports the function
    cone = rc.hankel_cone(5)
    x_mat = rank_r_member(cone, np.random.default_rng(3), 3)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, real=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    after_membership = []
    real_membership = decompose.membership

    def membership(*args, **kwargs):
        out = real_membership(*args, **kwargs)
        after_membership.append(len(calls))
        return out

    monkeypatch.setattr(decompose, "membership", membership)
    dec = decompose.carath_decompose(cone, x_mat)
    peel_calls = len(calls) - after_membership[0]
    check_decomposition(cone, x_mat, dec)
    assert len(dec.atoms) == 3
    assert peel_calls <= 1 + len(dec.atoms)
