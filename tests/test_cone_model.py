import numpy as np
import pytest

import rogcones as rc
from rogcones import jsonio, symlin
from rogcones.errors import InvalidInputError, MissingCertificateError

from conftest import atom_columns


def moment(t):
    return np.array([1.0, t, t * t])


def test_membership_tridiag():
    k = rc.tridiagonal_cone(3)
    assert rc.membership(k, np.eye(3))
    assert not rc.membership(k, np.ones((3, 3)))


def test_membership_hankel():
    k = rc.hankel_cone(3)
    x = 0.5 * (np.outer(moment(1), moment(1)) + np.outer(moment(-1), moment(-1)))
    assert np.allclose(x, np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1.0]]))
    assert rc.membership(k, x)


def test_degree_examples():
    assert rc.degree(rc.full_psd_cone(4)) == 4
    assert rc.degree(rc.hankel_cone(3)) == 3
    child = rc.direct_sum(rc.full_psd_cone(1), rc.full_psd_cone(2))
    assert rc.degree(rc.full_extension(child, 5)) == 5


def test_dimension_examples():
    assert rc.dimension(rc.hankel_cone(3)) == 5
    assert rc.dimension(rc.hankel_cone(2, 2)) == 9
    assert rc.dimension(rc.ternary_quartic_cone()) == 15


def test_degree_needs_certificate():
    k = rc.make_cone(2, [np.eye(2)], [])
    with pytest.raises(MissingCertificateError):
        rc.degree(k)


def test_reduce_identity_when_nondegenerate():
    k = rc.hankel_cone(3)
    red, emb = rc.reduce_nondegenerate(k)
    assert red.n == 3
    assert np.allclose(emb, np.eye(3))


def test_reduce_block_scaled_cone():
    # span of diag(1, 1, 0): a ray of rank-2 matrices, no rank-1 certificate
    k = rc.make_cone(3, [np.diag([1.0, 1.0, 0.0])], [])
    red, emb = rc.reduce_nondegenerate(k)
    assert red.n == 2
    assert emb.shape == (3, 2)
    assert rc.dimension(red) == 1


def test_reduce_one_eigendecomposition(monkeypatch):
    # without a certificate the hub's one decomposition gives both the PSD
    # test and the embedding
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, real=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    red, emb = rc.reduce_nondegenerate(rc.make_cone(3, [np.diag([1.0, 1.0, 0.0])], []))
    assert (red.n, emb.shape) == (2, (3, 2))
    assert len(calls) == 1
    with pytest.raises(MissingCertificateError):
        # the identity projects to diag(-1, 2) / 5, which is not PSD
        rc.reduce_nondegenerate(rc.make_cone(2, [np.diag([1.0, -2.0])], []))
    assert len(calls) == 2


def test_reduce_rank_one_ray():
    x = np.array([1.0, 2.0, 0.0, -1.0, 3.0])
    k = rc.make_cone(5, [np.outer(x, x)], [x])
    red, emb = rc.reduce_nondegenerate(k)
    assert red.n == 1
    # round trip: generators map to generators
    back = emb @ red.generators[0]
    assert abs(abs(back @ x) / (np.linalg.norm(back) * np.linalg.norm(x)) - 1) < 1e-10


def test_face_of_whole_space():
    k = rc.hankel_cone(3)
    face = rc.face_of(k, rc.FaceHandle(np.eye(3)))
    assert face.dim == k.dim


def test_face_of_full_psd():
    k = rc.full_psd_cone(3)
    h = np.eye(3)[:, :2]
    face = rc.face_of(k, rc.FaceHandle(h))
    assert face.dim == 3
    assert rc.certificate_complete(face)


def test_face_of_tridiag():
    k = rc.tridiagonal_cone(4)
    face = rc.face_of(k, rc.FaceHandle(np.eye(4)[:, :3]))
    assert face.dim == 5
    assert rc.certificate_complete(face)
    red, _ = rc.reduce_nondegenerate(face)
    out = rc.cones_isomorphic(red, rc.tridiagonal_cone(3))
    assert out.status == "isomorphic"


def test_face_is_rog(rng):
    # faces of certified cones keep a complete certificate
    k = rc.hankel_cone(3)
    x = np.outer(moment(0.5), moment(0.5)) + np.outer(moment(-1.0), moment(-1.0))
    h = symlin.eig_sym(x).vectors[:, :2]
    face = rc.face_of(k, rc.FaceHandle(h))
    assert face.dim >= 2
    assert rc.certificate_complete(face)


def test_simplicity_partition_block():
    k = rc.direct_sum(rc.full_psd_cone(1), rc.full_psd_cone(2))
    dims = sorted(h.dim for h in rc.simplicity_partition(k))
    assert dims == [1, 2]


def test_simplicity_partition_absolute_coefficient_cut():
    # the last generator carries 5.9e-4 of e5; its coefficients on the kept
    # generators reach about 1e3, so a cut relative to the largest one
    # (about 1e-3) dropped e5 from its group and left the factors spanning
    # more than R^6
    e = np.eye(6)

    def unit(v):
        return v / np.linalg.norm(v)

    gens = [e[0], unit(e[0] + 1e-3 * e[1]), e[5], e[2], e[3], e[4],
            unit(e[1] + 5.9e-4 * e[5])]
    k = rc.make_cone(6, symlin.sym_basis(6), gens, expr=None, check=False)
    dims = [h.dim for h in rc.simplicity_partition(k)]
    assert dims == [3, 1, 1, 1]


def test_simplicity_tridiag_simple():
    assert len(rc.simplicity_partition(rc.tridiagonal_cone(4))) == 1


def test_simplicity_disconnected_chordal():
    g = rc.ChordalGraph(4, [(0, 1), (2, 3)])
    k = rc.chordal_cone(g)
    assert len(rc.simplicity_partition(k)) == 2


def test_isolated_rays_examples():
    assert rc.isolated_rays(rc.diagonal_cone(3)) == [0, 1, 2]
    assert rc.isolated_rays(rc.full_psd_cone(2)) == []
    k = rc.direct_sum(rc.full_psd_cone(2), rc.full_psd_cone(1))
    rays = rc.isolated_rays(k)
    assert len(rays) == 1
    assert abs(k.generators[rays[0]][2]) > 0.99


def test_isolated_ray_of_a_complex_congruent_direct_sum():
    # the 1 x 1 summand's ray has complex entries after the congruence; its
    # factor of the simplicity partition must be its span, not the span of
    # its conjugate
    k = rc.direct_sum(rc.block_toeplitz_cone(2, 1), rc.block_toeplitz_cone(1, 1))
    a = np.array([[1.0, 0.5j, 0.2], [0.0, 1.0, 0.3j], [0.1j, 0.0, 1.0]])
    moved = rc.apply_congruence(k, a)
    rays = rc.isolated_rays(moved)
    assert len(rays) == 1
    x = moved.generators[rays[0]]
    assert np.abs(x.imag).max() > 0.1
    assert symlin.span_distance(moved.span_basis, symlin.outer(x)) < 1e-10
    y = a @ np.array([0.0, 0.0, 1.0])
    assert abs(abs(np.vdot(x, y)) - np.linalg.norm(y)) < 1e-10


# the atom columns sqrt(w_i) v_i of a decomposition are independent and
# reconstruct X: a basis in which X reads diag(1, .., 1, 0, .., 0)


def test_diagonalizing_basis_full_psd():
    b = atom_columns(rc.decompose(rc.full_psd_cone(3), np.eye(3)))
    assert b.shape == (3, 3)
    assert np.allclose(b @ b.T, np.eye(3), atol=1e-8)
    assert symlin.invertible(b / np.linalg.norm(b, axis=0))


def test_diagonalizing_basis_hankel():
    x = np.outer(moment(0.0), moment(0.0)) + np.outer(moment(1.0), moment(1.0))
    b = atom_columns(rc.decompose(rc.hankel_cone(3), x))
    assert b.shape == (3, 2)
    assert np.allclose(b @ b.T, x, atol=1e-7)
    cols = [b[:, i] / np.linalg.norm(b[:, i]) for i in range(2)]
    targets = [moment(0.0) / np.sqrt(1), moment(1.0) / np.sqrt(3)]
    for t in targets:
        assert any(abs(abs(c @ t) - 1.0) < 1e-7 for c in cols)


def test_diagonalizing_basis_diagonal_cone():
    x = np.diag([2.0, 3.0, 0.0])
    b = atom_columns(rc.decompose(rc.diagonal_cone(3), x))
    assert b.shape == (3, 2)
    assert np.allclose(b @ b.T, x, atol=1e-8)
    assert symlin.subspace_of_vectors(b.T).shape[1] == 2


def test_dimension_degree_inequalities():
    cones = [rc.full_psd_cone(3), rc.hankel_cone(4), rc.tridiagonal_cone(5),
             rc.ternary_quartic_cone(), rc.cross_ratio_cone([0.1, 0.8, 1.9, 2.7])]
    for k in cones:
        d = rc.degree(k)
        assert d <= rc.dimension(k) <= d * (d + 1) // 2


def test_membership_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        rc.membership(rc.full_psd_cone(2), np.eye(3))


def test_cone_json_roundtrip():
    for k in [rc.hankel_cone(3), rc.tridiagonal_cone(3),
              rc.codim1_cone(np.diag([1.0, -1.0, 1.0]))]:
        data = jsonio.cone_to_json(k)
        back = jsonio.cone_from_json(data)
        assert back.n == k.n and back.dim == k.dim
        for s in k.span_basis:
            assert symlin.span_distance(back.span_basis, s) < 1e-9


def test_cone_json_raw_roundtrip():
    k = rc.make_cone(2, [np.eye(2), np.array([[1.0, 0], [0, -1.0]])], [[1, 0]])
    data = jsonio.cone_to_json(k)
    back = jsonio.cone_from_json(data)
    assert back.dim == 2 and len(back.generators) == 1
