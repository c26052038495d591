import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rogcones import symlin
from rogcones.errors import InvalidInputError


def test_eig_identity():
    dec = symlin.eig_sym(np.eye(3))
    assert np.allclose(dec.values, [1, 1, 1])
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(3), atol=1e-12)


def test_eig_diagonal_sorted_descending():
    dec = symlin.eig_sym(np.diag([2.0, 0.0, -1.0]))
    assert np.allclose(dec.values, [2.0, 0.0, -1.0])


def test_eig_rank_one():
    x = np.array([1.0, 2.0])
    dec = symlin.eig_sym(np.outer(x, x))
    assert np.allclose(dec.values, [5.0, 0.0])
    top = dec.vectors[:, 0]
    assert abs(abs(top @ (x / np.sqrt(5))) - 1.0) < 1e-12


def test_eig_reconstruction_bounds(rng):
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        dec = symlin.eig_sym(a)
        scale = 1.0 + np.linalg.norm(a)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * scale
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(n)) <= 1e-10


def test_numeric_rank():
    assert symlin.numeric_rank(np.zeros((4, 4))) == 0
    x = np.array([1.0, -2.0, 0.5])
    assert symlin.numeric_rank(np.outer(x, x)) == 1


def test_numeric_rank_sum_of_rank_ones(rng):
    # rank of a Gram factor: three independent rank-1 PSD terms in S^5
    for _ in range(20):
        g = rng.standard_normal((5, 3))
        a = g @ g.T
        assert symlin.numeric_rank(a) == np.linalg.matrix_rank(g)


def test_psd_check():
    assert symlin.psd_check(np.eye(2))
    assert not symlin.psd_check(np.diag([1.0, -1.0]))


def test_psd_check_boundary_slice():
    # spectrahedral image of (1, 0.6, 0.8): PSD with zero determinant
    a = np.array([[1.6, 0.8], [0.8, 0.4]])
    assert abs(np.linalg.det(a)) < 1e-12
    assert symlin.psd_check(a)


def test_pseudo_inverse_examples():
    assert np.allclose(symlin.pseudo_inverse(np.diag([2.0, 0.0])),
                       np.diag([0.5, 0.0]))
    assert np.allclose(symlin.pseudo_inverse(np.eye(3)), np.eye(3))


def test_pseudo_inverse_penrose(rng):
    for _ in range(50):
        g = rng.standard_normal((4, 2))
        a = g @ g.T
        p = symlin.pseudo_inverse(a)
        scale = 1e-8 * (1.0 + np.linalg.norm(a))
        assert np.linalg.norm(a @ p @ a - a) <= scale
        assert np.linalg.norm(p @ a @ p - p) <= scale
        assert np.linalg.norm((a @ p).T - a @ p) <= scale
        assert np.linalg.norm((p @ a).T - p @ a) <= scale


def test_schur_split_identity():
    c1, c2 = symlin.schur_split(np.eye(3), (1, 1, 1))
    assert np.allclose(c1, [[0.0]])
    assert np.allclose(c2, [[1.0]])


def test_schur_split_arrow():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    c1, c2 = symlin.schur_split(m, (1, 1, 1))
    assert np.allclose(c1, [[1.0]])
    assert np.allclose(c2, [[1.0]])
    assert symlin.psd_check(np.array([[1.0, 1.0], [1.0, c1[0, 0]]]))
    assert symlin.psd_check(np.array([[c2[0, 0], 1.0], [1.0, 1.0]]))


def test_schur_split_random_zero_corner(rng):
    for _ in range(30):
        g1 = rng.standard_normal((4, 3))
        g2 = rng.standard_normal((4, 3))
        m = np.zeros((6, 6))
        m[:4, :4] += g1 @ g1.T
        m[2:, 2:] += g2 @ g2.T
        c1, c2 = symlin.schur_split(m, (2, 2, 2))
        assert np.allclose(c1 + c2, m[2:4, 2:4], atol=1e-10)
        top = np.vstack([np.hstack([m[:2, :2], m[:2, 2:4]]),
                         np.hstack([m[2:4, :2], c1])])
        bot = np.vstack([np.hstack([c2, m[2:4, 4:]]),
                         np.hstack([m[4:, 2:4], m[4:, 4:]])])
        assert symlin.psd_check(top, 1e-8)
        assert symlin.psd_check(bot, 1e-8)


def test_schur_split_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        symlin.schur_split(np.ones((3, 3)), (1, 1, 1))  # nonzero corner
    bad = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(InvalidInputError):
        symlin.schur_split(bad, (1, 1, 1))  # not PSD


def test_sym_matrix_validation():
    with pytest.raises(InvalidInputError):
        symlin.sym_matrix([[0.0, 1.0], [0.5, 0.0]])
    a = symlin.sym_matrix([[1.0, 2.0], [2.0, 3.0]])
    assert (a == a.T).all()


def test_complex_hermitian_path():
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    dec = symlin.eig_sym(a)
    assert np.allclose(sorted(dec.values), [1.0, 3.0])
    assert symlin.psd_check(a)
    assert symlin.numeric_rank(a) == 2


def test_nullspace_keeps_complex_entries():
    a = np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0]])
    null = symlin.nullspace(a)
    assert null.shape == (3, 1)
    assert np.linalg.norm(a @ null) < 1e-12
    assert abs(np.vdot(null[:, 0], null[:, 0]) - 1.0) < 1e-12


def test_face_of_complex_direct_sum_keeps_imaginary_parts():
    import warnings

    import rogcones as rc
    cone = rc.direct_sum(rc.block_toeplitz_cone(2, 1), rc.block_toeplitz_cone(3, 1))
    # a phase vector off the certificate's root-of-unity grid: its face is
    # not spanned by generators, so face_of splits it over the summands
    h = np.zeros((5, 1), dtype=complex)
    h[2:, 0] = np.exp(0.3j * np.arange(3)) / np.sqrt(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        face = rc.face_of(cone, rc.FaceHandle(h))
    assert face.dim == 1
    assert symlin.span_contains(face.span_basis, symlin.outer(h[:, 0]))


# ---------------------------------------------------------------------------
# the shared singular-value cut


def _low_rank(rng, rows, cols, rank, complex_field, scale):
    """A rows x cols matrix of the given rank (zero when rank is 0)."""
    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_field else x
    return scale * (draw((rows, rank)) @ draw((rank, cols)))


def _projector(cols):
    return cols @ cols.conj().T


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 7), cols=st.integers(1, 7),
       rank=st.integers(0, 7), complex_field=st.booleans(),
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_span_and_kernel_split_the_space(seed, rows, cols, rank, complex_field, scale):
    rank = min(rank, rows, cols)
    a = _low_rank(np.random.default_rng(seed), rows, cols, rank, complex_field, scale)
    span = symlin.subspace_of_vectors(a)
    ker = symlin.nullspace(a)
    assert span.shape[1] == rank and span.shape[1] + ker.shape[1] == cols
    # the rows of a lie in their span; the kernel is orthogonal to their
    # conjugates, so it complements the span of the conjugated rows
    assert np.linalg.norm(a.T - _projector(span) @ a.T) <= 1e-12 * (1.0 + np.linalg.norm(a))
    conj_span = symlin.subspace_of_vectors(a.conj())
    assert np.abs(_projector(conj_span) + _projector(ker) - np.eye(cols)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), count=st.integers(1, 8),
       rank=st.integers(0, 8), complex_field=st.booleans())
def test_orthonormal_span_matches_a_dense_svd(seed, n, count, rank, complex_field):
    rng = np.random.default_rng(seed)
    rank = min(rank, count, n * n if complex_field else n * (n + 1) // 2)
    # count real combinations of `rank` random symmetric (Hermitian) matrices
    gens = symlin.sym(_low_rank(rng, rank, n * n, rank, complex_field, 1.0).reshape(-1, n, n))
    mats = np.tensordot(rng.standard_normal((count, rank)), gens, axes=(1, 0))
    basis = symlin.orthonormal_span(mats)
    _, s, vt = np.linalg.svd(symlin._vec_stack(mats), full_matrices=False)
    dense = vt[s > 1e-10 * max(1.0, s[0])]
    assert basis.shape[0] == len(dense) == rank
    rows = symlin._vec_stack(basis)
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max(initial=0.0) <= 1e-12
    assert np.abs(rows.T @ rows - dense.T @ dense).max() <= 1e-12
