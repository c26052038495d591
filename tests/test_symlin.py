import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# the Schur split is symlin.schur_shares: it trusts its input, whose zero
# corner and PSD test the intertwining route's gate has already checked


def test_schur_split_identity():
    c1, c2 = symlin.schur_shares(np.eye(3), (1, 1, 1), symlin.DEFAULT_TOL)
    assert np.allclose(c1, [[0.0]])
    assert np.allclose(c2, [[1.0]])


def test_schur_split_arrow():
    m = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    c1, c2 = symlin.schur_shares(m, (1, 1, 1), symlin.DEFAULT_TOL)
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
        c1, c2 = symlin.schur_shares(m, (2, 2, 2), symlin.DEFAULT_TOL)
        assert np.allclose(c1 + c2, m[2:4, 2:4], atol=1e-10)
        top = np.vstack([np.hstack([m[:2, :2], m[:2, 2:4]]),
                         np.hstack([m[2:4, :2], c1])])
        bot = np.vstack([np.hstack([c2, m[2:4, 4:]]),
                         np.hstack([m[4:, 2:4], m[4:, 4:]])])
        assert symlin.psd_check(top, 1e-8)
        assert symlin.psd_check(bot, 1e-8)


def test_sym_matrix_validation():
    with pytest.raises(InvalidInputError):
        symlin.sym_matrix([[0.0, 1.0], [0.5, 0.0]])
    a = symlin.sym_matrix([[1.0, 2.0], [2.0, 3.0]])
    assert (a == a.T).all()


@pytest.mark.parametrize("make", [symlin.sym_matrix])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_matrix_validation_rejects_non_finite(make, bad):
    with pytest.raises(InvalidInputError, match="non-finite"):
        make([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(InvalidInputError, match="non-finite"):
        make([[1.0, bad], [0.0, 1.0]])


def test_matrix_validation_symmetry_threshold():
    # asymmetry up to 1e-12 (1 + max|a|) is accepted and symmetrized away
    a = symlin.sym_matrix([[2.0, 1.0], [1.0 + 2e-12, 0.0]])
    assert (a == a.T).all()
    with pytest.raises(InvalidInputError, match="not symmetric"):
        symlin.sym_matrix([[2.0, 1.0], [1.0 + 4e-12, 0.0]])
    assert symlin.sym_matrix(np.zeros((0, 0))).shape == (0, 0)


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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9),
       rank=st.integers(0, 9), complex_field=st.booleans())
def test_nullspace_matches_the_full_matrices_svd(seed, rows, cols, rank, complex_field):
    # tall, square and wide inputs: only a wide one needs the full vt
    rank = min(rank, rows, cols)
    a = _low_rank(np.random.default_rng(seed), rows, cols, rank, complex_field, 1.0)
    ker = symlin.nullspace(a)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    full = vt[np.count_nonzero(s > symlin.cut(s, symlin.SUBSPACE_TOL)):].conj().T
    assert ker.shape == full.shape == (cols, cols - rank)
    assert np.abs(_projector(ker) - _projector(full)).max(initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), count=st.integers(1, 8),
       rank=st.integers(0, 8), complex_field=st.booleans())
@example(seed=131877, n=3, count=5, rank=5, complex_field=False)
@example(seed=3, n=3, count=8, rank=6, complex_field=False)
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
    # two SVDs of the same span give projectors that agree to first order
    # in eps times the condition number s_1 / s_rank of the generating set
    kappa = s[0] / s[rank - 1] if rank else 1.0
    bound = max(1e-12, 4 * np.finfo(float).eps * kappa)
    assert np.abs(rows.T @ rows - dense.T @ dense).max() <= bound


# ---------------------------------------------------------------------------
# eigenbasis of a unitary matrix


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10),
       phases=st.sampled_from(["distinct", "repeated", "near", "pi"]))
@example(seed=0, k=10, phases="pi")
def test_unitary_eigenbasis_diagonalizes_any_spectrum(seed, k, phases):
    """Phases distinct, exactly repeated, repeated up to 1e-13 .. 1e-6, or
    at pi, in a random unitary basis: V is unitary and V^* U V diagonal."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-np.pi, np.pi, k)
    if phases in ("repeated", "near"):
        t = rng.choice(t[:max(1, k // 2)], k)
    if phases == "near":
        t = t + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-13, -6, k)
    if phases == "pi":
        t[rng.permutation(k)[:rng.integers(1, k + 1)]] = np.pi
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    u = (q * np.exp(1j * t)) @ q.conj().T
    v = symlin.unitary_eigenbasis(u)
    assert np.abs(v.conj().T @ v - np.eye(k)).max() <= 1e-12
    d = v.conj().T @ u @ v
    assert np.abs(d - np.diag(d.diagonal())).max() <= 1e-12


# ---------------------------------------------------------------------------
# distances to a span


def _one_distance(basis, x):
    """The per-matrix formula: X minus its projection on the span."""
    c = symlin._vec_stack(basis) @ symlin.vec(np.asarray(x, dtype=basis.dtype))
    return float(np.linalg.norm(x - np.tensordot(c, basis, axes=(0, 0))))


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("d", [0, 1, 4])
def test_span_distances_match_the_per_matrix_formula(complex_field, d):
    rng = np.random.default_rng(7 + d)
    n = 4

    def draw(k):
        x = rng.standard_normal((k, n, n))
        return symlin.sym(x + 1j * rng.standard_normal((k, n, n)) if complex_field else x)
    basis = (symlin.orthonormal_span(draw(d)) if d else
             np.zeros((0, n, n), dtype=complex if complex_field else float))
    members = np.tensordot(rng.standard_normal((3, d)), basis, axes=(1, 0))
    stack = np.concatenate([draw(5), members])
    got = symlin.span_distances(basis, stack)
    want = [_one_distance(basis, x) for x in stack]
    assert got.shape == (len(stack),)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.all(got[5:] <= 1e-12)
    if d == 0:  # an empty span is at distance |X|
        assert np.allclose(got, np.linalg.norm(stack, axis=(1, 2)), rtol=1e-14)
    # a single matrix is the stack of one
    assert symlin.span_distance(basis, stack[0]) == symlin.span_distances(basis, stack[:1])[0]
    assert np.isclose(symlin.span_distance(basis, stack[0]), want[0], rtol=1e-12, atol=1e-12)
    assert symlin.span_contains(basis, members) and not symlin.span_contains(basis, stack)


# ---------------------------------------------------------------------------
# the JSON array format


@settings(max_examples=300, deadline=None)
@given(shape=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       complex_field=st.booleans(), data=st.data())
def test_json_array_round_trip_is_bit_exact(shape, complex_field, data):
    entries = st.floats(allow_nan=False)
    count = int(np.prod(shape)) * (2 if complex_field else 1)
    a = np.array(data.draw(st.lists(entries, min_size=count, max_size=count)))
    a = a.view(complex).reshape(shape) if complex_field else a.reshape(shape)
    back = symlin.from_json_array(json.loads(json.dumps(symlin.to_json_array(a))), a.ndim)
    # an all-zero imaginary part reads back as a real array
    expected = a.real if complex_field and not a.imag.any() else a
    assert back.dtype == expected.dtype and back.shape == expected.shape
    assert np.ascontiguousarray(back).tobytes() == np.ascontiguousarray(expected).tobytes()


@pytest.mark.parametrize("data", [[[1.0, 2.0], [3.0]], [["x", 1.0]], [[{}, 1.0]]])
def test_json_array_rejects_ragged_or_non_numeric_input(data):
    with pytest.raises(InvalidInputError):
        symlin.from_json_array(data, 2)


def _hankel_pattern(n):
    i, j = np.indices((n, n))
    return np.array([(i + j == k).astype(float) for k in range(2 * n - 1)])


def _toeplitz_pattern(n):
    # identity, then per off-diagonal its real symmetric and imaginary
    # Hermitian parts, unnormalized
    mats = [np.eye(n, dtype=complex)]
    for k in range(1, n):
        s = np.eye(n, k=k)
        mats += [(s + s.T).astype(complex), 1j * (s - s.T)]
    return np.array(mats)


def _direct_sum_pattern():
    a, b = _hankel_pattern(3), symlin.sym_basis(2)
    out = np.zeros((len(a) + len(b), 5, 5))
    out[:len(a), :3, :3] = a
    out[len(a):, 3:, 3:] = b
    return out


def _chordal_pattern():
    mats = []
    for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (0, 2), (2, 3)]:
        e = np.zeros((4, 4))
        e[i, j] = e[j, i] = 1.0
        mats.append(e)
    return np.array(mats)


@pytest.mark.parametrize("mats", [_chordal_pattern(), _hankel_pattern(4), _toeplitz_pattern(4),
                                  _direct_sum_pattern()],
                         ids=["pattern", "hankel", "toeplitz", "direct_sum"])
def test_orthonormal_span_of_symmetric_rows_is_symmetric_as_built(monkeypatch, mats):
    """Orthogonal rows come back normalized, bit for bit what symmetrizing
    them gives; exactly symmetric real rows are not symmetrized at all."""
    calls = []
    real = symlin.sym
    monkeypatch.setattr(symlin, "sym", lambda a: calls.append(1) or real(a))
    basis = symlin.orthonormal_span(mats)
    assert basis.shape[0] == len(mats)
    assert basis.tobytes() == real(basis).tobytes()
    assert calls == ([1] if np.iscomplexobj(mats) else [])


@pytest.mark.parametrize("mats", [
    [np.triu(np.ones((3, 3)), 1), np.eye(3)],                  # real, upper entries only
    [1j * np.triu(np.ones((3, 3)), 1), np.eye(3, dtype=complex)],  # imaginary, not Hermitian
    [np.diag([1.0, 0.0, 0.0]), np.array([[0, 1.0, 0], [1.0 + 1e-15, 0, 0], [0, 0, 0]])],
], ids=["upper", "complex", "rounding"])
def test_orthonormal_span_still_symmetrizes_other_rows(mats):
    mats = np.array(mats)
    basis = symlin.orthonormal_span(mats)
    assert np.array_equal(basis, symlin.sym(basis))
    unit = mats / np.linalg.norm(mats, axis=(1, 2))[:, None, None]
    assert np.abs(basis - symlin.sym(unit)).max() <= 1e-15


# ---------------------------------------------------------------------------
# isotropic vectors of a form, in closed form


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       signs=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=8, max_size=8))
def test_isotropic_vectors_span_the_section_of_any_form(seed, n, signs):
    # q = U diag(d) U^T in a random orthonormal basis; d has exact zeros, so
    # kernels, semidefinite and zero forms all occur
    rng = np.random.default_rng(seed)
    d = np.array(signs[:n]) * rng.uniform(0.5, 2.0, n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = symlin.sym(u @ np.diag(d) @ u.T)
    x = symlin.isotropic_vectors(q, symlin.DEFAULT_TOL)
    assert x.shape[0] == n
    values = np.einsum("ik,ij,jk->k", x, q, x)
    assert (np.abs(values) <= 1e-12 * np.linalg.norm(q) * (x * x).sum(axis=0)).all()
    p, m, z = (d > 0).sum(), (d < 0).sum(), (d == 0).sum()
    indefinite = p > 0 and m > 0
    dim = symlin.span_dim(np.einsum("ik,jk->kij", x, x)) if x.shape[1] else 0
    assert dim == (n * (n + 1) // 2 - 1 if indefinite else z * (z + 1) // 2)
    if indefinite and z == 0:
        assert x.shape[1] == n * (n + 1) // 2 - 1
