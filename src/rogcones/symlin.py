"""Dense real-symmetric / complex-Hermitian linear algebra kernel.

Everything else in the package is built on the helpers here: spectral
decompositions with deterministic ordering, tolerance-based rank and
positive-semidefiniteness decisions, Moore-Penrose inverses, the
unchecked three-block Schur split used by the intertwining decomposition
(whose gate has already checked the zero corner and PSD), and a small
toolbox for working with linear subspaces of matrix space (spans of
symmetric or Hermitian matrices under the Frobenius inner product).

Matrices are plain numpy arrays.  Symmetric means ``A == A.T`` exactly;
``sym_matrix`` enforces that at API boundaries.

Rank, range, kernel and inertia decisions share one rule, computed only
by :func:`cut`: v_i counts as nonzero when |v_i| > tol * max(1, max|v|),
v being the eigenvalues, singular values or entries decided on.  The
kernels that take a ``tol`` default to ``DEFAULT_TOL`` = 1e-8.  The
subspace kernels ``orthonormal_span``, ``span_dim`` and
``subspace_of_vectors`` cut their singular values at ``SUBSPACE_TOL`` =
1e-10, with no per-call override; ``nullspace`` defaults to the same cut.
PSD decisions use the rule of :func:`psd_check`.

Each subspace kernel computes only what its callers read: ``span_dim``
answers a rank question from the singular values alone;
``orthonormal_span`` skips the SVD when the generating rows are already
pairwise orthogonal (their norms are then the singular values and the
normalized rows the right singular vectors); ``nullspace`` builds the
full set of right singular vectors only for a wide input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

DEFAULT_TOL = 1e-8
SUBSPACE_TOL = 1e-10


def cut(values, tol: float) -> float:
    """The threshold tol * max(1, max|v|) above which |v_i| counts as
    nonzero; tol for empty input."""
    return tol * max(1.0, float(np.abs(values).max(initial=0.0)))


# ---------------------------------------------------------------------------
# constructors / validation


def sym_matrix(entries) -> np.ndarray:
    """Validate and return a real symmetric matrix (exactly symmetrized)."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max(initial=0.0)
    if not np.isfinite(scale):
        raise InvalidInputError("matrix has non-finite entries")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * (1.0 + scale):
        raise InvalidInputError("matrix is not symmetric")
    out = np.triu(a)
    return out + np.triu(out, 1).T


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric (Hermitian) part of a square matrix, or of each in a stack."""
    if np.iscomplexobj(a):
        return 0.5 * (a + a.conj().swapaxes(-1, -2))
    return 0.5 * (a + a.swapaxes(-1, -2))


def outer(x: np.ndarray) -> np.ndarray:
    """Rank-1 matrix x x^T (x x^* in the complex case)."""
    x = np.asarray(x)
    return np.outer(x, x.conj())


# ---------------------------------------------------------------------------
# spectral kernel


@dataclass
class EigDecomp:
    """Spectral decomposition A = V diag(values) V^T, eigenvalues descending."""

    values: np.ndarray   # (n,), real, sorted descending
    vectors: np.ndarray  # (n, n), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T

    def rank(self, tol: float) -> int:
        """Number of eigenvalues with |lambda| > cut(lambda, tol)."""
        return int(np.count_nonzero(np.abs(self.values) > cut(self.values, tol)))

    def range(self, tol: float) -> np.ndarray:
        """Eigenvectors (columns) whose eigenvalues are above cut(lambda, tol)."""
        return self.vectors[:, self.values > cut(self.values, tol)]

    def pinv(self, tol: float) -> np.ndarray:
        """Moore-Penrose inverse, inverting the eigenvalues above the cut."""
        inv = np.where(np.abs(self.values) > cut(self.values, tol),
                       1.0 / np.where(self.values == 0, 1.0, self.values), 0.0)
        return (self.vectors * inv) @ self.vectors.conj().T


def eig_sym(a: np.ndarray) -> EigDecomp:
    """Full spectral decomposition of a symmetric (Hermitian) matrix.

    Eigenvalues come back sorted descending with matching orthonormal
    eigenvectors in the columns.  Backed by LAPACK's symmetric solver,
    which meets the 1e-10 relative reconstruction bound everywhere at the
    matrix sizes this package works with.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    w, v = np.linalg.eigh(sym(a))
    order = np.argsort(w)[::-1]
    return EigDecomp(values=w[order], vectors=v[:, order])


def unitary_eigenbasis(u: np.ndarray) -> np.ndarray:
    """Unitary V with V^* U V diagonal, for a unitary U.

    U is turned to R = e^{ia} U with -1 mid-way in the widest gap of its
    spectrum, so that every phase t of R has |t| <= pi - gap / 2.  The
    Cayley transform H = i (I - R)(I + R)^{-1} is then a well-conditioned
    Hermitian matrix with the eigenvectors of R and eigenvalue tan(t / 2)
    for each phase t: distinct phases give distinct eigenvalues, and a
    repeated phase an orthonormal eigenspace, both from Hermitian eigh.
    """
    # a handful of phases: plain floats cost less than numpy calls here
    phases = sorted(np.angle(np.linalg.eigvals(u)).tolist())
    ends = phases[1:] + [phases[0] + 2.0 * math.pi]
    gap, start = max((end - t, t) for t, end in zip(phases, ends))
    turn = math.pi - start - 0.5 * gap
    r = complex(math.cos(turn), math.sin(turn)) * u
    eye = np.eye(len(u))
    # (I - R) and (I + R)^{-1} commute, so H = i (I + R)^{-1} (I - R); eigh
    # reads one triangle of H, which is Hermitian up to rounding
    return np.linalg.eigh(1j * np.linalg.solve(eye + r, eye - r))[1]


def numeric_rank(a: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with |lambda| > cut(lambda, tol)."""
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    w = np.linalg.eigvalsh(sym(np.asarray(a)))
    return int(np.count_nonzero(np.abs(w) > cut(w, tol)))


def psd_check(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff lambda_min(A) >= -tol * (1 + ||A||_F)."""
    a = sym(np.asarray(a))
    return psd_values(np.linalg.eigvalsh(a), a, tol)


def psd_values(w: np.ndarray, a: np.ndarray, tol: float) -> bool:
    """The :func:`psd_check` rule on eigenvalues w already computed for A."""
    return float(w.min(initial=np.inf)) >= -tol * (1.0 + float(np.linalg.norm(a)))


def pseudo_inverse(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric (Hermitian) matrix."""
    return eig_sym(np.asarray(a)).pinv(tol)


def inertia_split(q: np.ndarray, tol: float = DEFAULT_TOL):
    """Columns u with u^T q u = 1 and v with v^T q v = -1 along eigenvectors
    of q, and its kernel: eigenvalues within cut(lambda, tol) count as 0."""
    dec = eig_sym(q)
    c = cut(dec.values, tol)
    pos, neg = dec.values > c, dec.values < -c
    return (dec.vectors[:, pos] / np.sqrt(dec.values[pos]),
            dec.vectors[:, neg] / np.sqrt(-dec.values[neg]),
            dec.vectors[:, np.abs(dec.values) <= c])


def isotropic_vectors(q: np.ndarray, tol: float) -> np.ndarray:
    """Columns x with x^T q x = 0 whose products x x^T span the cone
    {X >= 0 : <q, X> = 0}, in closed form from the directions u_a, v_b, k_c
    of :func:`inertia_split`:

    * u_a + v_b, and u_a - v_b where a = 0 or b = 0;
    * u_a + u_c + sqrt(2) v_0 and v_a + v_c + sqrt(2) u_0 (a < c);
    * k_c and k_c + k_d (c < d);
    * k_c + u_a +- v_0 and k_c + u_0 +- v_b (b > 0).

    In the frame (u, v, k), where q reads diag(I, -I, 0), the products
    give the kernel block, every cross term (u_a v_b^T, u_a u_c^T,
    v_a v_c^T, k_c u_a^T, k_c v_b^T) and every u_a u_a^T + v_b v_b^T.  So
    an indefinite q gets the whole hyperplane q^perp, of dimension
    n (n + 1) / 2 - 1, which is exactly the count when q is nondegenerate;
    a semidefinite q gets the symmetric matrices on its kernel, where that
    cone lives.
    """
    u, v, k = inertia_split(q, tol)
    p, m, z = u.shape[1], v.shape[1], k.shape[1]
    root2 = np.sqrt(2.0)
    cols = [u[:, a] + v[:, b] for a in range(p) for b in range(m)]
    cols += [u[:, a] - v[:, b] for a in range(p) for b in range(m) if a == 0 or b == 0]
    if m:
        cols += [u[:, a] + u[:, c] + root2 * v[:, 0] for a in range(p) for c in range(a + 1, p)]
    if p:
        cols += [v[:, a] + v[:, c] + root2 * u[:, 0] for a in range(m) for c in range(a + 1, m)]
    for c in range(z):
        cols += [k[:, c]] + [k[:, c] + k[:, d] for d in range(c + 1, z)]
        if p and m:
            cols += [k[:, c] + u[:, a] + s * v[:, 0] for a in range(p) for s in (1.0, -1.0)]
            cols += [k[:, c] + u[:, 0] + s * v[:, b] for b in range(1, m) for s in (1.0, -1.0)]
    return np.array(cols).reshape(len(cols), q.shape[0]).T


def schur_shares(m: np.ndarray, block_sizes: tuple[int, int, int],
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the middle block of a PSD 3x3-block matrix with zero corner.

    For M = [[A, B, 0], [B^T, C, D], [0, D^T, E]] positive semidefinite,
    returns (C1, C2) with C1 = B^T A^+ B and C2 = C - C1 such that both
    [[A, B], [B^T, C1]] and [[C2, D], [D^T, E]] are positive semidefinite.
    M is not checked: the caller knows it is PSD with a zero corner.  A^+
    inverts the eigenvalues of A above cut(lambda, tol)."""
    na, nb, _ = block_sizes
    a = m[:na, :na]
    b = m[:na, na:na + nb]
    c = m[na:na + nb, na:na + nb]
    c1 = sym(b.conj().T @ pseudo_inverse(a, tol) @ b)
    return c1, sym(c - c1)


# ---------------------------------------------------------------------------
# matrix-space spans
#
# A span is a stack of matrices, shape (d, n, n), orthonormal under the
# Frobenius inner product (Re trace(A B^*) in the complex case).  Complex
# Hermitian matrices are treated as a real vector space, so vectorization
# splits real and imaginary parts.


def vec(a: np.ndarray) -> np.ndarray:
    """Real vectorization compatible with the Frobenius inner product."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.concatenate([a.real.ravel(), a.imag.ravel()])
    return a.ravel()


def to_json_array(a: np.ndarray) -> list:
    """Nested lists of floats; a complex array nests [re, im] pairs."""
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], -1).tolist()
    return a.tolist()


def from_json_array(data, ndim: int) -> np.ndarray:
    """Inverse of :func:`to_json_array` for an array of ``ndim`` axes.

    One extra trailing axis of length 2 holds [re, im] pairs; the result
    is real when every imaginary part is zero.  An ndarray passes through.
    """
    if isinstance(data, np.ndarray):
        return data
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError("array entries are ragged or not numbers") from None
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        return a
    if not a[..., 1].any():
        return a[..., 0]
    return a.view(complex)[..., 0]


def from_json_int(value, name: str) -> int:
    """An integer read from JSON (a numpy integer passes too); a bool, a
    float, a string or anything else raises InvalidInputError naming the
    field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _vec_stack(a: np.ndarray) -> np.ndarray:
    """Rows vec(a[k]) of a stack of matrices."""
    flat = a.reshape(a.shape[0], int(np.prod(a.shape[1:])))
    if np.iscomplexobj(a):
        return np.concatenate([flat.real, flat.imag], axis=1)
    return flat


def _svd_cut(a: np.ndarray, tol: float, full_matrices: bool):
    """(rank, vt) of a, counting singular values above cut(s, tol): the rows
    of a lie in the span of vt[:rank]; vt[rank:].conj() spans the kernel."""
    _, s, vt = np.linalg.svd(a, full_matrices=full_matrices)
    return int(np.count_nonzero(s > cut(s, tol))), vt


# rows whose pairwise inner products are at most this times the product of
# their norms are orthogonal up to rounding: their SVD is known in closed
# form; a norm or phase within this of 1 is 1 up to rounding
_ORTHOGONAL = 1e-14


def _span_rows(mats):
    """The real rows vec(mats[k]) restricted to their support, the support
    (column indices into the full rows), the full row width, n and whether
    the field is complex: the input of every span kernel below.

    A coordinate that is zero in every input matrix carries no part of any
    right singular vector, so restricting to the support changes no
    singular value and no span; a chordal pattern on 40 vertices, for
    instance, uses 268 of the 1,600 entries.
    """
    stack = np.asarray(mats)
    if len(stack) == 0:
        raise InvalidInputError("empty generating set")
    complex_field = np.iscomplexobj(stack)
    rows = _vec_stack(stack.astype(complex if complex_field else float, copy=False))
    support = np.flatnonzero(rows.any(axis=0))
    return rows[:, support], support, rows.shape[1], stack.shape[1], complex_field


def span_dim(mats) -> int:
    """Dimension of the real span of the given matrices: the number of
    singular values above cut(s, SUBSPACE_TOL), the rank rule of
    :func:`orthonormal_span`, from the singular values alone."""
    s = np.linalg.svd(_span_rows(mats)[0], compute_uv=False)
    return int(np.count_nonzero(s > cut(s, SUBSPACE_TOL)))


def orthonormal_span(mats) -> np.ndarray:
    """Orthonormal basis (stack) of the real span of the given matrices.

    The rows vec(mats[k]), restricted to their support, decide the span by
    their singular values above cut(s, SUBSPACE_TOL).  When the rows are pairwise
    orthogonal up to rounding (coordinate patterns, Hankel anti-diagonals,
    Toeplitz diagonals, direct sums, an orthonormal basis read back), the
    SVD is known in closed form: the singular values are the row norms and
    the right singular vectors the normalized rows.  Rows with disjoint
    supports are told orthogonal without their Gram matrix.  Those rows
    then come back in input order, normalized, the ones at or below the
    cut dropped, and are not symmetrized again when they are real and
    exactly symmetric already; a row of unit norm up to rounding is kept
    as it is, so that a basis read back gives itself bit for bit.  Any
    other input takes the SVD, whose rows come in descending order of
    singular value.
    """
    rows, support, width, n, complex_field = _span_rows(mats)
    norms = np.sqrt(np.vecdot(rows, rows))
    if _disjoint_supports(rows) or _gram_orthogonal(rows, norms):
        # exactly symmetric rows stay so under the division by their norms
        symmetric = not complex_field and _rows_symmetric(rows, support, n)
        live = norms > cut(norms, SUBSPACE_TOL)
        vt = rows if live.all() else rows[live]
        vt /= snap_to_one(norms[live])[:, None]
        rank = len(vt)
    else:
        symmetric = False
        rank, vt = _svd_cut(rows, SUBSPACE_TOL, full_matrices=False)
    keep = np.zeros((rank, width))
    keep[:, support] = vt[:rank]
    if complex_field:
        keep = keep[:, :n * n] + 1j * keep[:, n * n:]
    keep = keep.reshape(-1, n, n)
    return keep if symmetric else sym(keep)


def _disjoint_supports(rows) -> bool:
    """True iff no column is nonzero in two rows, as in coordinate
    patterns, chordal spans and Hankel anti-diagonals: such rows are
    exactly orthogonal, which this tells without the Gram matrix.  Every
    column of rows restricted to their support holds a nonzero, so that
    is one nonzero per column."""
    return np.count_nonzero(rows) == rows.shape[1]


def _gram_orthogonal(rows, norms) -> bool:
    """True iff the rows are pairwise orthogonal up to rounding, by their
    Gram matrix."""
    gram = rows @ rows.T
    np.fill_diagonal(gram, 0.0)
    return bool((np.abs(gram) <= _ORTHOGONAL * norms[:, None] * norms).all())


def snap_to_one(x: np.ndarray) -> np.ndarray:
    """x with each entry within rounding (1e-14) of 1 set to 1: the norms
    or phases to divide by when normalizing, so that a vector already
    normalized, one read back from JSON for instance, stays bit for bit
    as it is and normalizing twice gives what normalizing once gave."""
    return np.where(np.abs(x - 1.0) <= _ORTHOGONAL, 1.0, x)


def _rows_symmetric(rows, support, n) -> bool:
    """True iff each real row, restricted to the support, equals the
    entries of its transpose bit for bit (a signed zero included);
    :func:`sym` would then return it unchanged, so the caller skips it."""
    mirror = np.arange(n * n).reshape(n, n).T.ravel()[support]
    pos = np.minimum(np.searchsorted(support, mirror), len(support) - 1)
    return bool(np.array_equal(support[pos], mirror)
                and np.array_equal(rows[:, pos].view(np.uint64), rows.view(np.uint64)))


def span_coords(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients of the orthogonal projection of x onto the span."""
    return _vec_stack(basis) @ vec(np.asarray(x, dtype=basis.dtype))


def span_project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    c = span_coords(basis, x)
    return np.tensordot(c, basis, axes=(0, 0))


def span_distances(basis: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Frobenius distance from each matrix of a stack (k, n, n) to the span,
    real or complex, from one product of the rows vec(X) against the basis
    rows; an empty basis (0, n, n) gives |X|."""
    field = np.result_type(basis, stack)
    rows, b = (_vec_stack(np.asarray(a).astype(field, copy=False)) for a in (stack, basis))
    return np.linalg.norm(rows - (rows @ b.T) @ b, axis=1)


def span_distance(basis: np.ndarray, x: np.ndarray) -> float:
    return float(span_distances(basis, np.asarray(x)[None])[0])


def span_contains(basis: np.ndarray, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff X, or each matrix of a stack, is within tol * (1 + |X|) of the span."""
    stack = np.asarray(x).reshape(-1, *np.shape(x)[-2:])
    bound = tol * (1.0 + np.linalg.norm(stack, axis=(1, 2)))
    return bool((span_distances(basis, stack) <= bound).all())


def span_from_coords(basis: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(c), basis, axes=(0, 0))


def subspace_of_vectors(vectors) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the given vectors,
    cut at SUBSPACE_TOL."""
    v = np.array([np.asarray(x) for x in vectors])
    if v.size == 0:
        return np.zeros((0, 0))
    rank, vt = _svd_cut(v, SUBSPACE_TOL, full_matrices=False)
    return vt[:rank].T


def nullspace(a: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis, as columns, of the kernel of a (real or complex)."""
    a = np.atleast_2d(np.asarray(a))
    # a tall or square a has a square reduced vt; only a wide one needs
    # the full one for its kernel rows
    rank, vt = _svd_cut(a, tol, full_matrices=a.shape[0] < a.shape[1])
    return vt[rank:].conj().T


def complement_basis(cols: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement in R^n or C^n.

    When the given columns are signed canonical basis vectors, the
    complement is returned as canonical basis vectors in index order so
    that coordinate structure survives an intertwining along coordinate
    faces.
    """
    cols = np.asarray(cols, dtype=complex if np.iscomplexobj(cols) else float)
    if cols.size == 0:
        return np.eye(n)
    used = set()
    canonical = True
    for j in range(cols.shape[1]):
        c = cols[:, j]
        i = int(np.argmax(np.abs(c)))
        if abs(abs(c[i]) - 1.0) < 1e-12 and np.abs(c).sum() - abs(c[i]) < 1e-12:
            used.add(i)
        else:
            canonical = False
            break
    if canonical and len(used) == cols.shape[1]:
        free = [i for i in range(n) if i not in used]
        out = np.zeros((n, len(free)))
        for k, i in enumerate(free):
            out[i, k] = 1.0
        return out
    return nullspace(cols.conj().T)


def invertible(a: np.ndarray) -> bool:
    """True iff a is square and its smallest singular value exceeds
    SUBSPACE_TOL times its largest, a test that no rescaling of a moves."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    s = np.linalg.svd(a, compute_uv=False)
    return bool(s[-1] > SUBSPACE_TOL * s[0])


def sym_basis(n: int) -> np.ndarray:
    """Canonical orthonormal basis of the symmetric n x n matrices."""
    mats = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        mats.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(e)
    return np.array(mats)


def herm_basis(n: int) -> np.ndarray:
    """Canonical orthonormal real basis of the Hermitian n x n matrices."""
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[i, j] = 1j / np.sqrt(2.0)
            f[j, i] = -1j / np.sqrt(2.0)
            mats.append(f)
    return np.array(mats)


def subspace_pencil_span(h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span{ sym(x y^T) : x, y in col(h) }.

    For an orthonormal column basis b_1..b_k of the subspace this is the
    stack of b_i b_i^T and sym(b_i b_j^T)/sqrt(2), which is already
    orthonormal.
    """
    h = np.asarray(h)
    k = h.shape[1]
    complex_field = np.iscomplexobj(h)
    mats = []
    for i in range(k):
        mats.append(outer(h[:, i]))
    for i in range(k):
        for j in range(i + 1, k):
            m = np.outer(h[:, i], h[:, j].conj())
            mats.append(sym(m) * np.sqrt(2.0))
            if complex_field:
                mats.append(sym(1j * m) * np.sqrt(2.0))
    return np.array(mats)
