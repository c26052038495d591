"""Dense real-symmetric / complex-Hermitian linear algebra kernel.

Everything else in the package is built on the helpers here: spectral
decompositions with deterministic ordering, tolerance-based rank and
positive-semidefiniteness decisions, Moore-Penrose inverses, the
three-block Schur splitting used by the gluing construction, and a small
toolbox for working with linear subspaces of matrix space (spans of
symmetric or Hermitian matrices under the Frobenius inner product).

Matrices are plain numpy arrays.  Symmetric means ``A == A.T`` exactly;
``sym_matrix`` / ``herm_matrix`` enforce that at API boundaries.

Rank, range, kernel and inertia decisions share one rule, computed only
by :func:`cut`: v_i counts as nonzero when |v_i| > tol * max(1, max|v|),
v being the eigenvalues, singular values or entries decided on.  The
defaults, overridable per call, are ``DEFAULT_TOL`` = 1e-8 and, for the
singular-value cut that ``orthonormal_span``, ``subspace_of_vectors`` and
``nullspace`` share, ``SUBSPACE_TOL`` = 1e-10.  PSD decisions use the
rule of :func:`psd_check`.
"""

from __future__ import annotations

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
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max(initial=0.0))):
        raise InvalidInputError("matrix is not symmetric")
    out = np.triu(a)
    return out + np.triu(out, 1).T


def herm_matrix(entries) -> np.ndarray:
    """Validate and return a complex Hermitian matrix."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max(initial=0.0))):
        raise InvalidInputError("matrix is not Hermitian")
    return 0.5 * (a + a.conj().T)


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


def schur_split(m: np.ndarray, block_sizes: tuple[int, int, int],
                tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split the middle block of a PSD 3x3-block matrix with zero corner.

    For M = [[A, B, 0], [B^T, C, D], [0, D^T, E]] positive semidefinite,
    returns (C1, C2) with C1 = B^T A^+ B and C2 = C - C1 such that both
    [[A, B], [B^T, C1]] and [[C2, D], [D^T, E]] are positive semidefinite.
    """
    m = np.asarray(m)
    na, nb, nc = block_sizes
    if na + nb + nc != m.shape[0] or m.shape[0] != m.shape[1]:
        raise InvalidInputError("block sizes do not match the matrix")
    scale = 1.0 + float(np.linalg.norm(m))
    corner = m[:na, na + nb:]
    if np.linalg.norm(corner) > tol * scale:
        raise InvalidInputError("corner block is not zero")
    if not psd_check(m, tol):
        raise InvalidInputError("matrix is not positive semidefinite")
    a = m[:na, :na]
    b = m[:na, na:na + nb]
    c = m[na:na + nb, na:na + nb]
    c1 = sym(b.conj().T @ pseudo_inverse(a, tol) @ b)
    c2 = sym(c - c1)
    return c1, c2


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


def orthonormal_span(mats, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis (stack) of the real span of the given matrices.

    The SVD runs only on the coordinates that are nonzero in some input
    matrix and its right singular vectors are scattered back into place.
    A coordinate that is zero in every input carries no part of any right
    singular vector, so the span is the one a dense SVD gives; a chordal
    pattern on 40 vertices, for instance, uses 268 of the 1,600 entries.
    """
    stack = np.asarray(mats)
    if len(stack) == 0:
        raise InvalidInputError("empty generating set")
    n = stack.shape[1]
    complex_field = np.iscomplexobj(stack)
    rows = _vec_stack(stack.astype(complex if complex_field else float, copy=False))
    support = np.flatnonzero(rows.any(axis=0))
    rank, vt = _svd_cut(rows[:, support], tol, full_matrices=False)
    keep = np.zeros((rank, rows.shape[1]))
    keep[:, support] = vt[:rank]
    if complex_field:
        keep = keep[:, :n * n] + 1j * keep[:, n * n:]
    return sym(keep.reshape(-1, n, n))


def span_coords(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coefficients of the orthogonal projection of x onto the span."""
    return _vec_stack(basis) @ vec(np.asarray(x, dtype=basis.dtype))


def span_project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    c = span_coords(basis, x)
    return np.tensordot(c, basis, axes=(0, 0))


def span_distance(basis: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(x) - span_project(basis, x)))


def span_contains(basis: np.ndarray, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return span_distance(basis, x) <= tol * (1.0 + float(np.linalg.norm(x)))


def span_from_coords(basis: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.tensordot(np.asarray(c), basis, axes=(0, 0))


def subspace_of_vectors(vectors, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the given vectors."""
    v = np.array([np.asarray(x) for x in vectors])
    if v.size == 0:
        return np.zeros((0, 0))
    rank, vt = _svd_cut(v, tol, full_matrices=False)
    return vt[:rank].T


def nullspace(a: np.ndarray, tol: float = SUBSPACE_TOL) -> np.ndarray:
    """Orthonormal basis, as columns, of the kernel of a (real or complex)."""
    rank, vt = _svd_cut(np.atleast_2d(np.asarray(a)), tol, full_matrices=True)
    return vt[rank:].conj().T


def complement_basis(cols: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement in R^n.

    When the given columns are signed canonical basis vectors, the
    complement is returned as canonical basis vectors in index order so
    that coordinate structure survives an intertwining along coordinate
    faces.
    """
    cols = np.asarray(cols, dtype=float)
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
    return nullspace(cols.T)


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
