"""Rank-1 decomposition engines.

Four routes, all returning a :class:`Decomposition` whose atom count
equals the matrix rank:

* a generic peeling loop (``carath_decompose``) that repeatedly extracts
  an extreme ray from the face of the current iterate and steps to the
  PSD boundary; on chordal patterns the ray is a pivot column, so each
  step is one step of zero-fill elimination,
* compositional recursions over the construction tree for direct sums,
  full extensions and intertwinings,
* a shift-invariance (Prony-type) node solver for block-Hankel matrices,
* a unitary spectral factorization for complex block-Toeplitz matrices.

What the engines know about each cone kind (its route, its extreme-ray
rule, its face rays and its sampler) is one :class:`Family` record in
``_FAMILIES`` at the end of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from . import constructions, symlin
from .cone_model import SpectrahedralCone, membership
from .errors import (InvalidInputError, NumericalError,
                     OracleUnavailableError)
from .symlin import DEFAULT_TOL


@dataclass
class RankOneAtom:
    weight: float
    vector: np.ndarray  # unit vector

    def matrix(self) -> np.ndarray:
        return self.weight * symlin.outer(self.vector)


@dataclass
class Decomposition:
    atoms: list[RankOneAtom]
    residual: float

    def reconstruct(self, n: int | None = None) -> np.ndarray:
        if not self.atoms:
            if n is None:
                raise InvalidInputError("empty decomposition needs a size")
            return np.zeros((n, n))
        return sum(a.matrix() for a in self.atoms)


def _as_decomposition(weights, vectors, x_mat) -> Decomposition:
    atoms = []
    for w, v in zip(weights, vectors):
        nrm = np.linalg.norm(v)
        if w * nrm * nrm < 1e-14:
            continue
        atoms.append(RankOneAtom(weight=float(w * nrm * nrm), vector=v / nrm))
    total = sum(a.matrix() for a in atoms) if atoms else np.zeros_like(x_mat)
    residual = float(np.linalg.norm(x_mat - total))
    return Decomposition(atoms=atoms, residual=residual)


# ---------------------------------------------------------------------------
# dispatcher


def decompose(cone: SpectrahedralCone, x_mat: np.ndarray,
              tol: float = DEFAULT_TOL) -> Decomposition:
    """Write X in K as a sum of rank(X) rank-1 elements of K.

    Takes the direct route of the cone's kind when it has one, and the
    peeling loop otherwise.
    """
    x_mat = np.asarray(x_mat)
    route = _rule(cone, "route")
    if route is None:
        return carath_decompose(cone, x_mat, tol)
    return route(cone, x_mat, tol)


# ---------------------------------------------------------------------------
# generic peeling loop


def carath_decompose(cone: SpectrahedralCone, x_mat: np.ndarray,
                     tol: float = DEFAULT_TOL, max_retries: int = 8
                     ) -> Decomposition:
    """Peel extreme rays until nothing is left.

    Each round finds a rank-1 element E = x x^T of the cone inside the
    face of the current iterate and removes mu* E with the largest mu*
    keeping the iterate PSD (mu* = 1 / x^T X^+ x); the rank then drops by
    exactly one.  A step that fails to drop the rank is retried with a
    different ray.
    """
    x_mat = np.asarray(x_mat, dtype=cone.span_basis.dtype)
    if not membership(cone, x_mat, max(tol, 1e-7)):
        raise InvalidInputError("matrix is not a member of the cone")
    current = symlin.span_project(cone.span_basis, symlin.sym(x_mat))
    weights: list[float] = []
    vectors: list[np.ndarray] = []
    dec = symlin.eig_sym(current)
    rank = dec.rank(tol)
    mu_trace: list[float] = []
    while rank > 0:
        h = dec.vectors[:, dec.values > symlin.cut(dec.values, tol)]
        pinv = dec.pinv(tol)
        accepted = False
        for attempt in range(max_retries):
            x = extreme_ray_oracle(cone, h, x_current=current, attempt=attempt,
                                   tol=tol)
            if x is None:
                continue
            x = x / np.linalg.norm(x)
            denom = float(np.real(np.vdot(x, pinv @ x)))
            if denom <= tol:
                continue
            mu = 1.0 / denom
            candidate = symlin.sym(current - mu * symlin.outer(x))
            cand_dec = symlin.eig_sym(candidate)
            new_rank = cand_dec.rank(tol)
            if (new_rank >= rank
                    or not symlin.psd_values(cand_dec.values, candidate, 10 * tol)):
                mu_trace.append(mu)
                continue
            weights.append(mu)
            vectors.append(x)
            current, dec, rank = candidate, cand_dec, new_rank
            accepted = True
            break
        if not accepted:
            raise NumericalError(
                f"extreme-ray peeling stalled at rank {rank}; "
                f"rejected steps mu={mu_trace}")
    return _as_decomposition(weights, vectors, x_mat)


# ---------------------------------------------------------------------------
# extreme-ray oracle


def extreme_ray_oracle(cone: SpectrahedralCone, h: np.ndarray,
                       x_current: np.ndarray | None = None, attempt: int = 0,
                       tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """A nonzero x in col(h) with x x^T in the cone's span, or None.

    ``h`` is an orthonormal column basis of the face image.  ``attempt``
    selects among candidates when several rays are available.  Combinator
    cones delegate to the compositional decomposition of the current
    iterate.
    """
    if cone.expr is None:
        raise OracleUnavailableError("cone carries no construction expression")
    if h.shape[1] == 0:
        raise InvalidInputError("face is zero")
    ray = _rule(cone, "ray")
    if ray is None:
        raise OracleUnavailableError(
            f"no extreme-ray rule for cone kind {cone.expr.kind!r}")
    return ray(cone, h, x_current, attempt, tol)


def _pick(cands, attempt):
    return cands[attempt % len(cands)] if cands else None


def _codim1_ray(cone, h, x_current, attempt, tol):
    q = _data(cone, "Q")
    u_dirs, v_dirs, ker = symlin.inertia_split(symlin.sym(h.T @ q @ h), tol)
    npos, nneg = u_dirs.shape[1], v_dirs.shape[1]
    if npos and nneg:
        sign = -1.0 if (attempt % 2 == 1 and npos == 1 and nneg == 1) else 1.0
        return h @ (u_dirs[:, attempt % npos]
                    + sign * v_dirs[:, (attempt // npos) % nneg])
    if ker.shape[1]:
        return h @ ker[:, attempt % ker.shape[1]]
    return None


def _cross_ratio_ray(cone, h, x_current, attempt, tol):
    found = []
    for plane in _data(cone, "planes"):
        v = _subspace_intersection_vector(h, plane)
        if v is not None:
            found.append(v)
    return _pick(found, attempt)


def _subspace_intersection_vector(h, plane):
    stacked = np.hstack([h, -plane])
    null = symlin.nullspace(stacked)
    if null.shape[1] == 0:
        return None
    v = h @ null[:h.shape[1], 0]
    if np.linalg.norm(v) < 1e-8:
        return None
    return v / np.linalg.norm(v)


def _direct_sum_ray(cone, h, x_current, attempt, tol):
    pieces = _direct_sum_faces(cone, h)
    for shift in range(len(pieces)):
        lo, hi, child, sub = pieces[(attempt + shift) % len(pieces)]
        x_child = None if x_current is None else x_current[lo:hi, lo:hi]
        ray = extreme_ray_oracle(child, sub, x_child, attempt // len(pieces), tol)
        if ray is not None:
            return _place(cone.n, lo, ray)
    return None


def _chordal_ray(cone, h, x_current, attempt, tol):
    """The iterate's column at the last vertex in MCS order whose column is
    nonzero, zeroed outside that vertex's clique.  Earlier peels cleared the
    columns of the later vertices, so the column already lies on the clique
    and peeling it is one step of zero-fill elimination."""
    if x_current is None:
        raise InvalidInputError("chordal oracle needs the current iterate")
    cut = symlin.cut(x_current, tol)
    aux = cone.expr.aux
    for v, clique in zip(reversed(aux["order"]), reversed(aux["cliques"])):
        if np.linalg.norm(x_current[:, v]) > cut:
            x = np.zeros(cone.n)
            x[clique] = x_current[clique, v]
            return x
    return None


def _composite_ray(cone, h, x_current, attempt, tol):
    if x_current is None:
        raise InvalidInputError("composite oracle needs the current iterate")
    dec = decompose(cone, x_current, tol)
    return _pick([a.vector for a in dec.atoms], attempt)


# ---------------------------------------------------------------------------
# compositional recursions


def _decompose_direct_sum(cone, x_mat, tol):
    n1, n2 = cone.expr.params["sizes"]
    k1, k2 = cone.expr.children
    x_mat = np.asarray(x_mat)
    scale = 1.0 + float(np.linalg.norm(x_mat))
    if np.linalg.norm(x_mat[:n1, n1:]) > 1e3 * tol * scale:
        raise InvalidInputError("off-diagonal block is not zero")
    d1 = decompose(k1, symlin.sym(x_mat[:n1, :n1]), tol)
    d2 = decompose(k2, symlin.sym(x_mat[n1:, n1:]), tol)
    weights = [a.weight for a in d1.atoms] + [a.weight for a in d2.atoms]
    vectors = [np.concatenate([a.vector, np.zeros(n2)]) for a in d1.atoms]
    vectors += [np.concatenate([np.zeros(n1), a.vector]) for a in d2.atoms]
    return _as_decomposition(weights, vectors, x_mat)


def decompose_full_extension(cone: SpectrahedralCone, x_mat: np.ndarray,
                             tol: float = DEFAULT_TOL) -> Decomposition:
    """Decompose along a full extension: child block, coupled strip, tail.

    The leading block is decomposed by the child cone; the off-diagonal
    strip is matched by a least-squares lift of the child atoms; what the
    lift leaves in the trailing block is the PSD Schur complement, which
    splits by eigendecomposition into tail atoms.
    """
    if cone.expr is None or cone.expr.kind != "full_ext":
        raise InvalidInputError("cone was not built by full_extension")
    n1 = cone.expr.aux["head"]
    x_mat = symlin.sym(np.asarray(x_mat, dtype=float))
    child = cone.expr.children[0]
    x11 = x_mat[:n1, :n1]
    x12 = x_mat[:n1, n1:]
    x22 = x_mat[n1:, n1:]
    child_dec = decompose(child, x11, tol)
    vectors = []
    weights = []
    if child_dec.atoms:
        v_cols = np.array([a.vector * np.sqrt(a.weight) for a in child_dec.atoms]).T
        w_cols = (np.linalg.pinv(v_cols) @ x12).T
        for i in range(v_cols.shape[1]):
            u = np.concatenate([v_cols[:, i], w_cols[:, i]])
            vectors.append(u)
            weights.append(1.0)
        schur = symlin.sym(x22 - w_cols @ w_cols.T)
    else:
        if np.linalg.norm(x12) > 1e3 * tol * (1.0 + np.linalg.norm(x_mat)):
            raise InvalidInputError("strip block inconsistent with zero head")
        schur = symlin.sym(x22)
    dec = symlin.eig_sym(schur)
    cut = symlin.cut(dec.values, tol)
    for lam, z in zip(dec.values, dec.vectors.T):
        if lam > cut:
            vectors.append(np.concatenate([np.zeros(n1), z * np.sqrt(lam)]))
            weights.append(1.0)
    return _as_decomposition(weights, vectors, x_mat)


def decompose_intertwining(cone: SpectrahedralCone, x_mat: np.ndarray,
                           tol: float = DEFAULT_TOL) -> Decomposition:
    """Split along the glued face, then recurse into both children.

    The three-block Schur split writes X as a sum of two matrices living
    on the child faces; each child decomposes its share and the atoms are
    lifted back.  Atom counts add up to rank(X) because the split matches
    the rank split of X across the overlap.
    """
    if cone.expr is None or cone.expr.kind != "intertwine":
        raise InvalidInputError("cone was not built by intertwine")
    a, k, b = cone.expr.aux["blocks"]
    c1 = cone.expr.aux["c1"]
    c2 = cone.expr.aux["c2"]
    f1 = cone.expr.aux["f1"]
    f2 = cone.expr.aux["f2"]
    k1, k2 = cone.expr.children
    x_mat = symlin.span_project(cone.span_basis, symlin.sym(np.asarray(x_mat, dtype=float)))
    c1m, c2m = symlin.schur_split(x_mat, (a, k, b), max(tol, 1e-9))
    x1_block = np.zeros((a + k, a + k))
    x1_block[:a, :a] = x_mat[:a, :a]
    x1_block[:a, a:] = x_mat[:a, a:a + k]
    x1_block[a:, :a] = x_mat[a:a + k, :a]
    x1_block[a:, a:] = c1m
    x2_block = np.zeros((k + b, k + b))
    x2_block[:k, :k] = c2m
    x2_block[:k, k:] = x_mat[a:a + k, a + k:]
    x2_block[k:, :k] = x_mat[a + k:, a:a + k]
    x2_block[k:, k:] = x_mat[a + k:, a + k:]
    m1 = symlin.sym(c1 @ x1_block @ c1.T)
    m2 = symlin.sym(c2 @ x2_block @ c2.T)
    for child, m in ((k1, m1), (k2, m2)):
        if symlin.span_distance(child.span_basis, m) > 1e-6 * (1.0 + np.linalg.norm(m)):
            raise NumericalError("split landed outside a child cone")
    vectors: list[np.ndarray] = []
    weights: list[float] = []
    for child, m, f in ((k1, m1, f1), (k2, m2, f2)):
        sub = decompose(child, m, tol)
        for atom in sub.atoms:
            vectors.append(f @ atom.vector)
            weights.append(atom.weight)
    return _as_decomposition(weights, vectors, x_mat)


# ---------------------------------------------------------------------------
# block-Hankel nodes (Prony / shift invariance)


def _hankel_pattern_ok(x_mat, n, m, tol):
    x_mat = np.asarray(x_mat)
    scale = 1.0 + float(np.linalg.norm(x_mat))
    for i in range(n):
        for j in range(n):
            blk = x_mat[i * m:(i + 1) * m, j * m:(j + 1) * m]
            ref_i = min(i + j, n - 1)
            ref_j = i + j - ref_i
            ref = x_mat[ref_i * m:(ref_i + 1) * m, ref_j * m:(ref_j + 1) * m]
            if np.linalg.norm(blk - ref) > 1e3 * tol * scale:
                return False
            if np.linalg.norm(blk - blk.T) > 1e3 * tol * scale:
                return False
    return True


def _snap_moment_vector(v, n, m, t):
    blocks = v.reshape(n, m)
    powers = t ** np.arange(n)
    x = powers @ blocks / (powers @ powers)
    return np.kron(powers, x)


def _hankel_candidates(u, n, m):
    """Candidate atom directions (moment vectors) for the Hankel face col(u)."""
    r = u.shape[1]
    if r == 0:
        return [], []
    u_up = u[:-m, :]
    u_dn = u[m:, :]
    ker = symlin.nullspace(u_up, 1e-7)
    inf_dirs = []
    for j in range(ker.shape[1]):
        w = u @ ker[:, j]
        z = w[(n - 1) * m:]
        if np.linalg.norm(z) > 1e-8:
            vec_ = np.concatenate([np.zeros((n - 1) * m), z])
            inf_dirs.append(vec_ / np.linalg.norm(vec_))
    finite = []
    comp = symlin.nullspace(ker.T) if ker.shape[1] else np.eye(r)
    if comp.shape[1] > 0:
        a2 = u_up @ comp
        b2 = u_dn @ comp
        f_op = np.linalg.pinv(a2) @ b2
        vals, vecs = np.linalg.eig(f_op)
        order = np.argsort(vals.real)
        for idx in order:
            t = vals[idx]
            if abs(t.imag) > 1e-6 * (1.0 + abs(t.real)):
                continue
            c = (comp @ vecs[:, idx]).real
            v = u @ c
            if np.linalg.norm(v) < 1e-10:
                continue
            snapped = _snap_moment_vector(v, n, m, float(t.real))
            if np.linalg.norm(snapped) < 1e-10:
                continue
            finite.append((float(t.real), snapped / np.linalg.norm(snapped)))
    return finite, inf_dirs


def _hankel_face_rays(cone, h, tol):
    finite, inf_dirs = _hankel_candidates(h, *_block_size(cone))
    p = h @ h.T
    return [v for v in [v for _, v in finite] + inf_dirs
            if np.linalg.norm(v - p @ v) <= 1e-6 * np.linalg.norm(v)]


def decompose_hankel(x_mat: np.ndarray, n: int, m: int = 1,
                     tol: float = DEFAULT_TOL,
                     cone: SpectrahedralCone | None = None) -> Decomposition:
    """Node recovery for a PSD block-Hankel matrix.

    Finite nodes come from the shift-invariance eigenproblem on the
    column space; directions that truncate to zero are the node at
    infinity.  Atom weights are then solved by least squares.  When the
    node solve degenerates (clustered or saturated nodes) the generic
    peeling loop with the Hankel ray oracle takes over.
    """
    x_mat = symlin.sym(np.asarray(x_mat, dtype=float))
    if x_mat.shape != (n * m, n * m):
        raise InvalidInputError("matrix size does not match (n, m)")
    if not _hankel_pattern_ok(x_mat, n, m, tol):
        raise InvalidInputError("matrix is not block-Hankel")
    dec = symlin.eig_sym(x_mat)
    if not symlin.psd_values(dec.values, x_mat, max(tol, 1e-7)):
        raise InvalidInputError("matrix is not positive semidefinite")
    rank = dec.rank(tol)
    if rank == 0:
        return Decomposition(atoms=[], residual=float(np.linalg.norm(x_mat)))
    finite, inf_dirs = _hankel_candidates(
        dec.vectors[:, dec.values > symlin.cut(dec.values, tol)], n, m)
    dirs = [v for _, v in finite] + inf_dirs
    result = _solve_weights(dirs, x_mat) if len(dirs) == rank else None
    if result is not None:
        return result
    if cone is None:
        cone = constructions.hankel_cone(n, m)
    return carath_decompose(cone, x_mat, tol)


def _solve_weights(dirs, x_mat):
    if not dirs:
        return None
    cols = np.array([symlin.vec(symlin.outer(v)) for v in dirs]).T
    w, *_ = np.linalg.lstsq(cols, symlin.vec(x_mat), rcond=None)
    if np.any(np.asarray(w) < -1e-7 * (1.0 + float(np.linalg.norm(x_mat)))):
        return None
    w = np.clip(np.real(w), 0.0, None)
    dec = _as_decomposition(w, dirs, x_mat)
    if dec.residual > 1e-7 * (1.0 + float(np.linalg.norm(x_mat))):
        return None
    return dec


# ---------------------------------------------------------------------------
# complex block-Toeplitz spectral factorization


def _toeplitz_pattern_ok(t_mat, n, m, tol):
    scale = 1.0 + float(np.linalg.norm(t_mat))
    for i in range(n):
        for j in range(n):
            blk = t_mat[i * m:(i + 1) * m, j * m:(j + 1) * m]
            d = i - j
            ri, rj = (d, 0) if d >= 0 else (0, -d)
            ref = t_mat[ri * m:(ri + 1) * m, rj * m:(rj + 1) * m]
            if np.linalg.norm(blk - ref) > 1e3 * tol * scale:
                return False
    return np.linalg.norm(t_mat - t_mat.conj().T) <= 1e3 * tol * scale


def decompose_block_toeplitz(t_mat: np.ndarray, n: int, m: int = 1,
                             tol: float = DEFAULT_TOL) -> Decomposition:
    """Split a PSD Hermitian block-Toeplitz matrix into phase atoms.

    Factor T = W W^*, solve the block shift W_lower = W_upper U for a
    unitary U (least squares followed by the polar projection), and
    diagonalize U; in the rotated factor every column has the geometric
    structure (v, v q, ..., v q^{n-1}) with |q| = 1.
    """
    t_mat = np.asarray(t_mat, dtype=complex)
    if t_mat.shape != (n * m, n * m):
        raise InvalidInputError("matrix size does not match (n, m)")
    if not _toeplitz_pattern_ok(t_mat, n, m, tol):
        raise InvalidInputError("matrix is not Hermitian block-Toeplitz")
    t_mat = symlin.sym(t_mat)
    dec = symlin.eig_sym(t_mat)
    if not symlin.psd_values(dec.values, t_mat, max(tol, 1e-7)):
        raise InvalidInputError("matrix is not positive semidefinite")
    keep = dec.values > symlin.cut(dec.values, tol)
    if not keep.any():
        return Decomposition(atoms=[], residual=float(np.linalg.norm(t_mat)))
    w_full = dec.vectors[:, keep] * np.sqrt(dec.values[keep])
    if n == 1:
        return _as_decomposition(np.ones(w_full.shape[1]), list(w_full.T), t_mat)
    w_up = w_full[:-m, :]
    w_lo = w_full[m:, :]
    u0 = np.linalg.pinv(w_up) @ w_lo
    p, _, qh = np.linalg.svd(u0)
    u = p @ qh
    shift_err = np.linalg.norm(w_up @ u - w_lo)
    if shift_err > 1e-6 * (1.0 + np.linalg.norm(w_lo)):
        raise NumericalError(
            f"unitary shift recovery failed (residual {shift_err:.2e})")
    tri, v = scipy.linalg.schur(u, output="complex")
    w_rot = w_full @ v
    return _as_decomposition(np.ones(w_rot.shape[1]), list(w_rot.T), t_mat)


# ---------------------------------------------------------------------------
# face certificate enrichment and random extreme rays (shared support)


def rays_spanning_face(cone: SpectrahedralCone, h: np.ndarray,
                       tol: float = DEFAULT_TOL):
    """Extra rank-1 directions of the face K ∩ L_n(H), kind permitting."""
    face_rays = _rule(cone, "face_rays")
    return [] if face_rays is None else face_rays(cone, h, tol)


def _full_psd_face_rays(cone, h, tol):
    cols = [h[:, i] for i in range(h.shape[1])]
    cols += [h[:, i] + h[:, j] for i in range(h.shape[1])
             for j in range(i + 1, h.shape[1])]
    return cols


def _diagonal_face_rays(cone, h, tol):
    p = h @ h.conj().T
    eye = np.eye(cone.n)
    return [eye[i] for i in range(cone.n) if abs(p[i, i] - 1.0) <= 1e2 * tol]


def _direct_sum_face_rays(cone, h, tol):
    return [_place(cone.n, lo, r) for lo, _, child, sub in _direct_sum_faces(cone, h)
            for r in rays_spanning_face(child, sub, tol)]


def _codim1_face_rays(cone, h, tol):
    q = _data(cone, "Q")
    u_dirs, v_dirs, ker = symlin.inertia_split(symlin.sym(h.T @ q @ h), tol)
    rays = [h @ ker[:, i] for i in range(ker.shape[1])]
    if u_dirs.shape[1] and v_dirs.shape[1]:
        rng = np.random.default_rng(777)
        for a in range(u_dirs.shape[1]):
            for b in range(v_dirs.shape[1]):
                rays.append(h @ (u_dirs[:, a] + v_dirs[:, b]))
                rays.append(h @ (u_dirs[:, a] - v_dirs[:, b]))
        for _ in range(4 * h.shape[1] * h.shape[1]):
            s = rng.standard_normal(u_dirs.shape[1])
            r = rng.standard_normal(v_dirs.shape[1])
            x = u_dirs @ (s / np.linalg.norm(s)) + v_dirs @ (r / np.linalg.norm(r))
            if ker.shape[1]:
                x = x + ker @ rng.standard_normal(ker.shape[1]) * 0.5
            rays.append(h @ x)
    return rays


def _cross_ratio_face_rays(cone, h, tol):
    rays = []
    p = h @ h.T
    for plane in _data(cone, "planes"):
        if np.linalg.norm(plane - p @ plane) <= 1e-7 * np.linalg.norm(plane):
            rays.extend([plane[:, 0], plane[:, 1], plane[:, 0] + plane[:, 1]])
            continue
        v = _subspace_intersection_vector(h, plane)
        if v is not None:
            rays.append(v)
    return rays


def random_extreme_ray(cone: SpectrahedralCone, rng: np.random.Generator
                       ) -> np.ndarray:
    """A random unit vector on the cone's rank-1 variety (test support)."""
    if cone.expr is None:
        raise OracleUnavailableError("cone carries no construction expression")
    sample = _rule(cone, "sample")
    if sample is None:
        raise OracleUnavailableError(f"no sampler for cone kind {cone.expr.kind!r}")
    x = sample(cone, rng)
    nrm = np.linalg.norm(x)
    if nrm < 1e-9:
        return random_extreme_ray(cone, rng)
    return x / nrm


def _hankel_sample(cone, rng):
    n, m = _block_size(cone)
    v = rng.standard_normal(m)
    if rng.random() < 0.1:
        return np.concatenate([np.zeros((n - 1) * m), v])
    return constructions._moment_vector(np.tan(rng.uniform(-1.2, 1.2)), n, v)


def _codim1_sample(cone, rng):
    u_dirs, v_dirs, ker = symlin.inertia_split(_data(cone, "Q"))
    s = rng.standard_normal(u_dirs.shape[1])
    r = rng.standard_normal(v_dirs.shape[1])
    x = u_dirs @ (s / np.linalg.norm(s)) + v_dirs @ (r / np.linalg.norm(r))
    if ker.shape[1] and rng.random() < 0.5:
        x = x + ker @ rng.standard_normal(ker.shape[1])
    return x


def _cross_ratio_sample(cone, rng):
    planes = _data(cone, "planes")
    return planes[rng.integers(len(planes))] @ rng.standard_normal(2)


def _block_toeplitz_sample(cone, rng):
    n, m = _block_size(cone)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return constructions._phase_vector(q, n, v)


def _chordal_sample(cone, rng):
    cliques = cone.expr.aux["cliques"]
    clique = cliques[rng.integers(len(cliques))]
    x = np.zeros(cone.n)
    x[clique] = rng.standard_normal(len(clique))
    return x


def _direct_sum_sample(cone, rng):
    n1, n2 = cone.expr.params["sizes"]
    k1, k2 = cone.expr.children
    if rng.random() < n1 / (n1 + n2):
        return _place(cone.n, 0, random_extreme_ray(k1, rng))
    return _place(cone.n, n1, random_extreme_ray(k2, rng))


def _full_ext_sample(cone, rng):
    child = cone.expr.children[0]
    k = cone.expr.aux["tail"]
    if rng.random() < 0.2:
        return np.concatenate([np.zeros(child.n), rng.standard_normal(k)])
    return np.concatenate([random_extreme_ray(child, rng), rng.standard_normal(k)])


def _intertwine_sample(cone, rng):
    k1, k2 = cone.expr.children
    if rng.random() < 0.5:
        return cone.expr.aux["f1"] @ random_extreme_ray(k1, rng)
    return cone.expr.aux["f2"] @ random_extreme_ray(k2, rng)


# ---------------------------------------------------------------------------
# shared pieces of the kind rules


def _data(cone, key):
    """Numeric data of the cone's expression: the copy its builder left in
    ``aux``, else decoded from the JSON params."""
    val = cone.expr.aux.get(key)
    if val is not None:
        return val
    if key == "planes":
        return constructions.cross_ratio_planes(cone.expr.params["angles"])
    return constructions._array_param(cone.expr.params[key])


def _block_size(cone):
    return cone.expr.params["n"], cone.expr.params.get("m", 1)


def _place(n, lo, x):
    """x padded with zeros to length n, starting at index lo."""
    out = np.zeros(n, dtype=x.dtype)
    out[lo:lo + len(x)] = x
    return out


def _direct_sum_faces(cone, h):
    """(lo, hi, child, face basis) for each summand whose block col(h) meets."""
    n1, n2 = cone.expr.params["sizes"]
    k1, k2 = cone.expr.children
    pieces = []
    for lo, hi, child, other in ((0, n1, k1, slice(n1, n1 + n2)),
                                 (n1, n1 + n2, k2, slice(0, n1))):
        null = symlin.nullspace(h[other, :])
        if null.shape[1] == 0:
            continue
        sub = symlin.subspace_of_vectors((h @ null)[lo:hi, :].T)
        if sub.shape[1]:
            pieces.append((lo, hi, child, sub))
    return pieces


# A wrapper cone holds one child in other coordinates: X = G X_child G^*
# and x = G x_child, with F = G^{-1} (or the pull-back B for a reduction)
# carrying matrices and faces into the child.


def _congruence_coords(cone):
    a = _data(cone, "matrix")
    return np.linalg.inv(a), a


def _reduce_coords(cone):
    b = _data(cone, "embedding")
    return b, b.conj().T


def _into(fwd, x_mat):
    return symlin.sym(fwd @ x_mat @ fwd.conj().T)


def _face_into(fwd, h):
    return symlin.subspace_of_vectors((fwd @ h).T)


def _decompose_wrapped(coords, cone, x_mat, tol):
    fwd, back = coords(cone)
    inner = decompose(cone.expr.children[0], _into(fwd, x_mat), tol)
    return _as_decomposition([a.weight for a in inner.atoms],
                             [back @ a.vector for a in inner.atoms], x_mat)


def _wrapped_ray(coords, cone, h, x_current, attempt, tol):
    fwd, back = coords(cone)
    x_child = None if x_current is None else _into(fwd, x_current)
    ray = extreme_ray_oracle(cone.expr.children[0], _face_into(fwd, h), x_child,
                             attempt, tol)
    return None if ray is None else back @ ray


def _wrapped_face_rays(coords, cone, h, tol):
    fwd, back = coords(cone)
    return [back @ r
            for r in rays_spanning_face(cone.expr.children[0], _face_into(fwd, h), tol)]


def _wrapped_sample(coords, cone, rng):
    return coords(cone)[1] @ random_extreme_ray(cone.expr.children[0], rng)


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """What the engines know about one cone kind.

    ``sample(cone, rng)`` draws a point of the rank-1 variety.
    ``ray(cone, h, x_current, attempt, tol)`` is the extreme-ray rule of
    :func:`extreme_ray_oracle`, ``face_rays(cone, h, tol)`` the rule of
    :func:`rays_spanning_face`, and ``route(cone, x_mat, tol)`` a direct
    decomposition; without a route, :func:`decompose` peels.  Rules call
    the public engines by their module names, never through captured
    function objects, so a patched module attribute sees every call.
    """

    sample: Callable
    ray: Callable | None = None
    face_rays: Callable | None = None
    route: Callable | None = None


def _wrapper(coords) -> Family:
    return Family(sample=partial(_wrapped_sample, coords),
                  ray=partial(_wrapped_ray, coords),
                  face_rays=partial(_wrapped_face_rays, coords),
                  route=partial(_decompose_wrapped, coords))


_CHORDAL = Family(sample=_chordal_sample, ray=_chordal_ray)

_FAMILIES = {
    "full_psd": Family(
        sample=lambda cone, rng: rng.standard_normal(cone.n),
        ray=lambda cone, h, x, attempt, tol: h[:, attempt % h.shape[1]],
        face_rays=_full_psd_face_rays),
    "diagonal": Family(
        sample=lambda cone, rng: np.eye(cone.n)[rng.integers(cone.n)],
        ray=lambda cone, h, x, attempt, tol: _pick(
            _diagonal_face_rays(cone, h, tol), attempt),
        face_rays=_diagonal_face_rays),
    "hankel": Family(
        sample=_hankel_sample,
        ray=lambda cone, h, x, attempt, tol: _pick(
            _hankel_face_rays(cone, h, tol), attempt),
        face_rays=_hankel_face_rays,
        route=lambda cone, x, tol: decompose_hankel(x, *_block_size(cone), tol,
                                                    cone=cone)),
    "codim1": Family(sample=_codim1_sample, ray=_codim1_ray,
                     face_rays=_codim1_face_rays),
    "cross_ratio": Family(sample=_cross_ratio_sample, ray=_cross_ratio_ray,
                          face_rays=_cross_ratio_face_rays),
    "ternary_quartic": Family(
        sample=lambda cone, rng: constructions._quadric_vector(rng.standard_normal(3))),
    "moment": Family(
        sample=lambda cone, rng: cone.generators[rng.integers(len(cone.generators))]),
    "block_toeplitz": Family(
        sample=_block_toeplitz_sample,
        route=lambda cone, x, tol: decompose_block_toeplitz(x, *_block_size(cone),
                                                            tol)),
    "direct_sum": Family(sample=_direct_sum_sample, ray=_direct_sum_ray,
                         face_rays=_direct_sum_face_rays,
                         route=_decompose_direct_sum),
    "full_ext": Family(
        sample=_full_ext_sample, ray=_composite_ray,
        route=lambda cone, x, tol: decompose_full_extension(cone, x, tol)),
    "intertwine": Family(
        sample=_intertwine_sample, ray=_composite_ray,
        route=lambda cone, x, tol: decompose_intertwining(cone, x, tol)),
    "transform": _wrapper(_congruence_coords),
    "reduce": _wrapper(_reduce_coords),
    "chordal": _CHORDAL,
    "tridiag": _CHORDAL,
}


def _rule(cone, name):
    """The ``name`` rule of the cone's kind, or None."""
    family = None if cone.expr is None else _FAMILIES.get(cone.expr.kind)
    return None if family is None else getattr(family, name)
