"""Matrix pencils, rank-2 extremality, and the small-degree classifier.

``pencil_decompose`` splits a pair of quadratic forms admitting a full
set of real pencil eigenvectors into angle-tagged blocks.
``rank2_extreme_check`` tests a plane for a rank-2 extreme element of a
section, and ``split_vector`` decides in closed form whether the two forms
of a codimension-2 cone split, Q_i = u g_i^T + g_i u^T.  ``classify_small``
names every simple certified cone of degree at most 4 from its dimension,
the signature of its form in codimension 1, the split in codimension 2,
and, in degree 4 and dimension 7, the census of the planes that carry
full rank-2 faces; a cone with none of these proofs is ``Unknown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import symlin
from .cone_model import (FaceHandle, SpectrahedralCone, _signature, codim1_form,
                         codimension, degree, rank2_pairs, reduce_nondegenerate,
                         simplicity_partition)
from .decompose import face_of
from .errors import InvalidInputError, NumericalError
from .symlin import DEFAULT_TOL


# ---------------------------------------------------------------------------
# pencil decomposition


@dataclass
class Pencil:
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        self.q1 = symlin.sym_matrix(self.q1)
        self.q2 = symlin.sym_matrix(self.q2)
        if self.q1.shape != self.q2.shape:
            raise InvalidInputError("pencil forms must have equal size")


@dataclass
class PencilBlock:
    handle: FaceHandle
    angle: float                 # in [0, pi)
    form: np.ndarray             # nondegenerate block in the handle basis


@dataclass
class PencilDecomposition:
    kernel: FaceHandle
    blocks: list[PencilBlock]

    def reconstruct(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        frames = [self.kernel.image_basis] + [b.handle.image_basis for b in self.blocks]
        t_mat = np.hstack([f for f in frames if f.shape[1]])
        t_inv = np.linalg.inv(t_mat)
        d1 = np.zeros((n, n))
        d2 = np.zeros((n, n))
        offset = self.kernel.image_basis.shape[1]
        for blk in self.blocks:
            d = blk.handle.dim
            d1[offset:offset + d, offset:offset + d] = np.cos(blk.angle) * blk.form
            d2[offset:offset + d, offset:offset + d] = np.sin(blk.angle) * blk.form
            offset += d
        return (symlin.sym(t_inv.T @ d1 @ t_inv),
                symlin.sym(t_inv.T @ d2 @ t_inv))


def _angle_mod_pi(c: float, s: float) -> float:
    phi = float(np.arctan2(s, c)) % np.pi
    if np.pi - phi < 1e-12:
        phi = 0.0
    return phi


def pencil_decompose(pencil: Pencil) -> PencilDecomposition:
    """Joint block decomposition of a pencil with n real eigenvectors.

    Writes Q1 = sum_k cos(phi_k) Phi_k and Q2 = sum_k sin(phi_k) Phi_k
    over a direct-sum decomposition, after deflating the joint kernel.
    Off the kernel, det(cos t Q1 + sin t Q2) is a form of degree nc in
    (cos t, sin t), so at most nc of the nc + 1 angles t = k pi / (nc + 1)
    make it singular: the best-conditioned of those combinations, A, and
    the orthogonal one, B = -sin t Q1 + cos t Q2, give the eigenvalues
    tan(phi_k - t) of the pencil (B, A), those of A^{-1} B.  Raises when
    no combination is invertible, or when the pencil is defective or has
    complex eigenstructure (checked a posteriori through the
    reconstruction residual).
    """
    q1, q2 = pencil.q1, pencil.q2
    n = q1.shape[0]
    scale = max(np.linalg.norm(q1), np.linalg.norm(q2), 1.0)
    kernel = symlin.nullspace(np.vstack([q1, q2]), DEFAULT_TOL)
    comp = symlin.complement_basis(kernel, n) if kernel.shape[1] else np.eye(n)
    q1c = symlin.sym(comp.T @ q1 @ comp)
    q2c = symlin.sym(comp.T @ q2 @ comp)
    nc = comp.shape[1]
    if nc == 0:
        return PencilDecomposition(kernel=FaceHandle(kernel), blocks=[])
    thetas = np.pi * np.arange(nc + 1) / (nc + 1)
    combos = np.cos(thetas)[:, None, None] * q1c + np.sin(thetas)[:, None, None] * q2c
    sv = np.linalg.svd(combos, compute_uv=False)
    best = int(np.argmax(sv[:, -1] / np.maximum(sv[:, 0], np.finfo(float).tiny)))
    if sv[best, -1] <= symlin.cut(sv[best], DEFAULT_TOL):
        raise NumericalError("pencil has no invertible combination off its kernel")
    theta = thetas[best]
    a_mat = combos[best]
    b_mat = -np.sin(theta) * q1c + np.cos(theta) * q2c
    vals = np.linalg.eigvals(np.linalg.solve(a_mat, b_mat))
    if np.abs(vals.imag).max(initial=0.0) > 1e-6 * (1.0 + np.abs(vals.real).max(initial=0.0)):
        raise NumericalError("pencil eigenvalues are not all real")
    vals = np.sort(vals.real)
    clusters: list[list[float]] = []
    for lam in vals:
        if clusters and abs(lam - clusters[-1][-1]) <= 1e-6 * (1.0 + abs(lam)):
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    blocks = []
    for cluster in clusters:
        lam = float(np.mean(cluster))
        # the eigenspace of a clustered eigenvalue, computed directly (the
        # LAPACK eigenvectors of a repeated eigenvalue need not be independent)
        null = symlin.nullspace(b_mat - lam * a_mat, 1e-6)
        y_cols = comp @ null
        basis = symlin.subspace_of_vectors(y_cols.T)
        if basis.shape[1] != len(cluster):
            raise NumericalError("defective pencil: eigenvectors collapse")
        phi = _block_angle(q1, q2, basis, scale)
        form = symlin.sym(basis.T @ (np.cos(phi) * q1 + np.sin(phi) * q2) @ basis)
        if symlin.numeric_rank(form, 1e-8) != form.shape[0]:
            raise NumericalError("degenerate pencil block")
        blocks.append(PencilBlock(handle=FaceHandle(basis), angle=phi, form=form))
    blocks.sort(key=lambda b: b.angle)
    out = PencilDecomposition(kernel=FaceHandle(kernel), blocks=blocks)
    _validate_pencil(out, q1, q2, n, scale)
    return out


def _block_angle(q1, q2, basis, scale):
    best = (0.0, 0.0, 0.0)
    for y in basis.T:
        for z in basis.T:
            c = float(y @ q1 @ z)
            s = float(y @ q2 @ z)
            if c * c + s * s > best[0]:
                best = (c * c + s * s, c, s)
    if best[0] <= (1e-10 * scale) ** 2:
        raise NumericalError("cannot resolve a block angle")
    return _angle_mod_pi(best[1], best[2])


def _validate_pencil(dec: PencilDecomposition, q1, q2, n, scale):
    frames = [dec.kernel.image_basis] + [b.handle.image_basis for b in dec.blocks]
    t_mat = np.hstack([f for f in frames if f.shape[1]])
    if t_mat.shape[1] != n or abs(np.linalg.det(t_mat)) < 1e-12:
        raise NumericalError("pencil eigenvectors do not fill the space")
    angles = [b.angle for b in dec.blocks]
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            gap = abs(angles[i] - angles[j]) % np.pi
            if min(gap, np.pi - gap) <= 1e-7:
                raise NumericalError("pencil block angles collide")
    for qk, pick in ((q1, np.cos), (q2, np.sin)):
        recon = t_mat.T @ qk @ t_mat
        expect = np.zeros_like(recon)
        offset = dec.kernel.image_basis.shape[1]
        for blk in dec.blocks:
            d = blk.handle.dim
            expect[offset:offset + d, offset:offset + d] = pick(blk.angle) * blk.form
            offset += d
        if np.linalg.norm(recon - expect) > 1e-7 * scale * max(1.0, np.linalg.norm(t_mat) ** 2):
            raise NumericalError("pencil reconstruction residual too large")


# ---------------------------------------------------------------------------
# rank-2 extreme elements


def rank2_extreme_check(forms, x: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """Extreme rank-2 element of the section on span{x, y}, if one exists.

    Builds the d x 3 matrix of the restricted forms; the face carries an
    extreme rank-2 element exactly when that matrix has rank 2 and its
    kernel vector (a, b, c) makes [[a, b], [b, c]] definite.  Returns the
    PSD-normalized element a x x^T + b (x y^T + y x^T) + c y y^T, else None.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m_rows = np.array([[x @ q @ x, 2.0 * (x @ q @ y), y @ q @ y] for q in forms])
    _, sv, vt = np.linalg.svd(m_rows)
    cut = symlin.cut(sv, DEFAULT_TOL)
    if np.count_nonzero(sv > cut) != 2:
        return None
    a, b, c = vt[-1]
    if b * b - a * c >= -cut:
        return None
    if a < 0:
        a, b, c = -a, -b, -c
    return a * np.outer(x, x) + b * (np.outer(x, y) + np.outer(y, x)) + c * np.outer(y, y)


# ---------------------------------------------------------------------------
# codimension 2


def split_vector(cone: SpectrahedralCone, tol: float) -> Optional[np.ndarray]:
    """The common u of split forms Q_i = u g_i^T + g_i u^T of a real cone of
    codimension 2, or None when its forms do not split.

    The forms are the orthonormal basis of the normals of the span.  A split
    form has rank 2 and u in its range, so u spans the meet of the ranges R1,
    R2: R1 times the top left singular vector of R1^T R2.  Then
    g_i = Q_i u - (u^T Q_i u) u / 2, and |Q_i - (u g_i^T + g_i u^T)| <=
    tol |Q_i| for both forms proves the split.  Equal ranges would put a
    semidefinite form in the pencil, which a nondegenerate cone rules out.
    On the structure of pairs of forms see Uhlig (Linear Algebra Appl. 1979).
    """
    n = cone.n
    if codimension(cone) != 2:
        raise InvalidInputError("cone is not of codimension 2")
    # the span's coordinates in the orthonormal basis of symlin.sym_basis(n)
    rows, cols = np.triu_indices(n)
    weight = np.where(rows == cols, 1.0, np.sqrt(2.0))
    normals = symlin.nullspace(cone.span_basis[:, rows, cols] * weight).T / weight
    forms = np.zeros((2, n, n))
    forms[:, rows, cols] = forms[:, cols, rows] = normals
    values, vectors = np.linalg.eigh(forms)
    ranges = []
    for lam, vec in zip(values, vectors):
        live = np.abs(lam) > symlin.cut(lam, tol)
        if np.count_nonzero(live) != 2:
            return None
        ranges.append(vec[:, live])
    left, _, _ = np.linalg.svd(ranges[0].T @ ranges[1])
    u = ranges[0] @ left[:, 0]
    for q in forms:
        g = q @ u - 0.5 * (u @ q @ u) * u
        if np.linalg.norm(q - np.outer(u, g) - np.outer(g, u)) > tol * np.linalg.norm(q):
            return None
    return u


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassLabel:
    tag: str
    n: Optional[int] = None
    signature: Optional[tuple] = None
    children: tuple = ()

    def to_json(self):
        out = {"tag": self.tag}
        if self.n is not None:
            out["n"] = self.n
        if self.signature is not None:
            out["signature"] = list(self.signature)
        if self.children:
            out["children"] = [c.to_json() for c in self.children]
        return out


def classify_small(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Catalog label for certified cones of degree at most 4.

    The codimension of the reduced cone decides first: a real cone of
    codimension 0 is FullPsd, and one of codimension 1 and degree n >= 3
    is named by the signature of its form.  Both are simple (a direct sum
    has codimension at least n_1 n_2), so neither needs the simplicity
    partition; in degree 2, codimension 1 is the non-simple diag(2).
    Every other cone is partitioned: non-simple cones factor into a
    DirectSum label, and simple ones are named by degree and dimension.
    Degree 4 and dimension 7 holds four classes, told apart by the census
    of the planes carrying full rank-2 faces: none for the Hankel class
    Han4, one for IntertwineHan3S2, and three meeting pairwise
    (FullExtDiag3) or in a chain (Tri).  Dimension 8 is codimension 2:
    Codim2FullExt when the forms split (:func:`split_vector`), for then a
    congruence takes the cone to the chordal pattern X_12 = X_13 = 0, and
    Unknown otherwise.  A complex cone gets no real label.
    """
    cone, _ = reduce_nondegenerate(cone, tol)
    n = degree(cone, tol)
    if n > 4:
        raise InvalidInputError("classification catalog covers degree <= 4 only")
    codim = codimension(cone)
    if codim == 0:
        return ClassLabel(tag="FullPsd", n=n)
    if codim == 1 and n >= 3:
        return _codim1_label(n, _signature(codim1_form(cone)))
    parts = simplicity_partition(cone, tol)
    if len(parts) > 1:
        children = []
        for handle in parts:
            factor, _ = reduce_nondegenerate(face_of(cone, handle), tol)
            children.append(classify_small(factor, tol))
        children.sort(key=lambda c: (c.tag, c.n or 0, c.signature or ()))
        return ClassLabel(tag="DirectSum", children=tuple(children))
    if n <= 2 or cone.complex_field:
        return ClassLabel(tag="Unknown", n=n)
    if n == 4 and cone.dim == 8:
        tag = "Unknown" if split_vector(cone, tol) is None else "Codim2FullExt"
        return ClassLabel(tag=tag, n=4)
    if n == 4 and cone.dim == 7:
        return _plane_census_label(cone)
    return ClassLabel(tag="Unknown", n=n)


def _codim1_label(n, sig):
    """The catalog name of a codimension-1 cone of degree n >= 3."""
    names = {(3, (1, 1, 1)): "Tri", (4, (1, 1, 2)): "FullExtDiag2",
             (4, (2, 1, 1)): "FullExtHan3", (4, (2, 2, 0)): "Han22"}
    if (n, sig) in names:
        return ClassLabel(tag=names[n, sig], n=n)
    return ClassLabel(tag="Codim1", n=n, signature=sig)


def _plane_census_label(cone):
    """Label a simple degree-4 dimension-7 cone by its rank-2 face planes."""
    planes = rank2_face_planes(cone)
    if len(planes) == 0:
        return ClassLabel(tag="Han4", n=4)
    if len(planes) == 1:
        return ClassLabel(tag="IntertwineHan3S2", n=4)
    if len(planes) == 3:
        meets = []
        for i in range(3):
            for j in range(i + 1, 3):
                meets.append(_planes_meet(planes[i], planes[j]))
        if sum(meets) == 3:
            return ClassLabel(tag="FullExtDiag3", n=4)
        if sum(meets) == 2:
            return ClassLabel(tag="Tri", n=4)
    return ClassLabel(tag="Unknown", n=4)


def rank2_face_planes(cone: SpectrahedralCone):
    """Maximal 2-dimensional subspaces carrying full rank-2 faces: the
    planes of the certificate pairs of :func:`cone_model.rank2_pairs`, in
    pair order, each plane once.

    Every pair's projector M^T G^-1 conj(M), for its rows M and their
    2 x 2 Gram matrix G, comes from one stacked product, and one Gram
    matrix of the projectors gives their pairwise distances.  A pair whose
    projector lies within 1e-6 of a plane kept before it is dropped; only
    the planes kept take an orthonormal basis.
    """
    gens = cone.generators
    i, j = rank2_pairs(cone)
    if len(i) == 0:
        return []
    rows = np.stack([gens[i], gens[j]], axis=1)
    proj = rows.swapaxes(1, 2) @ np.linalg.inv(rows.conj() @ rows.swapaxes(1, 2)) @ rows.conj()
    flat = proj.reshape(len(proj), cone.n * cone.n)
    inner = (flat.conj() @ flat.T).real
    sq = inner.diagonal()
    close = sq[:, None] + sq - 2.0 * inner < 1e-12
    # keep the first pair of each plane, in pair order: only pairs close to
    # another pair need a look at which were kept before them
    keep = close.sum(axis=1) == 1
    for a in np.flatnonzero(~keep):
        keep[a] = not close[a, :a][keep[:a]].any()
    return [symlin.subspace_of_vectors(pair) for pair in rows[keep]]


def _planes_meet(p1, p2):
    sv = np.linalg.svd(p1.T @ p2, compute_uv=False)
    return bool(sv.size and sv[0] > 1.0 - 1e-7)
