"""Matrix pencils, rank-2 extremality, and the small-degree classifier.

``pencil_decompose`` splits a pair of quadratic forms admitting a full
set of real pencil eigenvectors into angle-tagged blocks.  The rank-2
utilities decide whether a codimension-2 section carries extreme
elements of rank 2 (via the sign of a bi-quartic polynomial) and, when
it does not, recover the structured normal form.  ``classify_small``
names every simple certified cone of degree at most 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from . import symlin
from .cone_model import (FaceHandle, SpectrahedralCone, apply_congruence,
                         degree, face_of, reduce_nondegenerate,
                         simplicity_partition, tangent_space)
from .errors import InvalidInputError, NumericalError
from .isomorph import _greedy_basis, _signature, codim1_form
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


def pencil_decompose(pencil: Pencil, tol: float = DEFAULT_TOL,
                     seed: int = 7) -> PencilDecomposition:
    """Joint block decomposition of a pencil with n real eigenvectors.

    Writes Q1 = sum_k cos(phi_k) Phi_k and Q2 = sum_k sin(phi_k) Phi_k
    over a direct-sum decomposition, after deflating the joint kernel.
    Raises when the pencil is defective or has complex eigenstructure
    (checked a posteriori through the reconstruction residual).
    """
    q1, q2 = pencil.q1, pencil.q2
    n = q1.shape[0]
    scale = max(np.linalg.norm(q1), np.linalg.norm(q2), 1.0)
    kernel = symlin.nullspace(np.vstack([q1, q2]), tol)
    comp = symlin.complement_basis(kernel, n) if kernel.shape[1] else np.eye(n)
    q1c = symlin.sym(comp.T @ q1 @ comp)
    q2c = symlin.sym(comp.T @ q2 @ comp)
    nc = comp.shape[1]
    if nc == 0:
        return PencilDecomposition(kernel=FaceHandle(kernel), blocks=[])
    rng = np.random.default_rng(seed)
    a_mat = None
    for _ in range(20):
        theta = rng.uniform(0, np.pi)
        cand = np.cos(theta) * q1c + np.sin(theta) * q2c
        if symlin.numeric_rank(cand, tol) == nc:
            a_mat = cand
            break
    if a_mat is None:
        raise NumericalError("pencil has no invertible combination off its kernel")
    phi2 = rng.uniform(0, np.pi)
    b_mat = np.cos(phi2) * q1c + np.sin(phi2) * q2c
    vals = scipy.linalg.eigvals(b_mat, a_mat)
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


def rank2_extreme_check(forms, x: np.ndarray, y: np.ndarray,
                        tol: float = DEFAULT_TOL) -> Optional[np.ndarray]:
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
    cut = symlin.cut(sv, tol)
    if np.count_nonzero(sv > cut) != 2:
        return None
    a, b, c = vt[-1]
    if b * b - a * c >= -cut:
        return None
    if a < 0:
        a, b, c = -a, -b, -c
    return a * np.outer(x, x) + b * (np.outer(x, y) + np.outer(y, x)) + c * np.outer(y, y)


def biquartic_p(q1: np.ndarray, q2: np.ndarray, x: np.ndarray,
                y: np.ndarray) -> float:
    """Sign certificate for rank-2 extremality of a two-form section.

    Negative exactly when the d = 2 section has an extreme rank-2 element
    supported on span{x, y}: the value is the discriminant b^2 - ac of
    the kernel vector of the restricted-form matrix.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xq1x, xq1y, yq1y = x @ q1 @ x, x @ q1 @ y, y @ q1 @ y
    xq2x, xq2y, yq2y = x @ q2 @ x, x @ q2 @ y, y @ q2 @ y
    return float(
        (yq1y * xq2x - xq1x * yq2y) ** 2
        - 4.0 * (xq1y * yq2y - xq2y * yq1y) * (xq1x * xq2y - xq1y * xq2x))


@dataclass
class Codim2Structure:
    case: str                    # "aligned-null-forms" | "split-form" | "rank2-extremes"
    u: Optional[np.ndarray] = None
    q1_form: Optional[np.ndarray] = None
    q2_form: Optional[np.ndarray] = None
    witness: Optional[tuple] = None
    samples: int = 0


def codim2_structure(q1: np.ndarray, q2: np.ndarray, seed: int = 0,
                     null_seeds: int = 1000, p_samples: int = 10_000) -> Codim2Structure:
    """Structure of the codimension-2 section cut out by two forms.

    First samples the bi-quartic: a verified negative sample is a rank-2
    extreme witness ("rank2-extremes").  Otherwise the joint null variety
    {z : z^T Q1 z = z^T Q2 z = 0} is searched by Newton refinement from
    random seeds; a null z with independent images Q1 z, Q2 z forces the
    split structure Q_i = u q_i^T + q_i u^T ("split-form"), and when every
    sampled null vector has aligned images the result is
    "aligned-null-forms".  Both no-witness outcomes are sampled claims,
    not proofs.
    """
    q1 = symlin.sym_matrix(q1)
    q2 = symlin.sym_matrix(q2)
    n = q1.shape[0]
    gram = np.array([[np.tensordot(q1, q1), np.tensordot(q1, q2)],
                     [np.tensordot(q2, q1), np.tensordot(q2, q2)]])
    if np.linalg.matrix_rank(gram, tol=1e-10) < 2:
        raise InvalidInputError("forms must be linearly independent")
    rng = np.random.default_rng(seed)
    form_scale = max(np.linalg.norm(q1), np.linalg.norm(q2))
    scale = max(form_scale, 1.0) ** 2
    for _ in range(p_samples):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if biquartic_p(q1, q2, x, y) < -1e-9 * scale ** 2:
            elem = rank2_extreme_check([q1, q2], x, y)
            if elem is not None:
                return Codim2Structure(case="rank2-extremes", witness=(x, y),
                                       samples=p_samples)
    split_z = None
    checked = 0
    for _ in range(null_seeds):
        z = _refine_null_vector(q1, q2, rng.standard_normal(n))
        if z is None:
            continue
        checked += 1
        g1, g2 = q1 @ z, q2 @ z
        sv = np.linalg.svd(np.column_stack([g1, g2]), compute_uv=False)
        if sv.size >= 2 and sv[1] > 1e-6 * form_scale:
            split_z = z
            break
    if split_z is None:
        return Codim2Structure(case="aligned-null-forms", samples=checked)
    g1, g2 = q1 @ split_z, q2 @ split_z
    u1 = _solve_split_vector(q1, g1)
    u2 = _solve_split_vector(q2, g2)
    resid = max(np.linalg.norm(q1 - np.outer(u1, g1) - np.outer(g1, u1)),
                np.linalg.norm(q2 - np.outer(u2, g2) - np.outer(g2, u2)),
                np.linalg.norm(u1 - u2))
    if resid > 1e-7 * scale:
        raise NumericalError(
            "sampled nonnegativity did not yield the split structure "
            f"(residual {resid:.2e}); more sampling may find a witness")
    return Codim2Structure(case="split-form", u=u1, q1_form=g1, q2_form=g2,
                           samples=p_samples)


def _refine_null_vector(q1, q2, z0, iters: int = 60):
    z = z0 / np.linalg.norm(z0)
    for _ in range(iters):
        f = np.array([z @ q1 @ z, z @ q2 @ z])
        if np.abs(f).max() < 1e-12:
            return z if np.linalg.norm(z) > 1e-6 else None
        jac = 2.0 * np.vstack([q1 @ z, q2 @ z])
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        z = z + step
        nz = np.linalg.norm(z)
        if nz < 1e-8:
            return None
        z = z / nz
    return None


def _solve_split_vector(q, g):
    """Least-squares u with Q = u g^T + g u^T."""
    n = q.shape[0]
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i, n):
            row = np.zeros(n)
            row[i] += g[j]
            row[j] += g[i]
            rows.append(row)
            rhs.append(q[i, j])
    u, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
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


def classify_codim1(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Signature label of a codimension-1 cone (positives first)."""
    cone, _ = reduce_nondegenerate(cone, tol)
    n = cone.n
    if cone.dim != n * (n + 1) // 2 - 1:
        raise InvalidInputError("cone is not of codimension 1")
    q = codim1_form(cone)
    return ClassLabel(tag="Codim1", n=n, signature=_signature(q))


def classify_small(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> ClassLabel:
    """Catalog label for certified cones of degree at most 4.

    Non-simple cones factor into a DirectSum label.  Simple cones are
    named by degree and dimension; for degree 4 and dimension 7 the
    tangent-matrix branch separates the Hankel class from the three
    plane-bearing classes, which a census of the rank-2 full faces then
    distinguishes.
    """
    cone, _ = reduce_nondegenerate(cone, tol)
    n = degree(cone, tol)
    if n > 4:
        raise InvalidInputError("classification catalog covers degree <= 4 only")
    parts = simplicity_partition(cone, tol)
    if len(parts) > 1:
        children = []
        for handle in parts:
            factor, _ = reduce_nondegenerate(face_of(cone, handle), tol)
            children.append(classify_small(factor, tol))
        children.sort(key=lambda c: (c.tag, c.n or 0, c.signature or ()))
        return ClassLabel(tag="DirectSum", children=tuple(children))
    dim = cone.dim
    if dim == n * (n + 1) // 2:
        return ClassLabel(tag="FullPsd", n=n)
    if n <= 2:
        return ClassLabel(tag="Unknown", n=n)
    if dim == n * (n + 1) // 2 - 1:
        sig = _signature(codim1_form(cone))
        if n == 3 and sig == (1, 1, 1):
            return ClassLabel(tag="Tri", n=3)
        if n == 4 and sig == (1, 1, 2):
            return ClassLabel(tag="FullExtDiag2", n=4)
        if n == 4 and sig == (2, 1, 1):
            return ClassLabel(tag="FullExtHan3", n=4)
        if n == 4 and sig == (2, 2, 0):
            return ClassLabel(tag="Han22", n=4)
        return ClassLabel(tag="Codim1", n=n, signature=sig)
    if n == 4 and dim == 8:
        return ClassLabel(tag="Codim2FullExt", n=4)
    if n == 4 and dim == 7:
        return _classify_deg4_dim7(cone)
    return ClassLabel(tag="Unknown", n=n)


def _classify_deg4_dim7(cone):
    idx = _greedy_basis(cone.generators.T)
    if len(idx) < cone.n:
        raise InvalidInputError("certificate does not span the space")
    xs = cone.generators[np.array(idx)]
    a_inv = np.linalg.inv(xs.T)
    work = apply_congruence(cone, a_inv, keep_expr=False)
    ys = []
    for i in range(4):
        e = np.eye(4)[i]
        sols = tangent_space(work, e)
        # drop the trivial direction e_i and impose y_i = 0
        cand = None
        for j in range(sols.shape[1]):
            y = sols[:, j] - sols[i, j] * e
            if np.linalg.norm(y) > 1e-7:
                cand = y / np.linalg.norm(y)
                break
        if cand is None and sols.shape[1] >= 2:
            mix = sols @ np.ones(sols.shape[1])
            mix = mix - mix[i] * e
            if np.linalg.norm(mix) > 1e-7:
                cand = mix / np.linalg.norm(mix)
        if cand is None:
            return ClassLabel(tag="Unknown", n=4)
        ys.append(cand)
    y_mat = np.zeros((6, 4))
    rows = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for r, (i, j) in enumerate(rows):
        y_mat[r, i] = ys[i][j]
        y_mat[r, j] = ys[j][i]
    col_nonzeros = [int(np.count_nonzero(np.abs(y_mat[:, c]) > 1e-7)) for c in range(4)]
    if all(np.abs(y_mat[r]).max() > 1e-7 for r in range(6)) and min(col_nonzeros) == 3:
        if _hankel4_test(y_mat, ys) and not rank2_face_planes(cone):
            return ClassLabel(tag="Han4", n=4)
    return _plane_census_label(cone)


def _hankel4_test(y_mat, ys):
    """Minor identity + transversality test for the all-nonzero branch."""
    _, sv, vt = np.linalg.svd(y_mat)
    if sv[3] > 1e-6 * sv[0]:
        return False
    beta = vt[-1]
    if np.abs(beta).min() < 1e-8:
        return False
    y = {}
    for i in range(4):
        yi = ys[i] * beta[i]
        for j in range(4):
            if i != j:
                y[(i, j)] = yi[j]
    skew = max(abs(y[(i, j)] + y[(j, i)]) for i in range(4) for j in range(4) if i != j)
    if skew > 1e-6 * max(abs(v) for v in y.values()):
        return False
    lhs = 1.0 / (y[(0, 3)] * y[(1, 2)]) - 1.0 / (y[(0, 2)] * y[(1, 3)]) \
        + 1.0 / (y[(0, 1)] * y[(2, 3)])
    scale = max(abs(1.0 / (y[(0, 3)] * y[(1, 2)])), abs(1.0 / (y[(0, 2)] * y[(1, 3)])),
                abs(1.0 / (y[(0, 1)] * y[(2, 3)])))
    if abs(lhs) > 1e-6 * scale:
        return False
    # transversality of the solution plane: all 2x2 minors of the two
    # solution directions are nonzero
    g1 = np.array([
        1.0 / y[(0, 1)] ** 2 + 1.0 / y[(0, 2)] ** 2 + 1.0 / y[(0, 3)] ** 2,
        1.0 / (y[(0, 2)] * y[(1, 2)]) + 1.0 / (y[(0, 3)] * y[(1, 3)]),
        1.0 / (y[(0, 3)] * y[(2, 3)]) - 1.0 / (y[(0, 1)] * y[(1, 2)]),
        -1.0 / (y[(0, 1)] * y[(1, 3)]) - 1.0 / (y[(0, 2)] * y[(2, 3)]),
    ])
    g2 = np.array([0.0, 1.0 / y[(0, 1)], 1.0 / y[(0, 2)], 1.0 / y[(0, 3)]])
    plane = np.column_stack([g1, g2])
    for i in range(4):
        for j in range(i + 1, 4):
            minor = plane[i, 0] * plane[j, 1] - plane[j, 0] * plane[i, 1]
            if abs(minor) < symlin.cut(plane ** 2, 1e-9):
                return False
    return True


def _plane_census_label(cone):
    """Distinguish the three plane-bearing degree-4 dimension-7 classes."""
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
    """Maximal 2-dimensional subspaces carrying full rank-2 faces,
    detected from certificate generator pairs."""
    gens = cone.generators
    planes = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            x, y = gens[i], gens[j]
            if abs(x @ y) > 1.0 - 1e-8:
                continue
            cross = symlin.sym(np.outer(x, y)) * 2.0
            if symlin.span_distance(cone.span_basis, cross) > 1e-7 * (1.0 + np.linalg.norm(cross)):
                continue
            basis = symlin.subspace_of_vectors([x, y])
            if not any(_same_plane(basis, p) for p in planes):
                planes.append(basis)
    return planes


def _same_plane(p1, p2):
    return np.linalg.norm(p1 @ p1.T - p2 @ p2.T) < 1e-6


def _planes_meet(p1, p2):
    sv = np.linalg.svd(p1.T @ p2, compute_uv=False)
    return bool(sv.size and sv[0] > 1.0 - 1e-7)
