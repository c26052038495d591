"""Spectrahedral cones K = L ∩ PSD with rank-1 generator certificates.

A cone is stored as an orthonormal basis of its span L together with a
list of unit vectors x whose outer products lie in L (the rank-1
certificate).  The structural analyses live here: degree and dimension,
reduction to a non-degenerate representation, faces, the direct-sum
(simplicity) factorization, isolated extreme rays, minimally linearly
dependent generator sets, and diagonalizing bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import symlin
from .errors import InvalidInputError, MissingCertificateError
from .symlin import DEFAULT_TOL

RAY_MATCH = 1.0 - 1e-8  # |<x, y>| above this means same ray (unit vectors)


@dataclass
class ConeExpr:
    """Construction-tree node attached to a built cone.

    ``kind`` is a key of the builder table ``constructions._BUILDERS``,
    which the family table ``decompose._FAMILIES`` mirrors.  ``params`` is
    JSON-serializable; ``children`` holds the already-built child cones of
    combinators and ``aux`` derived runtime data (numpy arrays) that the
    decomposition engines use.
    """

    kind: str
    params: dict = field(default_factory=dict)
    children: tuple = ()
    aux: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class FaceHandle:
    """Orthonormal basis (columns) of a subspace H of R^n."""

    image_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.image_basis.shape[1]


@dataclass
class MldSet:
    """A minimally linearly dependent set of certificate generators."""

    indices: list[int]
    kernel_coeffs: np.ndarray


@dataclass
class SpectrahedralCone:
    n: int
    span_basis: np.ndarray                 # (d, n, n) orthonormal stack
    generators: np.ndarray                 # (g, n) unit vectors
    expr: Optional[ConeExpr] = None
    complex_field: bool = False

    @property
    def dim(self) -> int:
        return self.span_basis.shape[0]

    def copy_with(self, **kw) -> "SpectrahedralCone":
        data = dict(n=self.n, span_basis=self.span_basis,
                    generators=self.generators, expr=self.expr,
                    complex_field=self.complex_field)
        data.update(kw)
        return SpectrahedralCone(**data)


def make_cone(n: int, span_mats, generators, expr: Optional[ConeExpr] = None,
              complex_field: bool = False, check: bool = True,
              tol: float = DEFAULT_TOL) -> SpectrahedralCone:
    """Assemble a cone from spanning matrices and generator vectors."""
    basis = symlin.orthonormal_span(span_mats)
    gens = _normalize_generators(generators, n, complex_field)
    cone = SpectrahedralCone(n=n, span_basis=basis, generators=gens,
                             expr=expr, complex_field=complex_field)
    if check:
        for x in gens:
            p = symlin.outer(x)
            if symlin.span_distance(basis, p) > 100 * tol * (1.0 + np.linalg.norm(p)):
                raise InvalidInputError("generator outer product is not in the span")
    return cone


def _normalize_generators(generators, n: int, complex_field: bool) -> np.ndarray:
    dtype = complex if complex_field else float
    vecs = []
    for x in generators:
        x = np.asarray(x, dtype=dtype).reshape(n)
        nrm = np.linalg.norm(x)
        if nrm < 1e-14:
            continue
        x = x / nrm
        # canonical sign so that certificates are deterministic
        i = int(np.argmax(np.abs(x)))
        phase = x[i] / abs(x[i])
        vecs.append(x / phase)
    if not vecs:
        return np.zeros((0, n), dtype=dtype)
    # keep the first ray of each near-duplicate group, in input order: a
    # row is dropped when it matches an earlier kept row, so only rows that
    # match some row besides themselves need a look at which were kept
    rays = np.array(vecs)
    close = np.abs(rays @ rays.conj().T) > RAY_MATCH
    keep = close.sum(axis=1) == 1
    for i in np.flatnonzero(~keep):
        keep[i] = not close[i, :i][keep[:i]].any()
    return rays[keep]


def certificate_complete(cone: SpectrahedralCone) -> bool:
    """True iff the generator outer products span the cone's subspace L."""
    if len(cone.generators) == 0:
        return cone.dim == 0
    prods = [symlin.outer(x) for x in cone.generators]
    return symlin.orthonormal_span(prods).shape[0] == cone.dim


# ---------------------------------------------------------------------------
# basic queries


def membership(cone: SpectrahedralCone, x_mat: np.ndarray,
               tol: float = DEFAULT_TOL) -> bool:
    """X in K iff X is (numerically) in L and positive semidefinite."""
    x_mat = np.asarray(x_mat)
    if x_mat.shape != (cone.n, cone.n):
        raise InvalidInputError(f"expected a {cone.n} x {cone.n} matrix")
    if symlin.span_distance(cone.span_basis, x_mat) > tol * (1.0 + np.linalg.norm(x_mat)):
        return False
    return symlin.psd_check(x_mat, tol)


def interior_element(cone: SpectrahedralCone) -> np.ndarray:
    """Sum of generator outer products; max-rank element for complete certs."""
    if len(cone.generators) == 0:
        raise MissingCertificateError("cone carries no rank-1 certificate")
    return sum(symlin.outer(x) for x in cone.generators)


def degree(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> int:
    """Maximal matrix rank over the cone, read off the certificate."""
    return symlin.numeric_rank(interior_element(cone), tol)


def dimension(cone: SpectrahedralCone) -> int:
    return cone.dim


def is_nondegenerate(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> bool:
    return degree(cone, tol) == cone.n


# ---------------------------------------------------------------------------
# non-degenerate reduction


def reduce_nondegenerate(cone: SpectrahedralCone, tol: float = DEFAULT_TOL
                         ) -> tuple[SpectrahedralCone, np.ndarray]:
    """Compress K to matrices of size max-rank; returns (K', embedding).

    The embedding is the n x m coefficient matrix B of the inclusion, so
    elements map back via X = B X' B^T and generators via x = B x'.
    """
    if len(cone.generators) > 0:
        hub = interior_element(cone)
    else:
        # no certificate: fall back to the projection of the identity,
        # which is a max-rank element whenever it lands inside the cone
        hub = symlin.span_project(cone.span_basis, np.eye(cone.n, dtype=cone.span_basis.dtype))
        if not symlin.psd_check(hub, tol):
            raise MissingCertificateError(
                "cone carries no certificate and no obvious interior element")
    dec = symlin.eig_sym(hub)
    b = dec.vectors[:, dec.values > symlin.cut(dec.values, tol)]
    m = b.shape[1]
    if m == cone.n:
        reduced = cone.copy_with(expr=_reduce_expr(cone, np.eye(cone.n)))
        return reduced, np.eye(cone.n)
    span = b.conj().T @ cone.span_basis @ b
    gens = [b.conj().T @ x for x in cone.generators]
    reduced = make_cone(m, span, gens, expr=_reduce_expr(cone, b),
                        complex_field=cone.complex_field, check=False)
    return reduced, b


def _reduce_expr(cone: SpectrahedralCone, b: np.ndarray) -> ConeExpr:
    return ConeExpr("reduce", params={"embedding": b.tolist()},
                    children=(cone,), aux={"embedding": b})


# ---------------------------------------------------------------------------
# faces


def face_span(cone: SpectrahedralCone, h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of L ∩ span{x y^T + y x^T : x, y in col(h)}."""
    h = np.asarray(h, dtype=cone.span_basis.dtype)
    if h.shape[1] == 0:
        return np.zeros((0, cone.n, cone.n), dtype=cone.span_basis.dtype)
    p = h @ h.conj().T
    rows = []
    for s in cone.span_basis:
        rows.append(symlin.vec(s - p @ s @ p))
    null = symlin.nullspace(np.array(rows).T)
    if null.shape[1] == 0:
        return np.zeros((0, cone.n, cone.n), dtype=cone.span_basis.dtype)
    mats = [symlin.span_from_coords(cone.span_basis, null[:, j])
            for j in range(null.shape[1])]
    return symlin.orthonormal_span(mats)


def face_of(cone: SpectrahedralCone, handle: FaceHandle,
            tol: float = DEFAULT_TOL) -> SpectrahedralCone:
    """The face K ∩ L_n(H): intersect the span, keep generators inside H."""
    h = np.asarray(handle.image_basis, dtype=cone.span_basis.dtype)
    basis = face_span(cone, h)
    p = h @ h.conj().T
    gens = [x for x in cone.generators
            if np.linalg.norm(x - p @ x) <= 10 * tol * np.linalg.norm(x)]
    gens.extend(_enrich_face_generators(cone, h, basis, gens))
    if basis.shape[0] == 0:
        return SpectrahedralCone(n=cone.n, span_basis=basis,
                                 generators=np.zeros((0, cone.n), dtype=cone.generators.dtype),
                                 expr=None, complex_field=cone.complex_field)
    return make_cone(cone.n, basis, gens, expr=None,
                     complex_field=cone.complex_field, check=False)


def _enrich_face_generators(cone, h, face_basis, found):
    """Top up a face certificate using the cone's rank-1 structure.

    Delegates to ``decompose.rays_spanning_face`` (the face rule of the
    cone's kind); returns an empty list when no rule applies.
    """
    if face_basis.shape[0] == 0:
        return []
    have = symlin.orthonormal_span([symlin.outer(x) for x in found]).shape[0] if found else 0
    if have >= face_basis.shape[0]:
        return []
    from .decompose import rays_spanning_face
    return rays_spanning_face(cone, h)


# ---------------------------------------------------------------------------
# simplicity / direct-sum factorization


def simplicity_partition(cone: SpectrahedralCone, tol: float = DEFAULT_TOL
                         ) -> list[FaceHandle]:
    """Coarsest decomposition R^n = ⊕ H_k with every generator inside one H_k.

    Union-find over the generators: a generator that is linearly dependent
    on others gets merged with the groups carrying its (unique) supporting
    representation.  With a complete certificate the resulting factors are
    exactly the simple direct summands; the list is a singleton iff the
    cone is simple.
    """
    if len(cone.generators) == 0:
        raise MissingCertificateError("simplicity needs a rank-1 certificate")
    if not is_nondegenerate(cone, tol):
        raise InvalidInputError(
            "cone is degenerate; call reduce_nondegenerate first")
    gens = cone.generators
    m = len(gens)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            return True
        return False

    changed = True
    while changed:
        changed = False
        indep: list[int] = []
        for j in range(m):
            if not indep:
                indep.append(j)
                continue
            a_mat = gens[indep].T
            coef, res, rank, sv = np.linalg.lstsq(a_mat, gens[j], rcond=None)
            resid = np.linalg.norm(a_mat @ coef - gens[j])
            if resid > 100 * tol:
                indep.append(j)
                continue
            cut = symlin.cut(coef, 100 * tol)
            for k, c in zip(indep, coef):
                if abs(c) > cut:
                    changed |= union(j, k)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    handles = []
    for idx in groups.values():
        basis = symlin.subspace_of_vectors(gens[np.array(idx)])
        handles.append(FaceHandle(image_basis=basis))
    total = sum(h.dim for h in handles)
    if total != cone.n:
        raise InvalidInputError(
            "generator spans do not fill the space; certificate incomplete?")
    handles.sort(key=lambda h: (-h.dim, tuple(np.round(symlin.vec(h.image_basis[:, 0]), 6))))
    return handles


def isolated_rays(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> list[int]:
    """Generator indices spanning the 1-dimensional direct summands.

    These are exactly the isolated extreme rays: the discrete part of the
    extreme-ray variety splits off as a nonnegative-orthant factor.
    """
    return unit_factor_rays(cone, simplicity_partition(cone, tol))


def unit_factor_rays(cone: SpectrahedralCone, handles: list[FaceHandle]) -> list[int]:
    """Generator indices spanning the 1-dimensional factors among handles,
    a partition that :func:`simplicity_partition` returned for the cone."""
    out = []
    for h in handles:
        if h.dim != 1:
            continue
        direction = h.image_basis[:, 0]
        for i, x in enumerate(cone.generators):
            if abs(np.vdot(direction, x)) > RAY_MATCH:
                out.append(i)
                break
    return sorted(out)


def has_tangent(cone: SpectrahedralCone, x: np.ndarray) -> bool:
    """True iff some y independent of x has x y^T + y x^T in span K.

    Diagnostic counterpart of the direct-sum test for isolated rays: an
    extreme ray that is not isolated always admits such a tangent.
    """
    return tangent_space(cone, x).shape[1] >= 2


def tangent_space(cone: SpectrahedralCone, x: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of {y : x y^T + y x^T ∈ span K}."""
    x = np.asarray(x, dtype=float).reshape(cone.n)
    basis = cone.span_basis
    rows = []
    eye = np.eye(cone.n)
    for k in range(cone.n):
        m = symlin.sym(np.outer(x, eye[k])) * 2.0
        rows.append(symlin.vec(m - symlin.span_project(basis, m)))
    return symlin.nullspace(np.array(rows).T)


# ---------------------------------------------------------------------------
# MLD sets


def find_mld_sets(cone: SpectrahedralCone, max_size: int = 6,
                  tol: float = DEFAULT_TOL) -> list[MldSet]:
    """All minimally linearly dependent generator subsets up to max_size.

    A subset of k+1 vectors qualifies when its span has dimension k and
    the (then unique) kernel vector of the stacked column matrix has no
    zero entry.
    """
    if len(cone.generators) == 0:
        raise MissingCertificateError("MLD search needs a certificate")
    from itertools import combinations
    gens = cone.generators
    out = []
    for size in range(2, min(max_size, len(gens)) + 1):
        for subset in combinations(range(len(gens)), size):
            null = symlin.nullspace(gens[np.array(subset)].T, tol)
            if null.shape[1] != 1:
                continue
            kern = null[:, 0]
            if np.abs(kern).min() > tol:
                out.append(MldSet(indices=list(subset), kernel_coeffs=kern))
    return out


# ---------------------------------------------------------------------------
# diagonalization


def diagonalizing_basis(cone: SpectrahedralCone, x_mat: np.ndarray,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """Basis of R^n (columns) in which X reads diag(1,..,1,0,..,0).

    The leading k columns b_i carry rank-1 elements b_i b_i^T of K, so all
    diag(d_1..d_k, 0..0) with d_i >= 0 stay inside the cone in these
    coordinates.  Built from the rank-1 decomposition of X.
    """
    from .decompose import decompose as _decompose
    result = _decompose(cone, x_mat, tol=tol)
    cols = [atom.vector * np.sqrt(atom.weight) for atom in result.atoms]
    k = len(cols)
    if k < cone.n:
        partial = symlin.subspace_of_vectors(cols) if cols else np.zeros((cone.n, 0))
        comp = symlin.complement_basis(partial, cone.n)
        cols.extend(comp.T)
    basis = np.array(cols).T
    if abs(np.linalg.det(basis)) < 1e-12:
        raise InvalidInputError("decomposition vectors do not extend to a basis")
    return basis


# ---------------------------------------------------------------------------
# congruence transforms


def apply_congruence(cone: SpectrahedralCone, a: np.ndarray,
                     keep_expr: bool = True) -> SpectrahedralCone:
    """Image cone { A X A^T : X in K } for invertible A."""
    a = np.asarray(a, dtype=cone.span_basis.dtype)
    if abs(np.linalg.det(a)) < 1e-12:
        raise InvalidInputError("congruence matrix must be invertible")
    span = a @ cone.span_basis @ a.conj().T
    gens = [a @ x for x in cone.generators]
    expr = None
    if keep_expr:
        expr = ConeExpr("transform", params={"matrix": _tolist(a)},
                        children=(cone,), aux={"matrix": a})
    return make_cone(cone.n, span, gens, expr=expr,
                     complex_field=cone.complex_field, check=False)


def _tolist(a: np.ndarray):
    if np.iscomplexobj(a):
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]
    return a.tolist()
