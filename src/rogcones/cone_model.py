"""Spectrahedral cones K = L ∩ PSD with rank-1 generator certificates.

A cone is stored as an orthonormal basis of its span L together with a
list of unit vectors x whose outer products lie in L (the rank-1
certificate).  The structural analyses live here: degree and dimension,
reduction to a non-degenerate representation, the spans of faces, the
direct-sum (simplicity) factorization, isolated extreme rays and the
generator pairs that span rank-2 faces.  What needs the rank-1 rule
of a cone's kind (face certificates, diagonalizing bases) lives in
:mod:`rogcones.decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
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
    which the family table ``decompose._FAMILIES`` mirrors.  ``params``
    holds the builder's own arguments, numpy arrays included, which
    :mod:`rogcones.jsonio` encodes; ``children`` holds the already-built
    child cones of combinators and wrappers, none for leaf kinds, and
    ``aux`` only data derived from the params that the engines use.  Each
    kind but ``moment`` is a theorem of the paper: a tree of them proves
    the cone rank-one generated.
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
class SpectrahedralCone:
    n: int
    span_basis: np.ndarray                 # (d, n, n) orthonormal stack
    generators: np.ndarray                 # (g, n) unit vectors
    expr: Optional[ConeExpr] = None

    @property
    def dim(self) -> int:
        return self.span_basis.shape[0]

    @property
    def complex_field(self) -> bool:
        """True iff the span holds complex Hermitian matrices."""
        return np.iscomplexobj(self.span_basis)

    @cached_property
    def _codim1_form(self) -> np.ndarray:
        """:func:`codim1_form`, computed on the first call for this cone."""
        q = _span_normal(self)
        q.flags.writeable = False
        return q

    def copy_with(self, **kw) -> "SpectrahedralCone":
        return replace(self, **kw)


def make_cone(n: int, span_mats, generators, expr: Optional[ConeExpr] = None,
              check: bool = True) -> SpectrahedralCone:
    """Assemble a cone from spanning matrices and generator vectors, over
    the field (real or complex) of the spanning matrices."""
    basis = symlin.orthonormal_span(span_mats)
    gens = _normalize_generators(generators, n, np.iscomplexobj(basis))
    cone = SpectrahedralCone(n=n, span_basis=basis, generators=gens, expr=expr)
    if check and not symlin.span_contains(basis, gens[:, :, None] * gens.conj()[:, None, :],
                                          100 * DEFAULT_TOL):
        raise InvalidInputError("generator outer product is not in the span")
    return cone


def _normalize_generators(generators, n: int, complex_field: bool) -> np.ndarray:
    rays = np.asarray(generators, dtype=complex if complex_field else float)
    rays = rays.reshape(len(rays), n)
    if len(rays) == 0:  # span-only cones: skip the fixed cost of the steps below
        return rays
    # row by row, these are the bits of np.linalg.norm(x), x / nrm and the
    # canonical phase x[i] / abs(x[i]): vecdot takes norm's dot products and
    # hypot the scalar abs (np.abs of a complex array rounds differently);
    # a ray already normalized up to rounding is not divided again
    nrm = np.sqrt(np.vecdot(rays.real, rays.real) + np.vecdot(rays.imag, rays.imag))
    live = ~(nrm < 1e-14)
    rays = rays[live] / symlin.snap_to_one(nrm[live])[:, None]
    # canonical sign so that certificates are deterministic; a real phase
    # is +-1 exactly, a complex one is snapped like the norm
    lead = rays[np.arange(len(rays)), np.argmax(np.abs(rays), axis=1)]
    phase = lead / np.hypot(lead.real, lead.imag)
    rays = rays / (symlin.snap_to_one(phase) if complex_field else phase)[:, None]
    # keep the first ray of each near-duplicate group, in input order: a
    # row is dropped when it matches an earlier kept row, so only rows that
    # match some row besides themselves need a look at which were kept
    close = np.abs(rays @ rays.conj().T) > RAY_MATCH
    keep = close.sum(axis=1) == 1
    for i in np.flatnonzero(~keep):
        keep[i] = not close[i, :i][keep[:i]].any()
    return rays[keep]


def certificate_complete(cone: SpectrahedralCone) -> bool:
    """True iff the generator outer products span the cone's subspace L.

    Spanning rank-1 generators are necessary for K to be rank-one
    generated, not a proof of it: the pattern cone of the 4-cycle,
    L = {X : X_02 = X_13 = 0}, is spanned by the outer products of its
    edge vectors e_i +- e_j, e_i, e_j and is not ROG.
    """
    if len(cone.generators) == 0:
        return cone.dim == 0
    g = cone.generators
    return symlin.span_dim(g[:, :, None] * g.conj()[:, None, :]) == cone.dim


# ---------------------------------------------------------------------------
# basic queries


def membership(cone: SpectrahedralCone, x_mat: np.ndarray,
               tol: float = DEFAULT_TOL) -> bool:
    """X in K iff X is (numerically) in L and positive semidefinite."""
    x_mat = np.asarray(x_mat)
    if x_mat.shape != (cone.n, cone.n):
        raise InvalidInputError(f"expected a {cone.n} x {cone.n} matrix")
    return symlin.span_contains(cone.span_basis, x_mat, tol) and symlin.psd_check(x_mat, tol)


def interior_element(cone: SpectrahedralCone) -> np.ndarray:
    """Sum of generator outer products; max-rank element for complete certs."""
    if len(cone.generators) == 0:
        raise MissingCertificateError("cone carries no rank-1 certificate")
    return cone.generators.T @ cone.generators.conj()


def degree(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> int:
    """Maximal matrix rank over the cone, read off the certificate."""
    return symlin.numeric_rank(interior_element(cone), tol)


def dimension(cone: SpectrahedralCone) -> int:
    return cone.dim


def is_nondegenerate(cone: SpectrahedralCone, tol: float = DEFAULT_TOL) -> bool:
    return degree(cone, tol) == cone.n


# ---------------------------------------------------------------------------
# codimension <= 1: the PSD cone and the sections {X >= 0 : <Q, X> = 0}


def codimension(cone: SpectrahedralCone) -> int | None:
    """n(n+1)/2 - dim for a real cone; None over the complex field.

    Codimension 0 is the full PSD cone, and codimension 1 the section
    {X >= 0 : <Q, X> = 0} of the normal Q of the span, which is rank-one
    generated for every Q (Sturm and Zhang, Math. Oper. Res. 2003).  The
    engines decide both by this number before the cone's kind.
    """
    if cone.complex_field:
        return None
    return cone.n * (cone.n + 1) // 2 - cone.dim


def codim1_form(cone: SpectrahedralCone) -> np.ndarray:
    """The unit normal Q of the span of a real codimension-1 cone.

    Q is E minus its projection onto the span, for the symmetric unit
    matrix E of the coordinate (a, c) farthest from the span.  In
    orthonormal coordinates of the symmetric matrices the squared
    distances of the n(n+1)/2 coordinates add up to the codimension, 1, so
    the farthest is at least 1 / sqrt(n(n+1)/2) away: no cancellation.
    Each cone computes Q once and returns it read-only after.
    """
    return cone._codim1_form


def _span_normal(cone: SpectrahedralCone) -> np.ndarray:
    """The Q of :func:`codim1_form`, computed from the span."""
    n = cone.n
    if codimension(cone) != 1:
        raise InvalidInputError("cone is not of codimension 1")
    b = cone.span_basis
    # |P E|^2 for each coordinate: sum_k B_k[a, c]^2, twice that off the diagonal
    near = (2.0 - np.eye(n)) * np.einsum("kij,kij->ij", b, b)
    a, c = divmod(int(np.argmin(near)), n)
    # Q ~ E - sum_k <B_k, E> B_k for E = e_a e_c^T + e_c e_a^T, where
    # <B_k, E> = 2 B_k[a, c], or E = e_a e_a^T on the diagonal
    q = -(1.0 + (a != c)) * np.tensordot(b[:, a, c], b, axes=1)
    q[a, c] += 1.0
    if a != c:
        q[c, a] += 1.0
    return q / np.linalg.norm(q)


def inertia_normal_form(q: np.ndarray) -> tuple[tuple[int, int, int], np.ndarray]:
    """The signature (p, m, z) of a form, p >= m, and a frame M with
    M^T Q' M = J = diag(1 x p, -1 x m, 0 x z), from one
    ``symlin.inertia_split``.

    Q and -Q cut out one section, so Q' is whichever of them has p
    positive directions.  M is invertible, and Q' = N J N^T with
    N = M^-T; two forms of one signature therefore have the congruence
    S = M_2 M_1^-1 = N_2^-T N_1^T, with S^T Q'_2 S = Q'_1.
    """
    u, v, w = symlin.inertia_split(q)
    if u.shape[1] < v.shape[1]:
        u, v = v, u
    return (u.shape[1], v.shape[1], w.shape[1]), np.hstack([u, v, w])


def _signature(q: np.ndarray) -> tuple[int, int, int]:
    """The signature of :func:`inertia_normal_form`."""
    return inertia_normal_form(q)[0]


# ---------------------------------------------------------------------------
# non-degenerate reduction


def reduce_nondegenerate(cone: SpectrahedralCone, tol: float = DEFAULT_TOL
                         ) -> tuple[SpectrahedralCone, np.ndarray]:
    """Compress K to matrices of size max-rank; returns (K', embedding).

    The embedding is the n x m coefficient matrix B of the inclusion, so
    elements map back via X = B X' B^T and generators via x = B x'.
    """
    certified = len(cone.generators) > 0
    # without a certificate, fall back to the projection of the identity,
    # which is a max-rank element whenever it lands inside the cone
    hub = (interior_element(cone) if certified else
           symlin.span_project(cone.span_basis, np.eye(cone.n, dtype=cone.span_basis.dtype)))
    dec = symlin.eig_sym(hub)
    if not certified and not symlin.psd_values(dec.values, hub, tol):
        raise MissingCertificateError(
            "cone carries no certificate and no obvious interior element")
    b = dec.range(tol)
    m = b.shape[1]
    if m == cone.n:
        expr = ConeExpr("reduce", {"embedding": np.eye(cone.n)}, children=(cone,))
        return cone.copy_with(expr=expr), np.eye(cone.n)
    span = b.conj().T @ cone.span_basis @ b
    gens = [b.conj().T @ x for x in cone.generators]
    expr = ConeExpr("reduce", {"embedding": b}, children=(cone,))
    reduced = make_cone(m, span, gens, expr=expr, check=False)
    return reduced, b


# ---------------------------------------------------------------------------
# faces


def face_span(cone: SpectrahedralCone, h: np.ndarray) -> np.ndarray:
    """Orthonormal basis of L ∩ span{x y^T + y x^T : x, y in col(h)}."""
    h = np.asarray(h, dtype=cone.span_basis.dtype)
    if h.shape[1] == 0:
        return np.zeros((0, cone.n, cone.n), dtype=cone.span_basis.dtype)
    p = h @ h.conj().T
    null = symlin.nullspace(symlin._vec_stack(cone.span_basis - p @ cone.span_basis @ p).T)
    if null.shape[1] == 0:
        return np.zeros((0, cone.n, cone.n), dtype=cone.span_basis.dtype)
    mats = [symlin.span_from_coords(cone.span_basis, null[:, j])
            for j in range(null.shape[1])]
    return symlin.orthonormal_span(mats)


# ---------------------------------------------------------------------------
# simplicity / direct-sum factorization


def simplicity_partition(cone: SpectrahedralCone, tol: float = DEFAULT_TOL
                         ) -> list[FaceHandle]:
    """Coarsest decomposition R^n = ⊕ H_k with every generator inside one H_k.

    One sweep over the generators in order keeps the first and each one
    that lies more than 100 tol off the span of those kept before it
    (Gram–Schmidt with one re-orthogonalisation).  Every other generator
    is merged, by union-find, with the groups of the kept generators whose
    coefficients in its (unique) representation on the prefix kept before
    it exceed 100 tol in modulus (an absolute cut: generators are unit
    vectors).  With a complete certificate the resulting factors are
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

    q = np.zeros((cone.n, m), dtype=gens.dtype)  # orthonormal basis of the kept
    kept, dep, prefix = [], [], []  # prefix[i]: how many were kept before dep[i]
    for j, g in enumerate(gens):
        if len(kept) == cone.n:  # the kept span R^n: the rest are dependent
            dep += range(j, m)
            prefix += [cone.n] * (m - j)
            break
        qk = q[:, :len(kept)]
        res = g - qk @ (qk.conj().T @ g)
        res -= qk @ (qk.conj().T @ res)
        nrm = np.linalg.norm(res)
        if nrm > 100 * tol or not kept:
            q[:, len(kept)] = res / nrm
            kept.append(j)
        else:
            dep.append(j)
            prefix.append(len(kept))
    if dep:
        qk = q[:, :len(kept)]
        r_mat = qk.conj().T @ gens[kept].T
        rhs = qk.conj().T @ gens[dep].T
        rhs[np.arange(len(kept))[:, None] >= np.array(prefix)] = 0.0
        # R is upper triangular with a nonzero diagonal, so LU takes no row
        # swaps and the solve is one back substitution
        coef = np.linalg.solve(np.triu(r_mat), rhs)
        kept_idx = np.array(kept)
        for j, c in zip(dep, coef.T):
            for k in kept_idx[np.abs(c) > 100 * tol]:
                parent[find(k)] = find(j)
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


def isolated_rays(cone: SpectrahedralCone) -> list[int]:
    """Generator indices spanning the 1-dimensional direct summands.

    These are exactly the isolated extreme rays: the discrete part of the
    extreme-ray variety splits off as a nonnegative-orthant factor.
    """
    return unit_factor_rays(cone, simplicity_partition(cone))


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


def rank2_pairs(cone: SpectrahedralCone) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j of distinct certificate rays with
    x_i x_j^* + x_j x_i^* in the span, all pairs tested in one kernel call,
    in pair order.  The pairs are kept by every congruence of the cone."""
    gens = cone.generators
    i, j = np.triu_indices(len(gens), 1)
    distinct = np.abs((gens.conj() @ gens.T)[i, j]) <= RAY_MATCH
    i, j = i[distinct], j[distinct]
    cross = symlin.sym(gens[i][:, :, None] * gens[j].conj()[:, None, :]) * 2.0
    near = symlin.span_distances(cone.span_basis, cross) \
        <= 1e-7 * (1.0 + np.linalg.norm(cross, axis=(1, 2)))
    return i[near], j[near]


# ---------------------------------------------------------------------------
# congruence transforms


def apply_congruence(cone: SpectrahedralCone, a: np.ndarray,
                     keep_expr: bool = True) -> SpectrahedralCone:
    """Image cone { A X A^T : X in K } for invertible A."""
    a = np.asarray(a, dtype=cone.span_basis.dtype)
    if not symlin.invertible(a):
        raise InvalidInputError("congruence matrix must be invertible")
    # all positive multiples of a give one image; scaling by a power of two is
    # exact and keeps a small a clear of the absolute floors of make_cone
    scaled = a * 2.0 ** -np.frexp(np.abs(a).max())[1]
    span = scaled @ cone.span_basis @ scaled.conj().T
    gens = [scaled @ x for x in cone.generators]
    expr = None
    if keep_expr:
        expr = ConeExpr("transform", params={"matrix": a}, children=(cone,))
    return make_cone(cone.n, span, gens, expr=expr, check=False)

