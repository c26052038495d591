"""Rank-1 decomposition engines.

:func:`decompose` decides by the codimension of a real cone before its
kind.  Codimension 0 is the PSD cone, whose atoms are the eigenvectors;
codimension 1 is a section {X >= 0 : <Q, X> = 0}, split by the S-lemma
rotation of Sturm and Zhang with Q the normal of the span.  Both hold
whatever built the cone: a bare span, a congruence transform or a full
extension of codimension 1 takes them too.  Every other cone takes one of
five routes by its kind, all returning a :class:`Decomposition` whose atom
count equals the matrix rank:

* zero-fill elimination for the chordal kinds and ``diagonal``: one
  pivot column per vertex, in reverse perfect elimination order, with no
  peel,
* compositional recursions over the construction tree for direct sums,
  full extensions and intertwinings,
* a shift-invariance (Prony-type) node solver for block-Hankel matrices,
  on the factor of X at every rank,
* a unitary spectral factorization for complex block-Toeplitz matrices,
* a closed form for cross-ratio cones: one elimination per tail
  coordinate, then the eigenvectors of the base plane.

A cone without a route (``ternary_quartic``, ``moment``, a bare span)
goes to the generic peeling loop ``carath_decompose``, which repeatedly
extracts an extreme ray from the face of the current iterate and steps
to the PSD boundary.  None of these kinds has a rank-1 rule, so the peel
raises OracleUnavailableError after the gate; it stays as the reference
the direct routes are tested against.

Every route opens with one membership gate, :func:`_span_member`: it
projects X onto the span and eigendecomposes the projection once, and
rejects a non-member by the rule of ``cone_model.membership``.  The
route reuses that eigendecomposition.  A direct route makes each rank
decision on what is left of X at one scale, the cut of the eigenvalues
of X; the peel makes it at the scale of the iterate it peels.

What the engines know about each cone kind (its route, its rank-1 rule
and its sampler) is one :class:`Family` record in ``_FAMILIES`` at the
end of this module.  The rank-1 rule lists vectors x in a subspace H
with x x^T in the span, as a function of H alone: the peeling loop
takes its extreme rays from it, and :func:`face_of` the certificates of
faces, since every face of a rank-one-generated cone is again generated
by its rank-1 elements.  The kinds routed directly by elimination or
recursion (the chordal and composite kinds) have no rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import constructions, symlin
from .cone_model import (FaceHandle, SpectrahedralCone, codim1_form, codimension,
                         face_span, make_cone)
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

    A real cone of codimension 0 or 1 takes its closed form, whatever its
    kind; any other cone the direct route of its kind when it has one,
    and the peeling loop otherwise, which has no rank-1 rule for those
    kinds and raises OracleUnavailableError.
    """
    x_mat = np.asarray(x_mat)
    codim = codimension(cone)
    if codim == 0:
        return _decompose_full_psd(cone, x_mat, tol)
    if codim == 1:
        return _decompose_codim1(cone, x_mat, tol)
    route = _rule(cone, "route")
    if route is None:
        return carath_decompose(cone, x_mat, tol)
    return route(cone, x_mat, tol)


# ---------------------------------------------------------------------------
# generic peeling loop


def carath_decompose(cone: SpectrahedralCone, x_mat: np.ndarray,
                     tol: float = DEFAULT_TOL) -> Decomposition:
    """Peel extreme rays until nothing is left.

    :func:`decompose` calls it only for the kinds without a direct route,
    ``ternary_quartic``, ``moment`` and a bare span, which have no rank-1
    rule, so it raises OracleUnavailableError for them after the gate;
    called directly, it peels any kind with a rank-1 rule,
    which makes it the reference the direct routes are tested against,
    and raises OracleUnavailableError naming a kind without one (the
    chordal and composite kinds among them).  Each round finds a rank-1
    element E = x x^T of the cone inside the face of the current iterate,
    from the rule's rays of that face, and removes mu* E with the largest mu*
    keeping the iterate PSD (mu* = 1 / x^T X^+ x); the rank then drops by
    exactly one.  A step that fails to drop the rank is retried with the
    next ray of the kind's rule, up to eight rays a round; a round whose
    rule has no ray left stalls the peel (NumericalError).
    """
    x_mat, current, dec = _span_member(cone, x_mat, tol)
    weights: list[float] = []
    vectors: list[np.ndarray] = []
    rank = dec.rank(tol)
    mu_trace: list[float] = []
    while rank > 0:
        h = dec.range(tol)
        pinv = dec.pinv(tol)
        accepted = False
        for attempt in range(8):
            x = extreme_ray_oracle(cone, h, attempt=attempt, tol=tol)
            if x is None:
                break
            x = x / np.linalg.norm(x)
            denom = float(np.real(np.vdot(x, pinv @ x)))
            # denom >= 1 / lambda_max for a unit x in the face, at every scale
            if denom * dec.values[0] <= tol:
                continue
            mu = 1.0 / denom
            candidate = symlin.sym(current - mu * symlin.outer(x))
            cand_dec = symlin.eig_sym(candidate)
            # the rank is judged at the scale of the iterate peeled.  By
            # interlacing, a rank-1 downdate keeps rank - 1 eigenvalues above
            # the cut, so a step past the PSD boundary leaves one below -cut
            # and keeps the rank: the rank test is also the sign test
            new_rank = int(np.count_nonzero(np.abs(cand_dec.values) > symlin.cut(dec.values, tol)))
            if new_rank >= rank:
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


def _span_member(cone, x_mat, tol):
    """The membership gate of every route: (X, P, eig(P)) for X in the
    cone's field, P its projection onto the span.  X is a member iff
    |X - P| and the negative eigenvalues of P are within max(tol, 1e-7)
    of the scale of X (the rule of ``cone_model.membership``); a
    non-member raises InvalidInputError."""
    x_mat = np.asarray(x_mat, dtype=cone.span_basis.dtype)
    if x_mat.shape != (cone.n, cone.n):
        raise InvalidInputError(f"expected a {cone.n} x {cone.n} matrix")
    current = symlin.span_project(cone.span_basis, symlin.sym(x_mat))
    dec = symlin.eig_sym(current)
    bound = max(tol, 1e-7)
    if (np.linalg.norm(x_mat - current) > bound * (1.0 + np.linalg.norm(x_mat))
            or not symlin.psd_values(dec.values, current, bound)):
        raise InvalidInputError("matrix is not a member of the cone")
    return x_mat, current, dec


def _factor(dec, cut):
    """Columns v_i sqrt(lambda_i) of the eigenpairs with lambda_i > cut."""
    keep = dec.values > cut
    return dec.vectors[:, keep] * np.sqrt(dec.values[keep])


# ---------------------------------------------------------------------------
# closed-form routes


def _decompose_full_psd(cone, x_mat, tol):
    """The eigenvectors whose eigenvalues are above the cut."""
    x_mat, _, dec = _span_member(cone, x_mat, tol)
    cols = _factor(dec, symlin.cut(dec.values, tol))
    return _as_decomposition(np.ones(cols.shape[1]), cols.T, x_mat)


def _decompose_codim1(cone, x_mat, tol):
    """The S-lemma rotation (Sturm and Zhang, Math. Oper. Res. 2003), with
    Q the normal of the span (``cone_model.codim1_form``).

    Factor X = P P^T (:func:`_factor`); the Q-values q_i =
    p_i^T Q p_i sum to <Q, X> = 0.  Two columns with Q-values of opposite
    signs rotate to y, z with y^T Q y = 0 and y y^T + z z^T = p_i p_i^T +
    p_j p_j^T: y is an atom, z replaces the pair.  When every remaining
    Q-value is zero (at tol relative to |Q| |p|^2) the remaining columns
    are atoms too.  The atoms are an orthogonal transform of the columns
    of P, so there are rank(X) of them and they are independent.
    """
    x_mat, _, dec = _span_member(cone, x_mat, tol)
    cols = list(_factor(dec, symlin.cut(dec.values, tol)).T)
    q = codim1_form(cone)
    vals = [float(p @ q @ p) for p in cols]
    bound = tol  # |Q| = 1
    atoms = []
    while len(cols) > 1:
        ratio = np.array(vals) / np.array([p @ p for p in cols])
        i = int(np.argmax(np.abs(ratio)))
        partners = np.flatnonzero(ratio * ratio[i] < 0)
        if abs(ratio[i]) <= bound or len(partners) == 0:
            break
        j = int(partners[np.argmax(np.abs(ratio[partners]))])
        a, c, b = vals[i], vals[j], float(cols[i] @ q @ cols[j])
        # tan of the rotation angle: the root of c t^2 + 2 b t + a = 0 that
        # is free of cancellation (a c < 0, so the denominator is nonzero)
        t = -a / (b + np.copysign(np.sqrt(b * b - a * c), b))
        cos = 1.0 / np.sqrt(1.0 + t * t)
        atoms.append(cos * (cols[i] + t * cols[j]))
        cols[i] = cos * (cols[j] - t * cols[i])
        vals[i] = float(cols[i] @ q @ cols[i])
        del cols[j], vals[j]
    atoms += cols
    return _as_decomposition(np.ones(len(atoms)), atoms, x_mat)


def _decompose_cross_ratio(cone, x_mat, tol):
    """One elimination per tail coordinate, then the base plane.

    Tail coordinate 2 + j lies in plane j + 1 alone and the tail block is
    diagonal, so column 2 + j over the root of its diagonal entry is an
    atom of that plane.  Eliminating every tail coordinate leaves the
    2 x 2 Schur complement on the base plane, which splits by
    eigendecomposition; rank additivity gives rank(X) atoms.  A tail atom
    at or below the cut is dropped, as the peel drops it, and so is a
    tail whose diagonal entry is rounding (at most 1e-6 of the cut):
    dividing by it would blow the rounding of its column up.
    """
    x_mat, current, dec = _span_member(cone, x_mat, tol)
    cut = symlin.cut(dec.values, tol)
    base = current[:2, :2].copy()
    weights, vectors = [], []
    for k in range(2, cone.n):
        d = current[k, k]
        v = np.zeros(cone.n)
        v[:2], v[k] = current[:2, k], d
        if d <= 1e-6 * cut or v @ v <= cut * d:
            continue
        weights.append(1.0 / d)
        vectors.append(v)
        base -= np.outer(v[:2], v[:2]) / d
    for z in _factor(symlin.eig_sym(base), cut).T:
        weights.append(1.0)
        vectors.append(_place(cone.n, 0, z))
    return _as_decomposition(weights, vectors, x_mat)


def _decompose_chordal(cone, x_mat, tol):
    """Zero-fill elimination along the reversed order of ``aux``.

    The last vertex v of the order has only earlier neighbors, which with
    v form its clique, so column v of X lies on that clique; subtracting
    x x^T / x_v, x that column, clears row and column v and touches the
    clique block only, so elimination makes no fill (Rose 1970) and goes
    on with the next vertex.  Each x lies on a clique, so x x^T is in the
    cone, and rank(X) columns are nonzero (Vandenberghe and Andersen,
    Found. Trends Optim. 2015).  The diagonal kind is the pattern with no
    edges.  A column is nonzero when its norm is above the cut of X's
    eigenvalues; its pivot can lie far below that cut while the column
    does not (a pivot of 7e-9 under a column of 1e-4 is an atom of weight
    about 1.4), so the pivot is not tested against the cut.  A column with
    a nonpositive pivot is zero too when its norm is within the gate's PSD
    allowance max(tol, 1e-7) (1 + |P|), P the gate's projection, since the
    gate admits eigenvalues that far below 0; above it, it raises.
    """
    x_mat, current, dec = _span_member(cone, x_mat, tol)
    cut = symlin.cut(dec.values, tol)
    allowance = max(tol, 1e-7) * (1.0 + float(np.linalg.norm(current)))
    aux = cone.expr.aux
    weights, vectors = [], []
    for v, clique in zip(reversed(aux["order"]), reversed(aux["cliques"])):
        col = current[clique, v]
        size = np.linalg.norm(col)
        if size <= cut or (col[0] <= 0.0 and size <= allowance):
            continue
        if col[0] <= 0.0:
            raise NumericalError(
                f"zero-fill elimination met the pivot {col[0]:.3e} under a column "
                f"of norm {size:.3e} at vertex {v}")
        current[np.ix_(clique, clique)] -= np.outer(col, col) / col[0]
        x = np.zeros(cone.n)
        x[clique] = col
        weights.append(1.0 / col[0])
        vectors.append(x)
    return _as_decomposition(weights, vectors, x_mat)


# ---------------------------------------------------------------------------
# rank-1 rules: the extreme-ray oracle and face certificates


def extreme_ray_oracle(cone: SpectrahedralCone, h: np.ndarray, attempt: int = 0,
                       tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """The ``attempt``-th candidate x in col(h) with x x^T in the cone's
    span, or None when there are no more.

    ``h`` is an orthonormal column basis of the face image.  The
    candidates are those of :func:`rays_spanning_face`, in the same
    order: a function of the face alone.  OracleUnavailableError: the
    kind, or a summand or wrapped cone reached first, has no rule, as
    for the kinds that :func:`decompose` routes directly without one
    (the chordal kinds, ``full_ext``, ``intertwine``, ``block_toeplitz``)
    and for ``ternary_quartic`` and ``moment``.
    """
    if cone.expr is None:
        raise OracleUnavailableError("cone carries no construction expression")
    if h.shape[1] == 0:
        raise InvalidInputError("face is zero")
    for i, x in enumerate(_rays(cone, h, tol)):
        if isinstance(x, OracleUnavailableError):
            raise x
        if i == attempt:
            return x
    return None


def rays_spanning_face(cone: SpectrahedralCone, h: np.ndarray) -> list[np.ndarray]:
    """Every candidate x in col(h) with x x^T in the cone's span, by the
    rule of the cone's kind (none for kinds, summands or wrapped cones
    without one)."""
    return [x for x in _rays(cone, h, DEFAULT_TOL)
            if not isinstance(x, OracleUnavailableError)]


def _rays(cone, h, tol):
    """The candidates of the cone's rule.  A cone without one yields the
    error that says so: the oracle raises it, the face listing skips it."""
    rays = _rule(cone, "rays")
    if rays is not None:
        return rays(cone, h, tol)
    kind = None if cone.expr is None else cone.expr.kind
    return iter((OracleUnavailableError(f"no extreme-ray rule for cone kind {kind!r}"),))


def _child_rays(child, h, tol, lift):
    """A summand's or wrapped cone's candidates, mapped into the parent's
    coordinates by ``lift``; the error of a child without a rule passes."""
    for x in _rays(child, h, tol):
        yield x if isinstance(x, OracleUnavailableError) else lift(x)


def face_of(cone: SpectrahedralCone, handle: FaceHandle) -> SpectrahedralCone:
    """The face K ∩ L_n(H): intersect the span, keep generators inside H.

    When the kept generators do not span the face, the candidates of
    :func:`rays_spanning_face` top up the certificate.  On the ranges of
    members it comes out complete for the kinds ``full_psd``,
    ``diagonal`` and ``cross_ratio`` and for congruence transforms of
    them, and for ``codim1`` by construction: the face of a member's
    range H is the section of PSD(H) by the form of Q on H, which is
    indefinite or zero, and its isotropic vectors span that section
    (``symlin.isotropic_vectors``).  On ``hankel``, and on the kinds
    without a rule (the chordal and composite kinds), it can fall short
    of the face.
    """
    h = np.asarray(handle.image_basis, dtype=cone.span_basis.dtype)
    basis = face_span(cone, h)
    p = h @ h.conj().T
    gens = [x for x in cone.generators
            if np.linalg.norm(x - p @ x) <= 10 * DEFAULT_TOL * np.linalg.norm(x)]
    if basis.shape[0] == 0:
        return SpectrahedralCone(n=cone.n, span_basis=basis,
                                 generators=np.zeros((0, cone.n), dtype=cone.generators.dtype),
                                 expr=None)
    have = symlin.span_dim([symlin.outer(x) for x in gens]) if gens else 0
    if have < basis.shape[0]:
        gens.extend(rays_spanning_face(cone, h))
    return make_cone(cone.n, basis, gens, expr=None, check=False)


def _full_psd_rays(cone, h, tol):
    """The columns of h, then their pairwise sums."""
    k = h.shape[1]
    yield from h.T
    yield from (h[:, i] + h[:, j] for i in range(k) for j in range(i + 1, k))


def _diagonal_rays(cone, h, tol):
    p = h @ h.conj().T
    eye = np.eye(cone.n)
    return [eye[i] for i in range(cone.n) if abs(p[i, i] - 1.0) <= 1e2 * tol]


def _hankel_rays(cone, h, tol):
    p = h @ h.T
    return [v for v in _hankel_candidates(h, *_block_size(cone))
            if np.linalg.norm(v - p @ v) <= 1e-6 * np.linalg.norm(v)]


def _codim1_rays(cone, h, tol):
    """h times the isotropic vectors of the form h^T Q h of Q on col(h)
    (``symlin.isotropic_vectors``): their products span the face."""
    return (h @ symlin.isotropic_vectors(symlin.sym(h.T @ cone.expr.params["Q"] @ h), tol)).T


def _cross_ratio_rays(cone, h, tol):
    """Per plane of the cone: its basis vectors and their sum when col(h)
    holds the whole plane, else a vector where the two meet."""
    p = h @ h.T
    for plane in cone.expr.aux["planes"]:
        if np.linalg.norm(plane - p @ plane) <= 1e-7 * np.linalg.norm(plane):
            yield from (plane[:, 0], plane[:, 1], plane[:, 0] + plane[:, 1])
            continue
        v = _subspace_intersection_vector(h, plane)
        if v is not None:
            yield v


def _subspace_intersection_vector(h, plane):
    stacked = np.hstack([h, -plane])
    null = symlin.nullspace(stacked)
    if null.shape[1] == 0:
        return None
    v = h @ null[:h.shape[1], 0]
    if np.linalg.norm(v) < 1e-8:
        return None
    return v / np.linalg.norm(v)


def _direct_sum_rays(cone, h, tol):
    """Each summand's rays on the part of col(h) inside its block."""
    n1, n = cone.expr.params["sizes"][0], cone.n
    for lo, hi, child, other in ((0, n1, cone.expr.children[0], slice(n1, n)),
                                 (n1, n, cone.expr.children[1], slice(0, n1))):
        sub = symlin.subspace_of_vectors((h @ symlin.nullspace(h[other, :]))[lo:hi].T)
        if sub.shape[1]:
            yield from _child_rays(child, sub, tol, partial(_place, n, lo))


# ---------------------------------------------------------------------------
# compositional recursions


def _decompose_direct_sum(cone, x_mat, tol):
    n1, n2 = cone.expr.params["sizes"]
    k1, k2 = cone.expr.children
    x_mat, current, _ = _span_member(cone, x_mat, tol)
    d1 = decompose(k1, current[:n1, :n1], tol)
    d2 = decompose(k2, current[n1:, n1:], tol)
    weights = [a.weight for a in d1.atoms] + [a.weight for a in d2.atoms]
    vectors = [np.concatenate([a.vector, np.zeros(n2)]) for a in d1.atoms]
    vectors += [np.concatenate([np.zeros(n1), a.vector]) for a in d2.atoms]
    return _as_decomposition(weights, vectors, x_mat)


def decompose_full_extension(cone: SpectrahedralCone, x_mat: np.ndarray,
                             tol: float = DEFAULT_TOL) -> Decomposition:
    """Decompose along a full extension: child block, coupled strip, tail.

    The head is decided at the scale of F_1, the head rows of the factor
    X = F F^T over the eigenpairs above tol lambda_max(X), not at the scale
    of the head block F_1 F_1^T, which squares it.  F_1 = X_1 V L^-1/2 is
    read off the head rows X_1 of the gate's projection, so it keeps their
    relative accuracy on a small head.  The head is zero when F_1 F_1^T is
    within ten roundings of X (|F_1|^2 <= 10 eps |X|); otherwise the child
    decomposes F_1 F_1^T / |F_1|^2, at its own scale, and its atoms are
    scaled back by |F_1|.  The off-diagonal strip is matched by a
    least-squares lift of the child atoms; what the lift leaves in the
    trailing block is the PSD Schur complement, whose eigenvectors above
    the cut of X are the tail atoms.  For a member the strip lies in the
    range of the head, so the lift matches it; a non-member raises
    InvalidInputError at the gate, and a head block that the child's gate
    rejects raises NumericalError.
    """
    if cone.expr is None or cone.expr.kind != "full_ext":
        raise InvalidInputError("cone was not built by full_extension")
    x_mat, current, dec = _span_member(cone, x_mat, tol)
    child = cone.expr.children[0]
    n1 = child.n
    keep = dec.values > tol * max(float(dec.values[0]), 0.0)
    head = current[:n1] @ (dec.vectors[:, keep] / np.sqrt(dec.values[keep]))
    scale = float(np.linalg.norm(head))
    v_cols = np.zeros((n1, 0))
    if scale * scale > 10 * np.finfo(float).eps * np.linalg.norm(current):
        try:
            child_dec = decompose(child, head @ head.T / (scale * scale), tol)
        except OracleUnavailableError:
            raise
        except InvalidInputError as exc:
            raise NumericalError(f"head block landed outside the child cone: {exc}") from exc
        v_cols = scale * np.array([a.vector * np.sqrt(a.weight)
                                   for a in child_dec.atoms]).reshape(-1, n1).T
    w_cols = (np.linalg.pinv(v_cols) @ current[:n1, n1:]).T
    tail = _factor(symlin.eig_sym(current[n1:, n1:] - w_cols @ w_cols.T),
                   symlin.cut(dec.values, tol))
    vectors = [np.concatenate([v, w]) for v, w in zip(v_cols.T, w_cols.T)]
    vectors += [np.concatenate([np.zeros(n1), z]) for z in tail.T]
    return _as_decomposition(np.ones(len(vectors)), vectors, x_mat)


def decompose_intertwining(cone: SpectrahedralCone, x_mat: np.ndarray,
                           tol: float = DEFAULT_TOL) -> Decomposition:
    """Split along the glued face, then recurse into both children.

    The three-block Schur split (``symlin.schur_shares``) writes the
    gate's projection as a sum of two matrices living on the child faces;
    each child decomposes its share and the atoms are lifted back.  The
    projection onto the glued span has a zero corner and has passed the
    gate's PSD test, so the split checks neither again, and each share
    meets its child's gate, whose bound is the stricter one; a share that
    gate rejects raises NumericalError.  Atom counts add up to rank(X)
    because the split matches the rank split of X across the overlap.  A
    share at or below the cut of X's eigenvalues is rounding of the split
    and is skipped.
    """
    if cone.expr is None or cone.expr.kind != "intertwine":
        raise InvalidInputError("cone was not built by intertwine")
    aux = cone.expr.aux
    a, k, _ = aux["blocks"]
    x_mat, current, dec = _span_member(cone, x_mat, tol)
    c1m, c2m = symlin.schur_shares(current, aux["blocks"], max(tol, 1e-9))
    x1_block = current[:a + k, :a + k].copy()
    x1_block[a:, a:] = c1m
    x2_block = current[a:, a:].copy()
    x2_block[:k, :k] = c2m
    shares = ((symlin.sym(aux["c1"] @ x1_block @ aux["c1"].T), aux["f1"]),
              (symlin.sym(aux["c2"] @ x2_block @ aux["c2"].T), aux["f2"]))
    vectors: list[np.ndarray] = []
    weights: list[float] = []
    floor = symlin.cut(dec.values, tol)
    for child, (m, f) in zip(cone.expr.children, shares):
        if np.linalg.norm(m) <= floor:
            continue
        try:
            sub = decompose(child, m, tol)
        except OracleUnavailableError:
            raise
        except InvalidInputError as exc:
            raise NumericalError(f"split landed outside a child cone: {exc}") from exc
        for atom in sub.atoms:
            vectors.append(f @ atom.vector)
            weights.append(atom.weight)
    return _as_decomposition(weights, vectors, x_mat)


# ---------------------------------------------------------------------------
# block-Hankel nodes (Prony / shift invariance)


def _snap_moment_vector(v, n, m, t):
    blocks = v.reshape(n, m)
    powers = t ** np.arange(n)
    x = powers @ blocks / (powers @ powers)
    return np.outer(powers, x).ravel()


def _hankel_candidates(u, n, m):
    """Candidate atom directions for the Hankel face col(u): the moment
    vectors of the finite nodes, then the directions at the node at
    infinity.  The node solve of a member passes the factor of X as u."""
    r = u.shape[1]
    if r == 0:
        return []
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
            finite.append(snapped / np.linalg.norm(snapped))
    return finite + inf_dirs


def decompose_hankel(cone: SpectrahedralCone, x_mat: np.ndarray,
                     tol: float = DEFAULT_TOL) -> Decomposition:
    """Node recovery for a member of a block-Hankel cone, at every rank.

    Factor X = F F^T over the eigenpairs above the cut (:func:`_factor`).
    Any decomposition X = A A^T, the columns of A the weighted atoms, has
    F = A R for an orthogonal R, so in F's coordinates the coefficient
    vectors of the finite nodes are orthogonal to ker F_up, F_up the
    factor without its last block row, whose image under F carries the
    node at infinity.  The shift pencil (F_up, F_dn) restricted to the
    complement of that kernel is then exact, and its eigenvalues are the
    finite nodes (the flat-extension argument of Curto and Fialkow, Mem.
    Amer. Math. Soc. 1996).  At full rank the same kernel split sheds the
    Schur complement of the last block as atoms at infinity.  Atom weights
    are then solved by least squares.  A node solve that misses (a weight
    below zero, a residual, or a direction count other than the rank)
    raises NumericalError.  A cone of another kind, or a non-member,
    raises InvalidInputError.
    """
    if cone.expr is None or cone.expr.kind != "hankel":
        raise InvalidInputError("cone was not built by hankel_cone")
    n, m = _block_size(cone)
    x_mat, _, dec = _span_member(cone, x_mat, tol)
    cols = _factor(dec, symlin.cut(dec.values, tol))
    rank = cols.shape[1]
    if rank == 0:
        return Decomposition(atoms=[], residual=float(np.linalg.norm(x_mat)))
    dirs = _hankel_candidates(cols, n, m)
    result = _solve_weights(dirs, x_mat) if len(dirs) == rank else None
    if result is None:
        raise NumericalError(
            f"Hankel node solve missed: {len(dirs)} directions for rank {rank}")
    return result


def _solve_weights(dirs, x_mat):
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


def decompose_block_toeplitz(cone: SpectrahedralCone, t_mat: np.ndarray,
                             tol: float = DEFAULT_TOL) -> Decomposition:
    """Split a member of a block-Toeplitz cone into phase atoms.

    Factor T = W W^*, solve the block shift W_lower = W_upper U for a
    unitary U (least squares followed by the polar projection), and
    diagonalize U in a unitary eigenbasis; in the rotated factor every column has the geometric
    structure (v, v q, ..., v q^{n-1}) with |q| = 1.  A cone of another
    kind, or a non-member, raises InvalidInputError.
    """
    if cone.expr is None or cone.expr.kind != "block_toeplitz":
        raise InvalidInputError("cone was not built by block_toeplitz_cone")
    n, m = _block_size(cone)
    t_mat, _, dec = _span_member(cone, t_mat, tol)
    w_full = _factor(dec, symlin.cut(dec.values, tol))
    if w_full.shape[1] == 0:
        return Decomposition(atoms=[], residual=float(np.linalg.norm(t_mat)))
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
    w_rot = w_full @ symlin.unitary_eigenbasis(u)
    return _as_decomposition(np.ones(w_rot.shape[1]), list(w_rot.T), t_mat)


# ---------------------------------------------------------------------------
# random extreme rays (test support)


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
    u_dirs, v_dirs, ker = symlin.inertia_split(cone.expr.params["Q"])
    s = rng.standard_normal(u_dirs.shape[1])
    r = rng.standard_normal(v_dirs.shape[1])
    x = u_dirs @ (s / np.linalg.norm(s)) + v_dirs @ (r / np.linalg.norm(r))
    if ker.shape[1] and rng.random() < 0.5:
        x = x + ker @ rng.standard_normal(ker.shape[1])
    return x


def _cross_ratio_sample(cone, rng):
    planes = cone.expr.aux["planes"]
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
    k = cone.n - child.n
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


def _block_size(cone):
    return cone.expr.params["n"], cone.expr.params.get("m", 1)


def _place(n, lo, x):
    """x padded with zeros to length n, starting at index lo."""
    out = np.zeros(n, dtype=x.dtype)
    out[lo:lo + len(x)] = x
    return out


# A wrapper cone holds one child in other coordinates: X = G X_child G^*
# and x = G x_child, with F = G^{-1} (or the pull-back B for a reduction)
# carrying matrices and faces into the child.


def _congruence_coords(cone):
    a = cone.expr.params["matrix"]
    return np.linalg.inv(a), a


def _reduce_coords(cone):
    b = cone.expr.params["embedding"]
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


def _wrapped_rays(coords, cone, h, tol):
    fwd, back = coords(cone)
    yield from _child_rays(cone.expr.children[0], _face_into(fwd, h), tol, back.__matmul__)


def _wrapped_sample(coords, cone, rng):
    return coords(cone)[1] @ random_extreme_ray(cone.expr.children[0], rng)


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """What the engines know about one cone kind.

    ``sample(cone, rng)`` draws a point of the rank-1 variety.
    ``rays(cone, h, tol)`` is the kind's one rank-1 rule, a function of
    the face col(h) alone: it yields candidate vectors x in col(h) with
    x x^T in the span, the best one for a peel first;
    :func:`extreme_ray_oracle` takes the candidate of its attempt and
    :func:`rays_spanning_face` lists them all.  The chordal and composite
    kinds have none, so :func:`carath_decompose` called on them raises
    OracleUnavailableError.  ``route(cone, x_mat, tol)`` is a direct
    decomposition: the closed form for ``cross_ratio``, zero-fill
    elimination for ``chordal``, ``tridiag`` and ``diagonal``, the node
    solve for ``hankel``, the spectral factorization for
    ``block_toeplitz``, and the recursions of the composite and wrapper
    kinds (``full_psd`` and ``codim1`` need none: :func:`decompose` takes
    the closed form of their codimension first).  Without a route
    (``ternary_quartic``, ``moment``), :func:`decompose` hands X to the
    peel, which raises OracleUnavailableError for want of a rule.  Every
    route, the peel included, gates X with :func:`_span_member` and
    reuses its eigendecomposition; a direct route cuts ranks at the scale
    of X.  A wrapper route hands F X F^* to its child, and a composite
    route each child its share of the gate's projection; the child's
    route gates it.  Rules call the public engines by their module names,
    never through captured function objects, so a patched module
    attribute sees every call.
    """

    sample: Callable
    rays: Callable | None = None
    route: Callable | None = None


def _wrapper(coords) -> Family:
    return Family(sample=partial(_wrapped_sample, coords),
                  rays=partial(_wrapped_rays, coords),
                  route=partial(_decompose_wrapped, coords))


_CHORDAL = Family(sample=_chordal_sample, route=_decompose_chordal)

_FAMILIES = {
    "full_psd": Family(sample=lambda cone, rng: rng.standard_normal(cone.n),
                       rays=_full_psd_rays),
    "diagonal": Family(sample=lambda cone, rng: np.eye(cone.n)[rng.integers(cone.n)],
                       rays=_diagonal_rays, route=_decompose_chordal),
    "hankel": Family(
        sample=_hankel_sample, rays=_hankel_rays,
        route=lambda cone, x, tol: decompose_hankel(cone, x, tol)),
    "codim1": Family(sample=_codim1_sample, rays=_codim1_rays),
    "cross_ratio": Family(sample=_cross_ratio_sample, rays=_cross_ratio_rays,
                          route=_decompose_cross_ratio),
    "ternary_quartic": Family(
        sample=lambda cone, rng: constructions._quadric_vector(rng.standard_normal(3))),
    "moment": Family(
        sample=lambda cone, rng: cone.generators[rng.integers(len(cone.generators))]),
    "block_toeplitz": Family(
        sample=_block_toeplitz_sample,
        route=lambda cone, x, tol: decompose_block_toeplitz(cone, x, tol)),
    "direct_sum": Family(sample=_direct_sum_sample, rays=_direct_sum_rays,
                         route=_decompose_direct_sum),
    "full_ext": Family(
        sample=_full_ext_sample,
        route=lambda cone, x, tol: decompose_full_extension(cone, x, tol)),
    "intertwine": Family(
        sample=_intertwine_sample,
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
