"""Rank-1 matrix completion and congruence reconstruction.

Linearly isomorphic ROG cones are congruent, and the congruence can be
recovered from matched generator lists: solved into the coordinates of a
basis drawn from each list, the two coordinate matrices have a rank-1
ratio matrix e f^T, and S = Y_b diag(e) X_b^-1 maps x_j to y_j / f_j.
One private core does this for both entry points: ``reconstruct_isomorphism``
(given matched lists) and ``cones_isomorphic`` (which searches for the
matching).  The module also holds the completion solvers and the
projective cross-ratio invariant of the gluing family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import symlin
from .cone_model import SpectrahedralCone, reduce_nondegenerate
from .errors import InvalidInputError
from .symlin import DEFAULT_TOL

_ENTRY_TOL = 1e-9


@dataclass
class PartialMatrix:
    """Partially specified n x m matrix: a pattern of (i, j) -> value."""

    n_rows: int
    n_cols: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), v in self.entries.items():
            if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
                raise InvalidInputError(f"entry ({i}, {j}) out of bounds")
            v = float(v)
            if not np.isfinite(v):
                raise InvalidInputError("entries must be finite")
            clean[(int(i), int(j))] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, a: np.ndarray, mask: np.ndarray) -> "PartialMatrix":
        a = np.asarray(a, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        entries = {(i, j): a[i, j] for i in range(a.shape[0])
                   for j in range(a.shape[1]) if mask[i, j]}
        return cls(a.shape[0], a.shape[1], entries)


@dataclass
class Rank1Completion:
    feasible: bool
    e: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    violation: Optional[str] = None
    cycle: Optional[list] = None  # row/col alternating vertex list

    def matrix(self) -> np.ndarray:
        if not self.feasible:
            raise InvalidInputError("infeasible completion has no matrix")
        return np.outer(self.e, self.f)


def rank1_complete(a: PartialMatrix, tol: float = _ENTRY_TOL) -> Rank1Completion:
    """Complete to e f^T, or report the violated feasibility condition.

    A zero entry forces its whole specified row or column to zero; every
    cycle of the bipartite entry graph must have consistent products.
    Unspecified entries are filled with the propagated products, so the
    output is deterministic.
    """
    n, m = a.n_rows, a.n_cols
    scale = max([1.0] + [abs(v) for v in a.entries.values()])
    zero_cut = 1e-12 * scale
    nonzero = {k: v for k, v in a.entries.items() if abs(v) > zero_cut}
    zeros = [k for k, v in a.entries.items() if abs(v) <= zero_cut]

    e = [None] * n
    f = [None] * m
    parent: dict = {}

    # BFS over the graph of nonzero entries; rows are ('r', i), cols ('c', j)
    adj_r = {}
    adj_c = {}
    for (i, j), v in nonzero.items():
        adj_r.setdefault(i, []).append(j)
        adj_c.setdefault(j, []).append(i)
    for root in sorted(adj_r):
        if e[root] is not None:
            continue
        e[root] = 1.0
        parent[("r", root)] = None
        queue = [("r", root)]
        while queue:
            side, idx = queue.pop(0)
            if side == "r":
                for j in sorted(adj_r.get(idx, [])):
                    v = nonzero[(idx, j)]
                    if f[j] is None:
                        f[j] = v / e[idx]
                        parent[("c", j)] = ("r", idx)
                        queue.append(("c", j))
                    elif abs(e[idx] * f[j] - v) > tol * scale:
                        return Rank1Completion(
                            feasible=False, violation="cycle",
                            cycle=_tree_cycle(parent, ("r", idx), ("c", j)))
            else:
                for i in sorted(adj_c.get(idx, [])):
                    v = nonzero[(i, idx)]
                    if e[i] is None:
                        e[i] = v / f[idx]
                        parent[("r", i)] = ("c", idx)
                        queue.append(("r", i))
                    elif abs(e[i] * f[idx] - v) > tol * scale:
                        return Rank1Completion(
                            feasible=False, violation="cycle",
                            cycle=_tree_cycle(parent, ("c", idx), ("r", i)))

    # zero entries: e_i f_j = 0, so one side must vanish
    pending = list(zeros)
    while pending:
        progress = False
        deferred = []
        for (i, j) in pending:
            ei, fj = e[i], f[j]
            if ei is not None and abs(ei) > zero_cut and fj is not None and abs(fj) > zero_cut:
                return Rank1Completion(
                    feasible=False,
                    violation=f"zero entry ({i}, {j}) in a nonzero row and column")
            if ei is not None and abs(ei) > zero_cut and fj is None:
                f[j] = 0.0
                progress = True
            elif fj is not None and abs(fj) > zero_cut and ei is None:
                e[i] = 0.0
                progress = True
            elif ei is None and fj is None:
                deferred.append((i, j))
            # else one side already zero: satisfied
        if not progress and deferred:
            i, j = deferred[0]
            e[i] = 0.0
            progress = True
            deferred = deferred[1:]
        pending = deferred
        if not pending:
            break
        if not progress:
            break

    e = np.array([1.0 if v is None else v for v in e])
    f = np.array([1.0 if v is None else v for v in f])
    for (i, j), v in a.entries.items():
        if abs(e[i] * f[j] - v) > tol * scale:
            return Rank1Completion(feasible=False,
                                   violation=f"entry ({i}, {j}) unmatched")
    return Rank1Completion(feasible=True, e=e, f=f)


def _tree_cycle(parent, node_a, node_b):
    """Vertex list of the cycle closed by the non-tree edge (a, b)."""
    path_a = []
    cur = node_a
    while cur is not None:
        path_a.append(cur)
        cur = parent.get(cur)
    seen = {v: k for k, v in enumerate(path_a)}
    path_b = []
    cur = node_b
    while cur not in seen:
        path_b.append(cur)
        cur = parent.get(cur)
        if cur is None:
            break
    if cur in seen:
        return path_a[:seen[cur] + 1][::-1] + path_b[::-1]
    return path_a[::-1] + path_b[::-1]


def rank1_complete_signs(a: PartialMatrix) -> Rank1Completion:
    """Sign-vector completion for a partial matrix with entries in {-1, +1}."""
    for v in a.entries.values():
        if abs(abs(v) - 1.0) > 1e-9:
            raise InvalidInputError("entries must be +-1")
    out = rank1_complete(a)
    if not out.feasible:
        return out
    return Rank1Completion(feasible=True, e=np.sign(out.e + 0.5 * (out.e == 0)),
                           f=np.sign(out.f + 0.5 * (out.f == 0)))


# ---------------------------------------------------------------------------
# congruence reconstruction from matched generators


@dataclass
class IsoWitness:
    """Invertible S with y_i = sigma_i S x_i over the matched generators."""

    s_matrix: np.ndarray
    sigma: np.ndarray


@dataclass
class IsoOutcome:
    status: str  # "isomorphic" | "not_isomorphic" | "incompatible" | "inconclusive"
    witness: Optional[IsoWitness] = None
    reason: Optional[str] = None


def _greedy_basis(cols: np.ndarray, tol: float = 1e-9) -> list[int]:
    """Indices of a well-conditioned maximal independent column subset."""
    n = cols.shape[0]
    chosen: list[int] = []
    basis = np.zeros((n, 0))
    for _ in range(n):
        best, best_res = None, tol
        for j in range(cols.shape[1]):
            if j in chosen:
                continue
            if basis.shape[1]:
                r = cols[:, j] - basis @ (basis.T @ cols[:, j])
            else:
                r = cols[:, j]
            res = np.linalg.norm(r)
            if res > best_res:
                best, best_res = j, res
        if best is None:
            break
        chosen.append(best)
        new = cols[:, best]
        if basis.shape[1]:
            new = new - basis @ (basis.T @ new)
        basis = np.hstack([basis, (new / np.linalg.norm(new))[:, None]])
    return chosen


def _reconstruct_core(xs: np.ndarray, ys: np.ndarray, basis_idx: list[int]):
    """(S, f) with y_j = f_j S x_j over the matched columns, or a reason.

    Both n x m column arrays are solved into the coordinates of their
    basis columns ``basis_idx`` (independent in xs).  Matched columns need
    equal zero patterns, and the ratio matrix of the coordinates must be
    rank 1, e f^T; then S = Y_b diag(e) X_b^-1.
    """
    xb, yb = xs[:, basis_idx], ys[:, basis_idx]
    if abs(np.linalg.det(yb)) < 1e-12:
        return "matched basis is singular"
    m_x = np.linalg.solve(xb, xs)
    m_y = np.linalg.solve(yb, ys)
    pattern = np.abs(m_x) > symlin.cut(m_x, 1e-6)
    if np.any(np.abs(m_y[~pattern]) > symlin.cut(m_y, 1e-5)):
        return "zero patterns differ"
    ratios = np.where(pattern, m_y / np.where(pattern, m_x, 1.0), 0.0)
    comp = rank1_complete(PartialMatrix.from_dense(ratios, pattern), tol=1e-6)
    if not comp.feasible:
        return f"ratio completion failed: {comp.violation}"
    if np.any(np.abs(comp.e) < 1e-10):
        return "singular coefficient matrix"
    return yb @ np.diag(comp.e) @ np.linalg.inv(xb), comp.f


def reconstruct_isomorphism(x_gens, y_gens, tol: float = 1e-7) -> IsoOutcome:
    """Recover S with y_i = +-S x_i from index-matched generator lists.

    The first list must span and both must have the same length.  Both
    are solved against a basis of the first, and the rank-1 completion
    of their coordinate ratios gives S with y_i = f_i S x_i.  S is scaled
    by the median |f_i|, and every generator must then satisfy
    y_i = +-S x_i within tol; this also enforces determinant
    compatibility (|det| of matched n-column subsets agree up to one
    common factor).
    """
    xs = np.array([np.asarray(v, dtype=float) for v in x_gens]).T
    ys = np.array([np.asarray(v, dtype=float) for v in y_gens]).T
    if xs.shape != ys.shape:
        raise InvalidInputError("generator lists must have equal shape")
    n, mm = xs.shape
    if mm < n:
        raise InvalidInputError("need at least n generators")
    basis_idx = _greedy_basis(xs)
    if len(basis_idx) < n:
        raise InvalidInputError("first list does not span")
    out = _reconstruct_core(xs, ys, basis_idx)
    if isinstance(out, str):
        return IsoOutcome("incompatible", reason=out)
    s_mat, f = out
    s_mat = s_mat * float(np.median(np.abs(f)))
    sigma = np.where(f < 0, -1.0, 1.0)
    err = np.linalg.norm(ys - sigma * (s_mat @ xs), axis=0)
    bad = np.flatnonzero(err > tol * (1.0 + np.linalg.norm(ys, axis=0)))
    if bad.size:
        return IsoOutcome("incompatible", reason=f"generator {bad[0]} not reproduced")
    return IsoOutcome("isomorphic", witness=IsoWitness(s_matrix=s_mat, sigma=sigma))


# ---------------------------------------------------------------------------
# cone-level isomorphism


def _span_maps_onto(s_mat, span1, span2, tol=1e-6) -> bool:
    for mat in span1:
        img = s_mat @ mat @ s_mat.T
        if symlin.span_distance(span2, img) > tol * (1.0 + np.linalg.norm(img)):
            return False
    return True


def _signature(q: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[int, int, int]:
    pos, neg, zero = (d.shape[1] for d in symlin.inertia_split(q, tol))
    if (pos, neg) < (neg, pos):
        pos, neg = neg, pos
    return pos, neg, zero


def codim1_form(cone: SpectrahedralCone) -> np.ndarray:
    """The orthogonal-complement form of a codimension-1 cone.

    The kernel is taken in the coordinates of ``symlin.sym_basis(n)``,
    where it is one-dimensional; in the full n^2 space it would also hold
    the antisymmetric matrices.
    """
    n = cone.n
    if cone.dim != n * (n + 1) // 2 - 1:
        raise InvalidInputError("cone is not of codimension 1")
    basis = symlin.sym_basis(n)
    coords = np.tensordot(cone.span_basis, basis, axes=([1, 2], [1, 2]))
    q = symlin.span_from_coords(basis, symlin.nullspace(coords)[:, 0])
    return q / np.linalg.norm(q)


def cones_isomorphic(k1: SpectrahedralCone, k2: SpectrahedralCone,
                     seed: int = 0, max_tuples: int = 10_000,
                     tol: float = 1e-7) -> IsoOutcome:
    """Decide isomorphism of two certified cones, producing a witness.

    Quick invariant rejections (degree, dimension, codimension-1
    signatures, cross-ratio orbits) come first; otherwise generators are
    matched (index-aligned fast path, then a capped randomized search
    pruned by ratio consistency) against one basis of the first
    certificate, and each assignment goes through the rank-1 completion
    of coordinate ratios.  A witness S is accepted only when it maps each
    span onto the other and sends every generator to its match up to
    sign.  Exhausting the search after ``max_tuples`` assignments returns
    "inconclusive" with the count tried, never "not_isomorphic".
    """
    k1r, _ = reduce_nondegenerate(k1)
    k2r, _ = reduce_nondegenerate(k2)
    if k1r.n != k2r.n:
        return IsoOutcome("not_isomorphic", reason="degrees differ")
    if k1r.dim != k2r.dim:
        return IsoOutcome("not_isomorphic", reason="dimensions differ")
    n = k1r.n
    if k1r.dim == n * (n + 1) // 2 - 1:
        s1 = _signature(codim1_form(k1r))
        s2 = _signature(codim1_form(k2r))
        if s1 != s2:
            return IsoOutcome(
                "not_isomorphic",
                reason=f"codimension-1 signatures differ: {s1} vs {s2}")
    kinds = tuple(c.expr.kind if c.expr else None for c in (k1, k2))
    if kinds == ("cross_ratio", "cross_ratio"):
        return _cross_ratio_isomorphic(k1, k2)
    return _match_and_reconstruct(k1r, k2r, seed, max_tuples, tol)


def _match_and_reconstruct(k1, k2, seed, max_tuples, tol):
    xs = k1.generators
    ys = k2.generators
    basis_idx = _greedy_basis(xs.T)
    if len(basis_idx) < k1.n:
        return IsoOutcome("inconclusive", reason="first certificate does not span")
    rng = np.random.default_rng(seed)
    attempts = 0
    if len(xs) == len(ys):
        out = _try_matching(k1, k2, list(range(len(ys))), basis_idx, tol)
        if out is not None:
            return out
        attempts += 1
    # the first list in the coordinates of its basis columns, and the zero
    # pattern of each column, are the same for every attempt
    xb = xs[np.array(basis_idx)].T
    if len(ys) >= len(xs) and abs(np.linalg.det(xb)) >= 1e-10:
        m_x = np.linalg.solve(xb, xs.T)
        pats = np.array([np.abs(col) > symlin.cut(col, 1e-6) for col in m_x.T]).T
        while attempts < max_tuples:
            attempts += 1
            perm = _search_assignment(m_x, pats, ys, basis_idx, rng)
            if perm is None:
                continue
            out = _try_matching(k1, k2, perm, basis_idx, tol)
            if out is not None:
                return out
    # a search that cannot start counts as max_tuples failed assignments
    attempts = max(attempts, max_tuples)
    return IsoOutcome("inconclusive",
                      reason=f"matching search exhausted: {attempts} assignments "
                             "tried without a witness")


def _search_assignment(m_x, pats, ys, basis_idx, rng, ratio_tol=1e-6):
    """One randomized attempt at a full generator assignment; m_x is the
    first list in its basis coordinates and pats the columns' zero patterns."""
    mm, my = m_x.shape[1], len(ys)
    cand = rng.permutation(my)[:len(basis_idx)]
    yb = ys[cand].T
    if abs(np.linalg.det(yb)) < 1e-8:
        return None
    m_y = np.linalg.solve(yb, ys.T)
    perm = [-1] * mm
    for k, i in enumerate(basis_idx):
        perm[i] = int(cand[k])
    used = set(int(c) for c in cand)
    matched_cols = []
    for i in range(mm):
        if perm[i] >= 0:
            continue
        col = m_x[:, i]
        pat = pats[:, i]
        found = None
        for j in range(my):
            if j in used:
                continue
            coly = m_y[:, j]
            paty = np.abs(coly) > symlin.cut(coly, 1e-6)
            if not np.array_equal(pat, paty):
                continue
            if not _ratio_consistent(col, coly, matched_cols, ratio_tol):
                continue
            found = j
            break
        if found is None:
            return None
        perm[i] = found
        used.add(found)
        matched_cols.append((m_x[:, i], m_y[:, found]))
    return perm


def _ratio_consistent(col_x, col_y, matched_cols, tol):
    pat = np.abs(col_x) > 1e-8
    for ox, oy in matched_cols:
        shared = pat & (np.abs(ox) > 1e-8)
        if shared.sum() < 2:
            continue
        r = (col_y[shared] / col_x[shared]) / (oy[shared] / ox[shared])
        if np.abs(r - r[0]).max() > tol * (1.0 + np.abs(r[0])):
            return False
    return True


def _try_matching(k1, k2, perm, basis_idx, tol):
    """Attempt a witness from the given generator assignment, or None."""
    xs = k1.generators.T
    ys = k2.generators[np.array(perm)].T
    out = _reconstruct_core(xs, ys, basis_idx)
    if isinstance(out, str):
        return None
    s_mat = out[0]
    if not _span_maps_onto(s_mat, k1.span_basis, k2.span_basis):
        return None
    if not _span_maps_onto(np.linalg.inv(s_mat), k2.span_basis, k1.span_basis):
        return None
    # projective per-generator verification (certificate generators are unit)
    img = s_mat @ xs
    img = img / np.linalg.norm(img, axis=0)
    sigma = np.where(np.sum(img * ys, axis=0) < 0, -1.0, 1.0)
    if np.any(np.linalg.norm(sigma * img - ys, axis=0) > tol * 10):
        return None
    return IsoOutcome("isomorphic", witness=IsoWitness(s_matrix=s_mat, sigma=sigma))


# ---------------------------------------------------------------------------
# cross-ratio invariant


def _line_points(angles) -> np.ndarray:
    return np.array([[np.cos(p), np.sin(p)] for p in angles]).T  # 2 x 4


def cross_ratio(phi1: float, phi2: float, phi3: float, phi4: float) -> float:
    """Projective cross-ratio of four lines through the origin of R^2.

    Evaluated from 2 x 2 determinants of the direction vectors, which
    stays finite for vertical lines (no cotangents involved).
    """
    pts = _line_points([phi1, phi2, phi3, phi4])

    def det(i, j):
        return float(pts[0, i] * pts[1, j] - pts[0, j] * pts[1, i])

    for i in range(4):
        for j in range(i + 1, 4):
            if abs(det(i, j)) < 1e-12:
                raise InvalidInputError("cross-ratio undefined: coincident lines")
    return (det(0, 2) * det(1, 3)) / (det(1, 2) * det(0, 3))


def s4_orbit(lam: float) -> list[float]:
    """The six-element orbit of the cross-ratio under argument permutations."""
    vals = [lam, 1.0 - lam]
    with np.errstate(divide="ignore"):
        if lam != 0.0:
            vals += [1.0 / lam, (lam - 1.0) / lam]
        if lam != 1.0:
            vals += [1.0 / (1.0 - lam), lam / (lam - 1.0)]
    return vals


def same_s4_orbit(lam1: float, lam2: float, tol: float = 1e-9) -> bool:
    return any(abs(v - lam2) <= tol * (1.0 + abs(lam2)) for v in s4_orbit(lam1))


def _cross_ratio_isomorphic(k1, k2) -> IsoOutcome:
    """Constructive isomorphism test for two gluing-family cones."""
    a1 = k1.expr.params["angles"]
    a2 = k2.expr.params["angles"]
    lam1 = cross_ratio(*a1)
    lam2 = cross_ratio(*a2)
    if not same_s4_orbit(lam1, lam2):
        return IsoOutcome(
            "not_isomorphic",
            reason=f"cross-ratio orbits differ: {lam1:.6g} vs {lam2:.6g}")
    pts1 = _line_points(a1)
    pts2 = _line_points(a2)
    for perm in itertools.permutations(range(4)):
        h = _projective_map(pts1[:, :3], pts2[:, list(perm[:3])])
        if h is None:
            continue
        img = h @ pts1[:, 3]
        tgt = pts2[:, perm[3]]
        cr = img[0] * tgt[1] - img[1] * tgt[0]
        if abs(cr) > 1e-8 * (np.linalg.norm(img) * np.linalg.norm(tgt)):
            continue
        a_mat = np.zeros((6, 6))
        a_mat[:2, :2] = h
        for i in range(4):
            a_mat[2 + perm[i], 2 + i] = 1.0
        if _span_maps_onto(a_mat, k1.span_basis, k2.span_basis) and \
                _span_maps_onto(np.linalg.inv(a_mat), k2.span_basis, k1.span_basis):
            sigma = np.ones(len(k1.generators))
            return IsoOutcome("isomorphic",
                              witness=IsoWitness(s_matrix=a_mat, sigma=sigma))
    return IsoOutcome("inconclusive",
                      reason="orbit matches but no line permutation verified")


def _projective_map(src: np.ndarray, dst: np.ndarray) -> np.ndarray | None:
    """2x2 map sending three source lines to three target lines."""
    try:
        c = np.linalg.solve(src[:, :2], src[:, 2])
        d = np.linalg.solve(dst[:, :2], dst[:, 2])
    except np.linalg.LinAlgError:
        return None
    if abs(c[0]) < 1e-12 or abs(c[1]) < 1e-12 or abs(d[0]) < 1e-12 or abs(d[1]) < 1e-12:
        return None
    m_src = src[:, :2] * c
    m_dst = dst[:, :2] * d
    return m_dst @ np.linalg.inv(m_src)
