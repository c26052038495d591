"""Rank-1 matrix completion and congruence reconstruction.

Linearly isomorphic ROG cones are congruent, and the congruence can be
recovered from matched generator lists: solved into the coordinates of a
basis drawn from each list, the two coordinate matrices have a rank-1
ratio matrix e f^T, and S = Y_b diag(e) X_b^-1 maps x_j to y_j / f_j.
``cones_isomorphic`` finds the matching by a deterministic depth-first
search over generator assignments, in the spirit of VF2, pruned by the
graph of generator pairs spanning rank-2 faces and by the coordinates of
each generator on the independent ones matched before it.  Cones of
codimension <= 1 need no matching: Sylvester's law of inertia gives their
congruence in closed form.  The module also holds the completion solvers
and the projective cross-ratio invariant of the gluing family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import symlin
from .cone_model import (SpectrahedralCone, codim1_form, codimension,
                         inertia_normal_form, rank2_pairs, reduce_nondegenerate)
from .errors import InvalidInputError

_ENTRY_TOL = 1e-9
# a unit generator within this distance of a span of generators lies in it
_IN_SPAN = 1e-8
# the matching search visits at most this many partial assignments
_SEARCH_NODES = 50_000


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
    """Invertible S with S L_1 S^T = L_2, the spans of the two cones.

    A witness read off a generator matching also has y_i = sigma_i S x_i
    / |S x_i| over the matched unit generators, one sign per generator.
    A structural witness (codimension <= 1, cross-ratio cones) matches no
    generators, and its ``sigma`` is empty.
    """

    s_matrix: np.ndarray
    sigma: np.ndarray


@dataclass
class IsoOutcome:
    """The verdict, and a witness when "isomorphic".  "not_isomorphic"
    rests on an invariant (degree, dimension, codimension-1 signature,
    cross-ratio orbit); "inconclusive" means no witness was found and no
    invariant tells the cones apart, and its reason says whether the
    matching search was exhausted, stopped at its cap or could not start."""

    status: str  # "isomorphic" | "not_isomorphic" | "inconclusive"
    witness: Optional[IsoWitness] = None
    reason: Optional[str] = None


def _greedy_basis(cols: np.ndarray) -> list[int]:
    """Indices of a well-conditioned maximal independent column subset:
    each pick is the first column of largest residual against the picks
    before it, and only residuals above 1e-9 are picked."""
    rows = np.ascontiguousarray(cols.T)
    chosen: list[int] = []
    basis = np.zeros((0, cols.shape[0]))  # orthonormal rows
    for _ in range(cols.shape[0]):
        # the residual of every column against the picks so far, in one product
        r = rows - (rows @ basis.T) @ basis
        res = np.sqrt(np.vecdot(r, r))
        res[chosen] = 0.0
        best = int(np.argmax(res))
        if res[best] <= 1e-9:
            break
        chosen.append(best)
        basis = np.vstack([basis, r[best] / res[best]])
    return chosen


# ---------------------------------------------------------------------------
# cone-level isomorphism


def _span_maps_onto(s_mat, span1, span2) -> bool:
    """True iff S L_k S^T lies in span2 for every basis matrix L_k of
    span1: the whole stack of images is tested in one kernel call."""
    return symlin.span_contains(span2, s_mat @ span1 @ s_mat.T, 1e-6)


def cones_isomorphic(k1: SpectrahedralCone, k2: SpectrahedralCone) -> IsoOutcome:
    """Decide isomorphism of two certified cones, producing a witness.

    Degrees and dimensions of the reduced cones come first, then the
    codimension.  Real cones of codimension 0 are both the PSD cone
    (S = I); real cones of codimension 1 are isomorphic exactly when the
    signatures of their forms agree, and then Sylvester's law of inertia
    gives the congruence in closed form (:func:`_inertia_congruence`).
    Two cross-ratio cones compare their cross-ratio orbits.  Any other
    pair, or a closed-form S that fails its check, has its generators
    matched: the index-aligned assignment first, then a deterministic
    depth-first search (:func:`_search_matching`), each complete
    assignment going through the rank-1 completion of coordinate ratios
    against one basis of the first certificate.  A witness S is accepted
    only when it maps each span onto the other, and a matched one also
    when it sends every generator to its match up to sign.  A search
    that is exhausted or reaches its cap of ``_SEARCH_NODES`` nodes
    returns "inconclusive" with a reason saying which, never
    "not_isomorphic".  The result depends on the two cones alone.
    """
    k1r, _ = reduce_nondegenerate(k1)
    k2r, _ = reduce_nondegenerate(k2)
    if k1r.n != k2r.n:
        return IsoOutcome("not_isomorphic", reason="degrees differ")
    if k1r.dim != k2r.dim:
        return IsoOutcome("not_isomorphic", reason="dimensions differ")
    codim = codimension(k1r)
    if codim is not None and codim <= 1 and codimension(k2r) == codim:
        out = _inertia_congruence(k1r, k2r)
        if out is not None:
            return out
    kinds = tuple(c.expr.kind if c.expr else None for c in (k1, k2))
    if kinds == ("cross_ratio", "cross_ratio"):
        return _cross_ratio_isomorphic(k1, k2)
    return _match_and_reconstruct(k1r, k2r)


def _inertia_congruence(k1, k2) -> IsoOutcome | None:
    """The closed-form outcome for real cones of codimension <= 1.

    Codimension 0 takes S = I.  In codimension 1, S maps Q_1^perp onto
    Q_2^perp exactly when S^T Q_2 S is a multiple of Q_1, so forms of
    different signatures mean "not_isomorphic", and for one signature
    S = N_2^-T N_1^T = M_2 M_1^-1 from the normal forms Q'_i = N_i J N_i^T,
    M_i = N_i^-T (:func:`cone_model.inertia_normal_form`), is a witness.
    S and S^-1 are checked on the spans; None when either check fails.
    """
    if codimension(k1) == 0:
        s_mat = s_inv = np.eye(k1.n)
    else:
        (s1, m1), (s2, m2) = (inertia_normal_form(codim1_form(k)) for k in (k1, k2))
        if s1 != s2:
            return IsoOutcome(
                "not_isomorphic",
                reason=f"codimension-1 signatures differ: {s1} vs {s2}")
        s_mat = np.linalg.solve(m1.T, m2.T).T
        s_inv = np.linalg.solve(m2.T, m1.T).T
    if not (_span_maps_onto(s_mat, k1.span_basis, k2.span_basis)
            and _span_maps_onto(s_inv, k2.span_basis, k1.span_basis)):
        return None
    return IsoOutcome("isomorphic", witness=IsoWitness(s_matrix=s_mat, sigma=np.zeros(0)))


def _match_and_reconstruct(k1, k2):
    """A generator matching of k1 into k2 that :func:`_try_matching`
    verifies: the index-aligned assignment first, then the search."""
    if k1.complex_field or k2.complex_field:
        return IsoOutcome("inconclusive",
                          reason="generator matching is implemented over the reals")
    xs, ys = k1.generators, k2.generators
    basis_idx = _greedy_basis(xs.T)
    if len(basis_idx) < k1.n:
        return IsoOutcome("inconclusive", reason="first certificate does not span")
    if len(xs) == len(ys):
        out = _try_matching(k1, k2, list(range(len(ys))), basis_idx)
        if out is not None:
            return out
    if len(ys) < len(xs):
        return IsoOutcome("inconclusive", reason="second certificate has fewer generators")
    return _search_matching(k1, k2, basis_idx)


def _pair_graph(cone):
    """Adjacency and degrees of the graph i ~ j of :func:`cone_model.rank2_pairs`."""
    adj = np.zeros((len(cone.generators),) * 2, dtype=bool)
    i, j = rank2_pairs(cone)
    adj[i, j] = adj[j, i] = True
    return adj, adj.sum(axis=1)


def _visit_order(adj, deg):
    """Breadth-first order of a graph, each component from its vertex of
    highest degree and neighbours by decreasing degree (ties by index)."""
    by_degree = np.argsort(-deg, kind="stable")
    order = []
    for root in by_degree:
        if root not in order:
            order.append(root)
            for v in order:  # read while it grows: the list is the queue
                order += [w for w in by_degree if adj[v, w] and w not in order]
    return order


def _span_coords(basis, vecs):
    """Coordinates of the rows of vecs on the columns of basis, padded to
    length n, their zero patterns, and whether each row lies in the span:
    every row does once the basis has n columns, however ill-conditioned
    (a residual read against it would grow the basis past n)."""
    c = np.linalg.lstsq(basis, vecs.T)[0].T
    coef = np.zeros(vecs.shape)
    coef[:, :basis.shape[1]] = c
    pats = np.abs(coef) > np.array([symlin.cut(r, 1e-6) for r in coef])[:, None]
    inside = np.linalg.norm(vecs - c @ basis.T, axis=1) <= _IN_SPAN
    return coef, pats, inside | (basis.shape[1] == vecs.shape[1])


def _search_matching(k1, k2, basis_idx):
    """Depth-first search over injective assignments x_i -> y_j.

    The x_i are visited in breadth-first order of the pair graph.  A
    candidate y_j is dropped when its degree differs from that of x_i (is
    smaller, when k2 has more generators), when its adjacency to the
    matched generators differs, when exactly one of x_i and y_j lies in the span of the
    independent generators matched so far, or when its coefficients on
    that span differ in support from those of x_i or fail
    :func:`_ratio_consistent`.  Every complete assignment goes to
    :func:`_try_matching`; at most ``_SEARCH_NODES`` partial assignments
    are visited.
    """
    xs, ys = k1.generators, k2.generators
    (adj_x, deg_x), (adj_y, deg_y) = _pair_graph(k1), _pair_graph(k2)
    order = _visit_order(adj_x, deg_x)
    deg_ok = deg_y >= deg_x[:, None] if len(ys) > len(xs) else deg_y == deg_x[:, None]
    # the x side of each depth depends on the order alone
    steps, basis_x = [], xs[:0].T
    for i in order:
        coef, pats, inside = _span_coords(basis_x, xs[i][None])
        steps.append((i, coef[0], pats[0], inside[0]))
        if not inside[0]:
            basis_x = np.column_stack([basis_x, xs[i]])
    perm, used, count = [-1] * len(xs), np.zeros(len(ys), dtype=bool), [0, 0]

    def visit(depth, basis_y, matched):
        if depth == len(steps):
            count[1] += 1
            return _try_matching(k1, k2, perm, basis_idx)
        i, col_x, pat, dependent = steps[depth]
        done = order[:depth]
        cand = np.flatnonzero(~used & deg_ok[i] & (
            adj_y[:, [perm[v] for v in done]] == adj_x[i, done]).all(axis=1))
        coef, pats, inside = _span_coords(basis_y, ys[cand])
        keep = inside == dependent
        if dependent:
            keep &= (pats == pat).all(axis=1)
            keep[keep] = _ratio_consistent(col_x, coef[keep], pat, matched)
        for j, col_y in zip(cand[keep], coef[keep]):
            if count[0] == _SEARCH_NODES:
                return None
            count[0] += 1
            perm[i], used[j] = j, True
            out = (visit(depth + 1, basis_y, matched + [(col_x, col_y, pat)]) if dependent
                   else visit(depth + 1, np.column_stack([basis_y, ys[j]]), matched))
            used[j] = False
            if out is not None:
                return out
        return None

    out = visit(0, ys[:0].T, [])
    if out is None:
        why = "stopped at its cap of" if count[0] == _SEARCH_NODES else "exhausted after"
        out = IsoOutcome("inconclusive",
                         reason=f"matching search {why} {count[0]} nodes; none of its "
                                f"{count[1]} complete assignments gave a witness")
    return out


def _ratio_consistent(col_x, cols_y, pat, matched):
    """For each row of cols_y, of zero pattern pat like col_x: whether its
    ratios to col_x and those of each matched (x, y, pattern) differ by
    one common factor where the two patterns share two or more entries."""
    ok = np.ones(len(cols_y), dtype=bool)
    for ox, oy, opat in matched:
        shared = pat & opat
        if shared.sum() >= 2:
            r = (cols_y[:, shared] / col_x[shared]) / (oy[shared] / ox[shared])
            ok &= (np.abs(r - r[:, :1]) <= 1e-6 * (1.0 + np.abs(r[:, :1]))).all(axis=1)
    return ok


def _try_matching(k1, k2, perm, basis_idx):
    """A witness from the generator assignment x_i -> y_perm[i], or None.

    Both generator lists are solved into the coordinates of their basis
    generators ``basis_idx`` (independent in k1).  Matched generators need
    equal zero patterns, and the ratio matrix of the coordinates must be
    rank 1, e f^T; then S = Y_b diag(e) X_b^-1 has y_j = f_j S x_j.  S must
    map each span onto the other and send every unit generator to its
    match up to sign.
    """
    xs = k1.generators.T
    ys = k2.generators[np.array(perm)].T
    xb, yb = xs[:, basis_idx], ys[:, basis_idx]
    if not symlin.invertible(yb):
        return None
    m_x = np.linalg.solve(xb, xs)
    m_y = np.linalg.solve(yb, ys)
    pattern = np.abs(m_x) > symlin.cut(m_x, 1e-6)
    if np.any(np.abs(m_y[~pattern]) > symlin.cut(m_y, 1e-5)):
        return None
    ratios = np.where(pattern, m_y / np.where(pattern, m_x, 1.0), 0.0)
    comp = rank1_complete(PartialMatrix.from_dense(ratios, pattern), tol=1e-6)
    if not comp.feasible or np.any(np.abs(comp.e) < 1e-10):
        return None
    s_mat = yb @ np.diag(comp.e) @ np.linalg.inv(xb)
    if not _span_maps_onto(s_mat, k1.span_basis, k2.span_basis):
        return None
    if not _span_maps_onto(np.linalg.inv(s_mat), k2.span_basis, k1.span_basis):
        return None
    img = s_mat @ xs
    img = img / np.linalg.norm(img, axis=0)
    sigma = np.where(np.sum(img * ys, axis=0) < 0, -1.0, 1.0)
    if np.any(np.linalg.norm(sigma * img - ys, axis=0) > 1e-6):
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


def same_s4_orbit(lam1: float, lam2: float) -> bool:
    """True iff lam2 is within 1e-9 (1 + |lam2|) of the orbit of lam1."""
    return any(abs(v - lam2) <= 1e-9 * (1.0 + abs(lam2)) for v in s4_orbit(lam1))


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
            return IsoOutcome("isomorphic",
                              witness=IsoWitness(s_matrix=a_mat, sigma=np.zeros(0)))
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
