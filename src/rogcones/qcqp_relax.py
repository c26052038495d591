"""Quadratic programs with homogeneous constraints and their SDP relaxation.

``min x^T S x  s.t.  x^T A_i x = 0,  x^T B x = 1`` lifts to the semidefinite
program ``min <S, X>  s.t.  <B, X> = 1, <A_i, X> = 0, X >= 0`` over the
spectrahedral cone cut out by the A_i, normalized by B.  Its dual is
``max y  s.t.  Z = S - y B - sum_i w_i A_i >= 0``.

``solve_relaxation`` is a primal-dual interior-point method in this
standard form (infeasible start, HKM direction, Mehrotra predictor and
corrector; Helmberg-Rendl-Vanderbei-Wolkowicz 1996, Toh-Todd-Tutuncu
1999), except where the induced cone is rank-one generated by theorem
and B = L L^T is positive definite.  Two such structures are solved in
closed form, at a rank-1 X and with ``iterations`` 0:

* forms x_i x_j = 0 whose other pairs make a chordal graph (no form at
  all is the complete graph): the value is the least lambda_min(S_CC,
  B_CC) over the maximal cliques C, and Z is S - y B on the pattern,
  completed along a perfect elimination order;
* one indefinite form A: the value is max over w of lambda_min(S - w A,
  B) (the S-lemma), found by a safeguarded Newton search on w.

Every status the solver reports carries evidence it checked: ``optimal``
a PSD dual matrix Z recomputed from (y, w), or completed, and a measured
duality gap, ``infeasible`` and ``unbounded`` a ray.  ``certify_exactness``
reads a rank-1 optimum off one eigendecomposition of X*; a higher-rank
one it purifies to an extreme point of the optimal face first.  A cone
whose construction tree proves it rank-one generated makes the
relaxation exact, and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import symlin
from .cone_model import SpectrahedralCone, make_cone
from .errors import InvalidInputError
from .symlin import DEFAULT_TOL


@dataclass
class QcqpProblem:
    cost: np.ndarray                      # S
    normalization: np.ndarray             # B
    constraints: list = field(default_factory=list)  # A_1, ..., A_k

    def __post_init__(self):
        self.cost = symlin.sym_matrix(self.cost)
        self.normalization = symlin.sym_matrix(self.normalization)
        self.constraints = [symlin.sym_matrix(a) for a in self.constraints]
        n = self.cost.shape[0]
        for a in [self.normalization] + self.constraints:
            if a.shape != (n, n):
                raise InvalidInputError("all problem matrices must share one size")

    @property
    def n(self) -> int:
        return self.cost.shape[0]


@dataclass
class SdpSolution:
    """Result of ``solve_relaxation``; each status carries checked evidence.

    ``optimal``: ``z_mat = S - y B - sum_i w_i A_i``, recomputed from
    (y, w), passed ``eigvalsh(z_mat)[0] >= 0``, so y bounds the relaxed
    value from below, and ``duality_gap``, the measured
    ``max(|objective - y|, <X, Z>)``, is at most ``tol (1 + |objective|)``.
    ``infeasible``: ``ray`` is a PSD Y within tol |B'| of
    -(B + sum_i w_i A_i), B' the part of B off the span of the A_i, the
    difference lying in the induced span, so <Y, X> = -1 + <Y + B, X>
    rules out every feasible X of norm below 1 / (tol |B'|) (Y = 0
    exactly when B' = 0).  ``unbounded``: some iterate had primal residual
    at most tol, and ``ray`` is a unit PSD D whose inner products with an
    orthonormal basis of span{B, A_i} have norm at most tol, and
    ``<S, D> <= -tol (1 + |S|)``.  ``max-iter``: no certificate within the
    cap; ``duality_gap`` is the best measured gap, or inf.  ``y`` and
    ``z_mat`` are None unless optimal, ``ray`` unless infeasible or unbounded.

    ``iterations`` counts interior-point steps: 0 on the two closed forms
    of ``solve_relaxation`` (a chordal coordinate pattern, no form at all
    included, or one indefinite form, with B PD).  ``primal_residual`` is
    ``|b - A(|B'| X)|`` over the rows B' / |B'| and E_k of
    ``solve_relaxation``, or ``|(<B, X> - 1, <E_k, X>)|`` on a closed form,
    and ``dual_residual`` the norm of the part of ``S - y B - Z`` on the
    induced span, at the returned or last iterate (nan when no iterate
    was formed).
    """
    x_mat: Optional[np.ndarray]
    objective: float
    status: str                  # optimal | infeasible | unbounded | max-iter
    duality_gap: float
    y: Optional[float] = None
    z_mat: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    iterations: int = 0
    primal_residual: float = np.nan
    dual_residual: float = np.nan


@dataclass
class ExactnessCertificate:
    """``exact-by-rog`` rests on a construction tree proving the cone ROG,
    ``exact-with-solution`` on a rank-1 x_opt at the relaxed value, and
    ``gap-detected`` on samples only: a sampled claim, not a proof."""
    status: str                  # exact-with-solution | exact-by-rog | gap-detected | inconclusive
    x_opt: Optional[np.ndarray]
    relaxed_value: float
    extracted_value: float
    solution: Optional[SdpSolution] = None   # the relaxation solve it came from


def induced_cone(problem: QcqpProblem) -> SpectrahedralCone:
    """The cone of PSD matrices annihilated by every constraint form."""
    n = problem.n
    full = symlin.sym_basis(n)
    if not problem.constraints:
        span = full
    else:
        forms = np.array(problem.constraints).reshape(-1, n * n)
        null = symlin.nullspace(forms @ full.reshape(-1, n * n).T)
        span = np.tensordot(null, full, axes=(0, 0))
    return make_cone(n, span, [], expr=None, check=False)


# ---------------------------------------------------------------------------
# primal-dual solver

def solve_relaxation(problem: QcqpProblem, tol: float = DEFAULT_TOL,
                     max_outer: int = 60) -> SdpSolution:
    """Solve min <S, X> over the induced cone with <B, X> = 1.

    The constraints are <B, X> = 1 and <E_k, X> = 0 for an orthonormal
    basis E of the span of the A_i (one SVD cut at ``SUBSPACE_TOL``, so
    dependent forms drop out); with B' the part of B off that span, the
    solve runs on the orthonormal rows B' / |B'|, E_k and on |B'| X, so
    scaling B changes no iterate.

    When B is PD (one Cholesky), two structures come first, each in
    closed form, with ``iterations`` 0 and ``max_outer`` unused:

    * every A_i a multiple of some x_i x_j, i != j (no form at all
      included), and the other pairs a chordal graph: ``_clique_solution``,
      before E is formed;
    * one form left in E, and it is indefinite: ``_s_lemma_solution``.

    Each returns ``optimal`` only on the evidence of
    ``_closed_form_evidence``, the stop rule of the loop below.  Every
    other problem (a cycle pattern, two general forms, one semidefinite
    form, B singular or indefinite, or a closed form that falls short of
    that evidence) takes at most ``max_outer`` infeasible-start HKM steps
    with Mehrotra's predictor and corrector (``_hkm_step``), each side
    moving 0.95 of the way to the PSD boundary, capped at 1.

    At every iterate Z is recomputed from (y, w), or from (y, w) moved
    along the projection P of I on span{B, A_i} when P is PD and Z misses
    PSD; the largest y whose Z passes ``eigvalsh(Z)[0] >= 0`` is the dual
    certificate.  It is paired with each iterate X of primal residual at
    most tol, the X of smallest measured gap is kept, and the loop stops
    once that gap is at most tol / 10 (1 + |objective|).  While the primal
    residual exceeds tol and y > 0, ``_infeasibility_ray`` tries
    (1, w / y); once some iterate had primal residual at most tol, and
    while no dual certificate bounds the objective and it is negative,
    ``_recession_ray`` tries X.  The first ray that passes ends the solve.
    """
    n = problem.n
    s, b = problem.cost, problem.normalization
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        chol = None
    pairs = None if chol is None else _coordinate_pairs(problem.constraints)
    closed = None if pairs is None else _clique_solution(s, b, pairs, tol)
    if closed is not None:
        return closed
    forms = (symlin.orthonormal_span(problem.constraints)
             if problem.constraints else np.zeros((0, n, n)))
    if chol is not None and len(forms) == 1:
        closed = _s_lemma_solution(s, b, forms[0], chol, tol)
        if closed is not None:
            return closed
    outside = _outside_rows(b, forms)
    if outside is None:
        # <B, X> = 1 contradicts <A_i, X> = 0: the ray -(B + sum w_i A_i) = 0
        return SdpSolution(None, np.nan, "infeasible", np.inf, ray=np.zeros((n, n)))
    scale = float(np.vdot(outside[0], b))    # |B'|
    flat = outside.reshape(len(outside), n * n)
    rhs = np.zeros(len(flat))
    rhs[0] = 1.0

    def result(x_mat, objective, status, gap, p_res, mismatch, y=None, z_mat=None, ray=None):
        return SdpSolution(x_mat, objective, status, gap, y, z_mat, ray, it, p_res,
                           symlin.span_distance(forms, mismatch))

    eye = np.eye(n)
    # a dual start well above S lets dual steps reach full length early,
    # after which the recomputed Z is the iterate; from (1 + |S|) I the
    # dual residual can shrink only as fast as mu, and 24 of 1,500 random
    # trace-normalized problems never had a PSD recomputed Z
    x = eye / np.sqrt(n)
    z = eye * 3.0 * (1.0 + np.linalg.norm(s))
    v = np.zeros(len(flat))
    # lift = the coordinates p of P, the projection of I on the rows.  When
    # P is PD (possible exactly when the feasible set is bounded), a Z that
    # misses PSD by lam < 0 lifts to Z + t P = S - A*(v - t p) for t = -2 lam
    # / lambda_min(P); dual steps of 0.95 shrink the residual only like mu.
    lift = flat @ eye.ravel()
    lift_eigs = np.linalg.eigvalsh((lift @ flat).reshape(n, n))
    lift_min = float(lift_eigs[0]) if lift_eigs[0] > symlin.cut(lift_eigs, tol) else 0.0
    cert = None     # (y, Z) with the largest y whose recomputed Z is PSD
    best = None     # (gap, X, objective, primal residual, cert) of the best certified X
    feasible = False    # unbounded needs a feasible point as well as a ray
    it = 0
    while True:
        # x and v[0] are |B'| X and |B'| y; Z is the same in both scalings
        rp = rhs - flat @ x.ravel()
        x_out = x / scale
        objective = float(np.vdot(s, x_out))
        p_res = float(np.linalg.norm(rp))
        y = float(v[0]) / scale
        z_rec = s - (v @ flat).reshape(n, n)
        if cert is None or y > cert[0]:
            lam = float(np.linalg.eigvalsh(z_rec)[0])
            if lam >= 0:
                cert = (y, z_rec)
            elif lift_min > 0 and p_res <= tol:
                v_lift = v + (2.0 * lam / lift_min) * lift
                z_lift = s - (v_lift @ flat).reshape(n, n)
                y_lift = float(v_lift[0]) / scale
                if (cert is None or y_lift > cert[0]) and np.linalg.eigvalsh(z_lift)[0] >= 0:
                    cert = (y_lift, z_lift)
        feasible = feasible or p_res <= tol
        if cert is not None and p_res <= tol:
            gap = max(abs(objective - cert[0]), float(np.vdot(x_out, cert[1])))
            if best is None or gap < best[0]:
                best = (gap, x_out, objective, p_res, cert)
            if gap <= 0.1 * tol * (1.0 + abs(objective)):
                break
        rd = z_rec - z
        ray = (_infeasibility_ray((-(v / v[0]) @ flat).reshape(n, n), forms, tol)
               if p_res > tol and y > 0 else None)
        if ray is not None:
            return result(None, np.nan, "infeasible", np.inf, p_res, rd, ray=scale * ray)
        ray = (_recession_ray(x, outside, s, tol)
               if feasible and cert is None and objective < 0 else None)
        if ray is not None:
            return result(None, -np.inf, "unbounded", np.inf, p_res, rd, ray=ray)
        if it == max_outer:
            break
        step = _hkm_step(x, z, rp, rd, flat)
        if step is None:
            break
        dx, dv, dz, ap_max, ad_max = step
        ap = min(1.0, 0.95 * ap_max)
        ad = min(1.0, 0.95 * ad_max)
        x, v, z = x + ap * dx, v + ad * dv, z + ad * dz
        it += 1
    if best is None:
        return result(x_out, objective, "max-iter", np.inf, p_res, rd)
    gap, x, objective, p_res, (y, z_mat) = best
    if gap > tol * (1.0 + abs(objective)):
        return result(x, objective, "max-iter", gap, p_res, s - y * b - z_mat)
    return result(x, objective, "optimal", gap, p_res, s - y * b - z_mat, y, z_mat)


# the first margin by which a closed form's dual y backs off from its bound,
# relative to 1 + |bound|; each further margin is ten times the last
_DUAL_BACKOFF = 1e-12
# evaluations of lambda_min(S - w A, B) the one-form search may take
_S_LEMMA_STEPS = 100


def _coordinate_pairs(mats):
    """The set of pairs (i, j), i < j, when each matrix is zero or a
    multiple of a coordinate unit e_i e_j^T + e_j e_i^T (repeats allowed;
    no matrix at all gives no pair); otherwise None."""
    pairs = set()
    for a in mats:
        nonzeros = np.count_nonzero(a)
        if nonzeros == 0:
            continue
        # the first of two nonzeros of a symmetric matrix, in row-major
        # order, is off the diagonal exactly when the two mirror each other
        i, j = divmod(int((a != 0).argmax()), len(a))
        if nonzeros != 2 or i == j:
            return None
        pairs.add((i, j))
    return pairs


@np.errstate(over="ignore", invalid="ignore")
def _clique_solution(s, b, pairs, tol):
    """The closed form when the forms span the coordinate units of
    ``pairs`` and the graph of the other pairs is chordal, or None.

    The pattern cone of a chordal graph is ROG (Agler-Helton-McCullough-
    Rodman 1988) and its rank-1 elements are supported on cliques, so the
    value is y = min over the maximal cliques C of lambda_min(S_CC, B_CC),
    attained at X = x x^T on the best clique.  Maximum-cardinality search
    orders the vertices so that the earlier neighbours K of each vertex v
    form a clique exactly when the graph is chordal (Tarjan-Yannakakis
    1984); every maximal clique is then some {v} + K, and {v} + K is not
    maximal when the next vertex has one earlier neighbour more.  The dual
    Z is S - y B on the pattern, which is PSD on every clique, completed
    along that order with Z[v, u] = Z[v, K] Z[K, K]^-1 Z[K, u] for the
    earlier non-neighbours u of v (Grone-Johnson-Sa-Wolkowicz 1984); with
    no form the graph is complete, one clique, and nothing is filled.
    """
    from .constructions import mcs_order
    n = len(s)
    adj = [set(range(n)) - {v} for v in range(n)]
    for i, j in pairs:
        adj[i].discard(j)
        adj[j].discard(i)
    order = mcs_order(n, adj)
    fills = []
    for idx, v in enumerate(order):
        kk = [u for u in order[:idx] if u in adj[v]]
        # the latest earlier neighbour must see the others (Tarjan-Yannakakis)
        if kk and not set(kk[:-1]) <= adj[kk[-1]]:
            return None
        fills.append((v, kk, [u for u in order[:idx] if u not in adj[v]]))
    best = None
    for idx, (v, kk, _) in enumerate(fills):
        if idx + 1 < n and len(fills[idx + 1][1]) == len(kk) + 1:
            continue
        clique = kk + [v]
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(b[np.ix_(clique, clique)]))
        except np.linalg.LinAlgError:
            return None
        m = symlin.sym(l_inv @ s[np.ix_(clique, clique)] @ l_inv.T)
        if not np.isfinite(m).all():
            return None
        w, u = np.linalg.eigh(m)
        if best is None or w[0] < best[0]:
            best = (float(w[0]), clique, l_inv.T @ u[:, 0])
    lam, clique, x_c = best
    x = np.zeros(n)
    x[clique] = x_c

    def dual(y):
        z = s - y * b
        for v, kk, rest in fills:
            if not rest:
                continue
            if kk:
                try:
                    fill = z[v, kk] @ np.linalg.solve(z[np.ix_(kk, kk)], z[np.ix_(kk, rest)])
                except np.linalg.LinAlgError:
                    return None
            else:
                fill = 0.0
            z[v, rest] = fill
            z[rest, v] = fill
        return z

    rows, cols = np.array(sorted(pairs), dtype=int).reshape(-1, 2).T

    def project(m):
        out = np.zeros_like(m)
        out[rows, cols] = m[rows, cols]
        out[cols, rows] = m[cols, rows]
        return out
    return _closed_form_evidence(s, b, x, lam, dual, project, tol)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _s_lemma_solution(s, b, form, chol, tol):
    """The closed form with one indefinite form A, or None.

    With B = L L^T, f(w) = lambda_min(L^-1 (S - w A) L^-T) is concave and
    its maximum is the relaxed value (the S-lemma; Sturm-Zhang 2003).  A
    safeguarded Newton search (Numerical Recipes' rtsafe) runs on the
    bracket [lo, hi] of the maximiser: at each w one ``eigh`` gives f,
    f' = -v^T A v and f'' = 2 sum_j (v^T A v_j)^2 / (mu_0 - mu_j) for the
    eigenpairs (mu_j, v_j), v = v_0.  A step outside the bracket or not
    half the size of the step before last gives way to the crossing of the
    tangents at lo and hi, then to bisection.  The search stops once some
    unit vector of the bottom eigenspace (eigenvalues within
    tol / 100 (1 + |mu_0|) of mu_0) is isotropic for A: v itself where f
    is smooth, the best column of ``symlin.isotropic_vectors`` of A on
    that eigenspace at a kink, where the bottom eigenvalue is multiple.
    Near an avoided crossing f' swings from one sign to the other within
    rounding of w; once the bracket has shrunk that far, the best
    isotropic vector of the bottom two eigenvectors is taken.  A
    semidefinite A, a search that does not stop within
    ``_S_LEMMA_STEPS`` evaluations, or a point
    ``_closed_form_evidence`` rejects gives None.
    """
    l_inv = np.linalg.inv(chol)
    s_t = symlin.sym(l_inv @ s @ l_inv.T)
    a_t = symlin.sym(l_inv @ form @ l_inv.T)
    if not (np.isfinite(s_t).all() and np.isfinite(a_t).all()):
        return None
    ends = np.linalg.eigvalsh(a_t)[[0, -1]]
    if not (ends[0] < -symlin.cut(ends, tol) and ends[1] > symlin.cut(ends, tol)):
        return None
    # f(w) <= |S~| - |w| |lambda_min(A~)| for w < 0 and f(0) >= -|S~|, so
    # f(lo) < f(0) and, f being concave, the maximiser lies above lo;
    # likewise below hi
    reach = 2.0 * (np.linalg.norm(s_t) + 1.0)
    lo, hi = reach / ends[0], reach / ends[1]
    tangents = {}
    w, step, step_old = 0.0, hi - lo, hi - lo

    def isotropic(k):
        """The unit isotropic vector of A on the bottom k eigenvectors
        of least value under S - w A, or None."""
        block = q[:k, :k]
        cols = symlin.isotropic_vectors(block, flat / max(1.0, np.abs(block).max()))
        if not cols.shape[1]:
            return None
        cols = cols / np.linalg.norm(cols, axis=0)
        return cols[:, np.argmin(np.einsum("ij,i,ij->j", cols, mu[:k], cols))]

    for _ in range(_S_LEMMA_STEPS):
        mu, v = np.linalg.eigh(s_t - w * a_t)
        q = v.T @ a_t @ v
        near = 0.01 * tol * (1.0 + abs(mu[0]))
        flat = min(0.1 * tol, near / (1.0 + abs(w)))
        k = int(np.count_nonzero(mu - mu[0] <= near))
        c = isotropic(k) if k > 1 else (np.ones(1) if abs(q[0, 0]) <= flat else None)
        if c is None:
            slope = -q[0, 0]
            if slope > 0:
                lo = w
            else:
                hi = w
            tangents[slope > 0] = (w, mu[0], slope)
            curv = 2.0 * np.sum(q[0, 1:] ** 2 / (mu[0] - mu[1:]))
            moves = [-slope / curv] if curv < 0 else []
            if len(tangents) == 2:
                (w_hi, f_hi, g_hi), (w_lo, f_lo, g_lo) = tangents[False], tangents[True]
                moves.append((f_hi - f_lo + g_lo * w_lo - g_hi * w_hi) / (g_lo - g_hi) - w)
            move = next((d for d in moves
                         if lo < w + d < hi and 2.0 * abs(d) <= abs(step_old)), None)
            if move is None:
                move = 0.5 * (lo + hi) - w
            step_old, step = step, move
            if lo < w + move < hi:
                w += move
                continue
            c = isotropic(2)
            if c is None:
                return None
        x = l_inv.T @ (v[:, :len(c)] @ c)
        return _closed_form_evidence(s, b, x, float(mu[0]), lambda y: s - y * b - w * form,
                                     lambda m: np.vdot(form, m) * form, tol)
    return None


@np.errstate(over="ignore", invalid="ignore")
def _closed_form_evidence(s, b, x, lam, dual, project, tol):
    """``optimal`` with 0 iterations for X = x x^T, or None.

    The dual is y = lam - m for the least margin m in 0, _DUAL_BACKOFF
    (1 + |lam|), ten times that, ... up to tol / 10 (1 + |objective|)
    whose Z = dual(y) (None when it cannot be formed) passes
    ``eigvalsh(Z)[0] >= 0``.  ``project`` maps a matrix to its orthogonal
    projection on the span of the constraint forms.  The solution comes
    back when the primal residual |(<B, X> - 1, project(X))| is at most
    tol and the measured gap max(|objective - y|, <X, Z>) at most tol / 10
    (1 + |objective|), the stop rule of the interior-point loop; None when
    no margin gives that evidence, as when lam, the objective or Z
    overflows.  The dual residual is |M - project(M)| for M = S - y B - Z.
    """
    x_mat = np.outer(x, x)
    objective = float(x @ s @ x)
    p_res = float(np.hypot(float(x @ b @ x) - 1.0, np.linalg.norm(project(x_mat))))
    if not (p_res <= tol and np.isfinite(objective) and np.isfinite(lam)):
        return None
    bound = 0.1 * tol * (1.0 + abs(objective))
    margin = 0.0
    while margin <= bound:
        y = lam - margin
        z_mat = dual(y)
        if z_mat is not None and np.isfinite(z_mat).all() and np.linalg.eigvalsh(z_mat)[0] >= 0:
            gap = max(abs(objective - y), float(np.vdot(x_mat, z_mat)))
            if gap > bound:
                return None
            mismatch = s - y * b - z_mat
            return SdpSolution(x_mat, objective, "optimal", gap, y, z_mat, iterations=0,
                               primal_residual=p_res,
                               dual_residual=float(np.linalg.norm(mismatch - project(mismatch))))
        margin = max(10.0 * margin, _DUAL_BACKOFF * (1.0 + abs(lam)))
    return None


def _outside_rows(b, forms):
    """The orthonormal stack B' / |B'|, E spanning span{B, E}, for E the
    orthonormal stack `forms` and B' = B - proj_E B, or None when
    |B'| <= SUBSPACE_TOL |B|: relative to B alone, so that the answer does
    not change when B is scaled."""
    b_off = b - symlin.span_project(forms, b)
    off = float(np.linalg.norm(b_off))
    if off <= symlin.SUBSPACE_TOL * float(np.linalg.norm(b)):
        return None
    return np.concatenate([b_off[None] / off, forms])


def _psd_part(a):
    """The nearest PSD matrix to the symmetric a: its negative eigenvalues
    set to zero."""
    w, v = np.linalg.eigh(symlin.sym(a))
    return (v * np.maximum(w, 0.0)) @ v.T


def _infeasibility_ray(cand, forms, tol):
    """The PSD part Y of cand = -(B + sum_k w_k E_k) when Y is within tol
    of cand + span(E); otherwise None."""
    ray = _psd_part(cand)
    return ray if symlin.span_distance(forms, ray - cand) <= tol else None


def _recession_ray(x, outside, s, tol):
    """The PSD part D of X projected off the orthonormal stack `outside`,
    scaled to unit norm, when D stays within tol of its complement and
    <S, D> <= -tol (1 + |S|); otherwise None."""
    ray = _psd_part(x - symlin.span_project(outside, x))
    size = float(np.linalg.norm(ray))
    if size == 0.0:
        return None
    ray = ray / size
    if (np.linalg.norm(symlin.span_coords(outside, ray)) <= tol
            and float(np.vdot(s, ray)) <= -tol * (1.0 + np.linalg.norm(s))):
        return ray
    return None


def _hkm_step(x, z, rp, rd, flat):
    """(dX, dv, dZ, tX, tZ): Mehrotra's corrected HKM direction and the
    largest steps keeping X and Z PSD; None if X, Z or M is singular.

    The direction solves A(dX) = rp, A*(dv) + dZ = rd and dX Z + X dZ = Rc
    (dX symmetrized), Rc = -XZ for the predictor and sigma mu I - XZ -
    dXa dZa for the corrector, sigma = (mu_a / mu)^3: M dv =
    rp - A((Rc - X rd) Z^-1) with M from ``_schur_complement``.
    """
    n = len(x)
    try:
        lx_inv = np.linalg.inv(np.linalg.cholesky(x))
        lz_inv = np.linalg.inv(np.linalg.cholesky(z))
        zi = lz_inv.T @ lz_inv
        ls_inv = np.linalg.inv(np.linalg.cholesky(symlin.sym(_schur_complement(flat, x, zi))))
    except np.linalg.LinAlgError:
        return None
    x_rd = x @ rd @ zi

    def direction(rc_zi):
        dv = ls_inv.T @ (ls_inv @ (rp - flat @ (rc_zi - x_rd).ravel()))
        dz = rd - (dv @ flat).reshape(n, n)
        return symlin.sym(rc_zi - x @ dz @ zi), dv, dz

    mu = float(np.vdot(x, z)) / n
    dx, dv, dz = direction(-x)
    ap = min(1.0, _max_step(lx_inv, dx))
    ad = min(1.0, _max_step(lz_inv, dz))
    mu_aff = float(np.vdot(x + ap * dx, z + ad * dz)) / n
    sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)
    dx, dv, dz = direction(sigma * mu * zi - x - dx @ dz @ zi)
    return dx, dv, dz, _max_step(lx_inv, dx), _max_step(lz_inv, dz)


def _schur_complement(flat, x, zi):
    """M_ij = <F_i, X F_j Z^-1>, row i of `flat` being vec(F_i) and zi the
    inverse of Z: one product of the stack X F_j Z^-1 with the rows."""
    n = len(x)
    return flat @ (x @ flat.reshape(-1, n, n) @ zi).reshape(len(flat), -1).T


def _max_step(l_inv, d):
    """Largest t with L L^T + t d PSD, given l_inv = L^-1 (inf if none)."""
    lam = float(np.linalg.eigvalsh(l_inv @ d @ l_inv.T)[0])
    return -1.0 / lam if lam < 0 else np.inf


# ---------------------------------------------------------------------------
# exactness certification


def purify_to_extreme(problem: QcqpProblem, cone: SpectrahedralCone,
                      x_mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Walk the optimizer to an extreme point of the optimal face.

    Moves along directions that keep the span, the normalization, the
    objective and the image fixed, stepping to the PSD boundary each
    time; every step drops the rank and leaves the objective unchanged.
    """
    basis = cone.span_basis
    x = symlin.span_project(basis, symlin.sym(x_mat))
    d = len(basis)
    flat = basis.reshape(d, -1)
    fixed = np.vstack([flat @ problem.normalization.ravel(), flat @ problem.cost.ravel()])
    for _ in range(problem.n * (problem.n + 1)):
        dec = symlin.eig_sym(x)
        h = dec.range(tol)
        if h.shape[1] <= 1:
            break
        p = h @ h.T
        image_cols = (basis - p @ basis @ p).reshape(d, -1).T
        null = symlin.nullspace(np.vstack([image_cols, fixed]))
        if null.shape[1] == 0:
            break
        direction = symlin.sym(p @ (null[:, 0] @ flat).reshape(x.shape) @ p)
        if np.linalg.norm(direction) < 1e-12:
            break
        x_new = _step_to_boundary(x, direction, h)
        if x_new is None:
            break
        x = x_new
    return x


def _step_to_boundary(x, direction, h):
    """Largest step x + t * direction staying PSD (within the face image)."""
    xr = symlin.sym(h.T @ x @ h)
    dr = symlin.sym(h.T @ direction @ h)
    if np.linalg.norm(dr) < 1e-12:
        return None
    w, v = np.linalg.eigh(xr)
    if w.min() <= 0:
        w = np.maximum(w, 1e-14)
    half = (v / np.sqrt(w)) @ v.T
    g = symlin.sym(half @ dr @ half)
    lam = np.linalg.eigvalsh(g)
    t_pos = 1.0 / abs(lam[0]) if lam[0] < -1e-12 else np.inf
    t_neg = 1.0 / lam[-1] if lam[-1] > 1e-12 else np.inf
    if np.isinf(t_pos) and np.isinf(t_neg):
        return None
    t = t_pos if t_pos <= t_neg else -t_neg
    return symlin.sym(x + t * direction)


# rows of starting points refined together by rank1_feasible_samples
_SAMPLE_BLOCK = 1024
# ``_min_norm_steps`` keeps a step through J J^T whose relative residual is
# at most _GRAM_RESIDUAL (its relative error is at most cond(J) times that,
# 1e-8 at cond(J) = 1e6) and redoes every other step by pinv
_GRAM_RESIDUAL = 1e-14


def rank1_feasible_samples(problem: QcqpProblem, count: int,
                           rng: np.random.Generator):
    """Newton-refined samples of {x : x^T A_i x = 0, x^T B x = 1}.

    Each of `count` standard normal starts takes up to 50 minimum-norm
    Newton steps J^+ f on the residuals f = (x^T A_i x, x^T B x - 1), J
    their Jacobian.  The steps come from ``_min_norm_steps`` when J has
    full row rank at a generic x; otherwise (dependent forms, more forms
    than n, or A_i x confined to a smaller common span) J J^T is singular
    at every x and each step is ``_pinv_steps``.  A start is kept once
    max |f| < 1e-10 and dropped once |x| > 1e8; the converged points come
    back as the rows of one (converged, n) array, in the order of their
    starts.  Starts are refined in blocks of rows with stacked residuals,
    Jacobians and steps, and each block is drawn as one (rows, n) array,
    which gives the same numbers as drawing the starts one at a time.
    """
    n = problem.n
    forms = np.array(problem.constraints + [problem.normalization])
    k = len(forms)
    # row (i, a) of the stack is row a of form i: xs @ rows_t stacks the A_i x
    rows_t = forms.reshape(k * n, n).T
    # the cut numpy's lstsq applies to the singular values of one Jacobian
    rcond = np.finfo(float).eps * max(k, n)
    # J has full row rank at almost every x or at none; a fixed probe point
    # tells which, so that problems whose J J^T is singular everywhere never
    # try the Gram solve
    sv = np.linalg.svd(forms @ np.random.default_rng(0).standard_normal(n), compute_uv=False)
    steps = (_min_norm_steps if k <= n and sv[-1] > symlin.cut(sv, symlin.SUBSPACE_TOL)
             else _pinv_steps)
    out = [np.zeros((0, n))]
    for first in range(0, count, _SAMPLE_BLOCK):
        x = rng.standard_normal((min(_SAMPLE_BLOCK, count - first), n))
        converged = np.zeros(len(x), dtype=bool)
        live = np.arange(len(x))
        for _ in range(50):
            xs = x[live]
            ax = (xs @ rows_t).reshape(len(xs), k, n)
            f = np.einsum("ska,sa->sk", ax, xs)
            f[:, -1] -= 1.0
            done = (np.abs(f) < 1e-10).all(axis=1)
            converged[live[done]] = True
            live, ax, f, xs = live[~done], ax[~done], f[~done], xs[~done]
            if len(live) == 0:
                break
            xs = xs - steps(2.0 * ax, f, rcond)
            x[live] = xs
            live = live[~(np.linalg.norm(xs, axis=1) > 1e8)]
        out.append(x[converged])
    return np.concatenate(out)


def _min_norm_steps(jac, f, rcond):
    """J^+ f for each Jacobian J of the (starts, rows, cols) stack `jac`,
    rows <= cols: J^T (J J^T)^-1 f with one batched ``solve``.

    The Gram matrix squares the condition number of J, so a row keeps its
    step s only when the residual |f - J s| / |f| is at most
    ``_GRAM_RESIDUAL``.  Every other row, and every row when some Gram
    matrix is exactly singular (``LinAlgError``), takes ``_pinv_steps``.
    """
    # a contiguous transpose keeps the stacked product on BLAS's fast path
    jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))
    try:
        y = np.linalg.solve(jac @ jac_t, f[:, :, None])[:, :, 0]
        step = np.einsum("ski,sk->si", jac, y)
        res = f - np.einsum("ski,si->sk", jac, step)
        redo = ~(np.einsum("sk,sk->s", res, res)
                 <= _GRAM_RESIDUAL ** 2 * np.einsum("sk,sk->s", f, f))
    except np.linalg.LinAlgError:
        step, redo = np.empty((len(jac), jac.shape[2])), np.ones(len(jac), dtype=bool)
    if redo.any():
        step[redo] = _pinv_steps(jac[redo], f[redo], rcond)
    return step


def _pinv_steps(jac, f, rcond):
    """pinv(J, rcond) f for each Jacobian J of the stack: numpy's lstsq step."""
    return np.einsum("snk,sk->sn", np.linalg.pinv(jac, rcond=rcond), f)


def _proved_rog(cone: SpectrahedralCone) -> bool:
    """True iff every node of the cone's construction tree has an
    expression of a kind other than ``moment``."""
    expr = cone.expr
    return (expr is not None and expr.kind != "moment"
            and all(_proved_rog(child) for child in expr.children))


def certify_exactness(problem: QcqpProblem,
                      cone: SpectrahedralCone | None = None,
                      gap_samples: int = 100_000, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> ExactnessCertificate:
    """Solve the relaxation and certify whether it is exact.

    A rank-1 optimizer X* (numeric rank at tol), as both closed forms of
    ``solve_relaxation`` return (``iterations`` 0), yields the solution
    vector from one eigendecomposition of X*; with no ``cone`` given,
    neither the induced cone is built nor X* purified.  A higher-rank X*
    is purified to an extreme point of the optimal face, over ``cone`` or
    else the induced cone, and a rank-1 extreme point yields the solution
    vector the same way.  A given ``cone`` must span the induced cone.
    When it is proved ROG by its construction tree, an expression on
    every node and no ``moment`` kind, exactness holds structurally and
    the status says so (a raw induced cone never is); spanning rank-1
    generators are no proof (the raw 4-cycle pattern cone has them, and a
    gap).  A higher-rank extreme point triggers sampling of the rank-1
    feasible set with ``rank1_feasible_samples``, whose values x^T S x
    come from one ``einsum`` over the stacked samples: "gap-detected" is a
    sampled claim, never a proof, and "inconclusive" is returned when
    sampling cannot tell.
    """
    sol = solve_relaxation(problem, tol)

    def result(status, x_opt=None, extracted=np.nan):
        return ExactnessCertificate(status, x_opt, sol.objective, extracted, sol)

    if sol.status != "optimal":
        return result("inconclusive" if sol.status == "max-iter" else sol.status)
    if cone is not None:
        work = induced_cone(problem)
        if (cone.dim != work.dim
                or symlin.span_distances(work.span_basis, cone.span_basis).max(initial=0.0) > 1e-7):
            raise InvalidInputError("provided cone does not match the constraints")
    certified = cone is not None and _proved_rog(cone)
    dec = symlin.eig_sym(sol.x_mat)
    rank = int(np.count_nonzero(dec.values > symlin.cut(dec.values, tol)))
    if rank > 1:
        x_pure = purify_to_extreme(problem, induced_cone(problem) if cone is None else cone,
                                   sol.x_mat, tol)
        dec = symlin.eig_sym(x_pure)
        rank = int(np.count_nonzero(dec.values > symlin.cut(dec.values, tol)))
    if rank == 1:
        x_opt = dec.vectors[:, 0] * np.sqrt(max(dec.values[0], 0.0))
        return result("exact-by-rog" if certified else "exact-with-solution", x_opt,
                      float(x_opt @ problem.cost @ x_opt))
    if certified:
        # structural exactness, even though this particular purification
        # path stalled above rank 1
        return result("exact-by-rog")
    rng = np.random.default_rng(seed)
    samples = rank1_feasible_samples(problem, gap_samples, rng)
    if len(samples) == 0:
        return result("inconclusive")
    values = np.einsum("si,ij,sj->s", samples, problem.cost, samples)
    best = float(values.min())
    if best > sol.objective + 1e-6 * (1.0 + abs(sol.objective)):
        return result("gap-detected", extracted=best)
    if best <= sol.objective + 1e-5 * (1.0 + abs(sol.objective)):
        return result("exact-with-solution", samples[int(np.argmin(values))], best)
    return result("inconclusive", extracted=best)
