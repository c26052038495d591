"""Quadratic programs with homogeneous constraints and their SDP relaxation.

``min x^T S x  s.t.  x^T A_i x = 0,  x^T B x = 1`` lifts to the semidefinite
program ``min <S, X>  s.t.  <B, X> = 1, <A_i, X> = 0, X >= 0`` over the
spectrahedral cone cut out by the A_i, normalized by B.  Its dual is
``max y  s.t.  Z = S - y B - sum_i w_i A_i >= 0``.

``solve_relaxation`` is a primal-dual interior-point method in this
standard form (infeasible start, HKM direction, Mehrotra predictor and
corrector; Helmberg-Rendl-Vanderbei-Wolkowicz 1996, Toh-Todd-Tutuncu
1999), except on codimension 0: with no constraint form and B = L L^T
positive definite the relaxation is the Rayleigh quotient problem, whose
value is the smallest eigenvalue of L^-1 S L^-T, attained at a rank-1 X,
and one eigendecomposition solves it.  Every status the solver reports
carries evidence it checked: ``optimal`` a
PSD dual matrix Z recomputed from (y, w) and a measured duality gap,
``infeasible`` and ``unbounded`` a ray.  ``certify_exactness`` purifies the
optimizer to an extreme point of the optimal face and extracts a rank-1
solution when there is one.  A cone whose construction tree proves it
rank-one generated makes the relaxation exact, and is reported as such.
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

    ``iterations`` counts interior-point steps, 0 on the closed form of an
    unconstrained relaxation with B PD; ``primal_residual`` is
    ``|b - A(|B'| X)|`` over the rows B' / |B'| and E_k of
    ``solve_relaxation``, and ``dual_residual`` the norm of the part of
    ``S - y B - Z`` on the induced span, at the returned or last iterate
    (nan when no iterate was formed).
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
    scaling B changes no iterate.  When no form is left and B is PD,
    ``_rayleigh_solution`` returns the optimum and its certificate in
    closed form, after 0 iterations and with ``max_outer`` unused.
    Otherwise (a form is left, B is singular or indefinite, or the closed
    form falls short of the evidence below) at most ``max_outer``
    infeasible-start HKM steps with Mehrotra's predictor and corrector
    (``_hkm_step``) follow, each side moving 0.95 of the way to the PSD
    boundary, capped at 1.

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
    forms = (symlin.orthonormal_span(problem.constraints)
             if problem.constraints else np.zeros((0, n, n)))
    if len(forms) == 0:
        closed = _rayleigh_solution(s, b, tol)
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


# the first margin by which the closed form's dual y backs off from the
# eigenvalue, relative to 1 + |eigenvalue|; each further margin is ten times
# the last
_DUAL_BACKOFF = 1e-12


@np.errstate(over="ignore", invalid="ignore")
def _rayleigh_solution(s, b, tol):
    """The closed form of a relaxation with no constraint form and B PD,
    or None.

    With B = L L^T the relaxation is min <S, X> over PSD X with <B, X> = 1,
    whose value is the smallest eigenvalue lam of L^-1 S L^-T, attained at
    X = v v^T for v = L^-T u, u its unit eigenvector.  The dual is y = lam
    - m for the least margin m in 0, 1e-12 (1 + |lam|), ten times that, ...
    whose recomputed Z = S - y B passes ``eigvalsh(Z)[0] >= 0``.  The
    solution comes back, after 0 iterations, when its primal residual
    |1 - <B, X>| is at most tol and its measured gap at most tol / 10
    (1 + |objective|), the stop rule of the interior-point loop; None when
    B is not PD or no margin within that bound gives such evidence, as
    when L^-1 S L^-T or y B overflows.
    """
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(b))
    except np.linalg.LinAlgError:
        return None
    w, u = np.linalg.eigh(symlin.sym(l_inv @ s @ l_inv.T))
    v = l_inv.T @ u[:, 0]
    x_mat = np.outer(v, v)
    objective = float(v @ s @ v)
    p_res = abs(1.0 - float(v @ b @ v))
    lam = float(w[0])
    if not (p_res <= tol and np.isfinite(objective) and np.isfinite(lam)):
        return None
    bound = 0.1 * tol * (1.0 + abs(objective))
    margin = 0.0
    while margin <= bound:
        y = lam - margin
        z_mat = s - y * b
        if not np.isfinite(z_mat).all():
            return None
        if np.linalg.eigvalsh(z_mat)[0] >= 0:
            gap = max(abs(objective - y), float(np.vdot(x_mat, z_mat)))
            if gap > bound:
                return None
            return SdpSolution(x_mat, objective, "optimal", gap, y, z_mat, iterations=0,
                               primal_residual=p_res,
                               dual_residual=float(np.linalg.norm(s - y * b - z_mat)))
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

    The optimizer is purified to an extreme point of the optimal face; a
    rank-1 extreme point yields the solution vector directly.  When
    ``cone`` (spanning the induced cone) is proved ROG by its construction
    tree, an expression on every node and no ``moment`` kind, exactness
    holds structurally and the status says so; spanning rank-1 generators
    are no proof (the raw 4-cycle pattern cone has them, and a gap).  A
    higher-rank extreme point triggers sampling of the rank-1 feasible set
    with ``rank1_feasible_samples``, whose values x^T S x come from one
    ``einsum`` over the stacked samples: "gap-detected" is a sampled
    claim, never a proof, and "inconclusive" is returned when sampling
    cannot tell.
    """
    sol = solve_relaxation(problem, tol)

    def result(status, x_opt=None, extracted=np.nan):
        return ExactnessCertificate(status, x_opt, sol.objective, extracted, sol)

    if sol.status != "optimal":
        return result("inconclusive" if sol.status == "max-iter" else sol.status)
    if cone is None:
        cone = induced_cone(problem)
    else:
        work = induced_cone(problem)
        if (cone.dim != work.dim
                or symlin.span_distances(work.span_basis, cone.span_basis).max(initial=0.0) > 1e-7):
            raise InvalidInputError("provided cone does not match the constraints")
    certified = _proved_rog(cone)
    x_pure = purify_to_extreme(problem, cone, sol.x_mat, tol)
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
