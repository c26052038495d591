"""Quadratic programs with homogeneous constraints and their SDP relaxation.

``min x^T S x  s.t.  x^T A_i x = 0,  x^T B x = 1`` lifts to a linear
program over the spectrahedral cone cut out by the A_i, normalized by B.
``solve_relaxation`` runs a primal log-det barrier over the span
coordinates and backs an ``optimal`` result with a dual certificate whose
gap is measured; ``certify_exactness`` purifies the optimizer to an extreme
point of the optimal face and extracts a rank-1 solution when there is
one.  If the induced cone carries a complete rank-1 certificate the
relaxation is exact for structural reasons and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import symlin
from .cone_model import SpectrahedralCone, certificate_complete, make_cone
from .errors import InvalidInputError, NumericalError
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
    """Result of ``solve_relaxation``.

    For ``status == "optimal"``, ``(y, z_mat)`` is a dual certificate:
    ``z_mat = S - y B - sum_i w_i A_i`` for some weights w, so it agrees
    with ``S - y B`` on the span of the induced cone, and it passed an
    eigenvalue check for PSD.  Then y is a lower bound on the relaxed
    value and ``duality_gap`` is the measured ``<X, Z> = objective - y``
    (the larger of the two computed values).  Every other status carries
    ``y = z_mat = None``; a ``max-iter`` result reports the measured gap of
    its best certificate, or inf when no PSD Z was found.
    """
    x_mat: Optional[np.ndarray]
    objective: float
    status: str                  # optimal | infeasible | unbounded | max-iter
    duality_gap: float
    y: Optional[float] = None
    z_mat: Optional[np.ndarray] = None


@dataclass
class ExactnessCertificate:
    status: str                  # exact-with-solution | exact-by-rog | gap-detected | inconclusive
    x_opt: Optional[np.ndarray]
    relaxed_value: float
    extracted_value: float


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
# barrier solver


def solve_relaxation(problem: QcqpProblem, tol: float = DEFAULT_TOL,
                     max_outer: int = 60) -> SdpSolution:
    """Solve min <S, X> over the induced cone with <B, X> = 1.

    A primal path-following method over the span coordinates of the
    induced cone: phase 1 centers a strictly feasible point (detecting
    infeasibility), phase 2 follows the log-det barrier, cutting mu by 5
    until mu n <= 1e-9 (1 + |objective|).  After each centering a dual
    pair (y, Z) is fitted to the iterate, and the one with the largest y
    among those with PSD Z is kept.  The status is "optimal" only when
    such a Z exists and the measured gap objective - y is at most
    tol (1 + |objective|); otherwise it is "max-iter".  "unbounded" means
    a feasible point with objective below -1e12 (1 + max |S coords|).

    A Newton step costs one eigendecomposition of the n x n iterate and
    one product of the flattened, scaled direction stack with its
    transpose, which is the Hessian; no size limit applies.
    """
    n = problem.n
    cone = induced_cone(problem)
    basis = cone.span_basis.reshape(-1, n * n)
    b_vec = basis @ problem.normalization.ravel()
    s_vec = basis @ problem.cost.ravel()
    nrm = np.linalg.norm(b_vec)
    if nrm < 1e-12:
        return SdpSolution(None, np.nan, "infeasible", np.inf)
    c_part = b_vec / (nrm * nrm)
    dirs = symlin.nullspace(b_vec[None, :])
    flat = dirs.T @ basis             # the slice directions, one per row
    f0 = (c_part @ basis).reshape(n, n)
    # phase 1: find a strictly feasible point on the slice
    z = _phase1(f0, flat)
    if z is None:
        return SdpSolution(None, np.nan, "infeasible", np.inf)
    scale = 1.0 + float(np.abs(s_vec).max(initial=0.0))
    lin = s_vec @ dirs
    floor = -1e12 * scale           # an objective this low counts as unbounded
    lin_floor = floor - float(np.tensordot(problem.cost, f0))
    mu = scale
    best = None
    forms = np.array([problem.normalization] + problem.constraints)
    eye = np.eye(n)
    for _ in range(max_outer):
        z = _newton_logdet_affine(lin, flat, f0, z, mu, lin_floor)
        x = symlin.sym(_affine_point(f0, z, flat))
        objective = float(np.tensordot(problem.cost, x))
        if objective < floor:
            return SdpSolution(None, -np.inf, "unbounded", np.inf)
        cert = _dual_certificate(problem.cost, forms, eye, x, mu)
        if cert is not None and (best is None or cert[0] > best[0]):
            best = cert
        if mu * n <= 1e-9 * (1.0 + abs(objective)):
            break
        mu *= 0.2
    if best is None:
        return SdpSolution(x, objective, "max-iter", np.inf)
    y, z_mat = best
    gap = max(objective - y, float(np.tensordot(x, z_mat)))
    if gap > tol * (1.0 + abs(objective)):
        return SdpSolution(x, objective, "max-iter", gap)
    return SdpSolution(x, objective, "optimal", gap, y, z_mat)


def _dual_certificate(cost, forms, eye, x, mu):
    """A dual pair (y, Z) fitted to the barrier iterate x, or None.

    `forms` stacks B and the A_i, and `eye` is the n x n identity.
    Z = S - y B - sum_i w_i A_i, with (y, w) the least-squares fit of
    X^{1/2} Z X^{1/2} to mu I, the centrality condition; it needs no
    inverse of the ill-conditioned X.  None when Z is not PSD.
    """
    w, v = np.linalg.eigh(x)
    if w[0] <= 0:
        return None
    half = (v * np.sqrt(w)) @ v.T
    lhs = (half @ forms @ half).reshape(len(forms), -1).T
    rhs = (half @ cost @ half - mu * eye).ravel()
    coef, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    z_mat = symlin.sym(cost - np.tensordot(coef, forms, axes=(0, 0)))
    if np.linalg.eigvalsh(z_mat)[0] < 0:
        return None
    return float(coef[0]), z_mat


def _affine_point(f0, z, flat):
    """The matrix f0 + sum_j z_j M_j, where row j of `flat` is vec(M_j)."""
    return (f0.ravel() + z @ flat).reshape(f0.shape)


def _logdet_derivatives(flat, w, v):
    """Gradient and Hessian of -logdet X along the directions in `flat`.

    X = v diag(w) v^T with w > 0.  The gradient is -<X^-1, M_j> and the
    Hessian is tr(W_i W_j) with W_j = X^-1/2 M_j X^-1/2.  The M_j are
    symmetric, hence so are the W_j, and the Hessian is the Gram matrix of
    their flattened stack: one matrix product.
    """
    n = len(w)
    xi_half = (v / np.sqrt(w)) @ v.T
    ws = (xi_half @ flat.reshape(-1, n, n) @ xi_half).reshape(len(flat), n * n)
    xi = (v / w) @ v.T
    return -(flat @ xi.ravel()), ws @ ws.T


def _newton_logdet_affine(lin, flat, f0, z0, mu, lin_floor):
    """Newton for f(z) = lin . z - mu logdet(f0 + sum z_j M_j).

    Row j of `flat` is vec(M_j).  f / mu is self-concordant with Newton
    decrement lam.  A step is the longest of 1, 1/2, 1/4, ... that keeps
    the iterate in the cone and either passes an Armijo test or is no
    longer than the damped step 1 / (1 + lam) (1 once lam < 1/4), which
    decreases f by theory.  The loop stops once lam^2 <= 1e-10, so the
    iterate is central for mu whatever mu is, or once lin . z falls below
    `lin_floor`.
    """
    if len(z0) == 0:
        return z0
    z = z0.copy()
    for _ in range(60):
        w, v = np.linalg.eigh(symlin.sym(_affine_point(f0, z, flat)))
        if w[0] <= 0:
            raise NumericalError("barrier iterate left the cone")
        grad, hess = _logdet_derivatives(flat, w, v)
        grad = lin + mu * grad
        hess = mu * hess
        # Jacobi scaling, so that the small curvature along a direction in
        # which X grows without bound is not swamped by the 1e-14 shift
        jac = 1.0 / np.sqrt(np.diag(hess))
        try:
            step = jac * np.linalg.solve(jac[:, None] * hess * jac + 1e-14 * np.eye(len(z)),
                                         -jac * grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
        lam2 = float(-grad @ step) / mu
        if not lam2 > 1e-10:
            break
        safe = 1.0 if lam2 < 0.0625 else 1.0 / (1.0 + np.sqrt(lam2))
        f_curr = float(lin @ z) - mu * float(np.sum(np.log(w)))
        t = 1.0
        for _ in range(60):
            cand = z + t * step
            wc = np.linalg.eigvalsh(symlin.sym(_affine_point(f0, cand, flat)))
            if wc[0] > 0 and (t <= safe or float(lin @ cand) - mu * float(np.sum(np.log(wc)))
                              <= f_curr - 0.25 * t * mu * lam2):
                break
            t *= 0.5
        else:
            break
        z = cand
        if lin @ z < lin_floor:
            break
    return z


def _phase1(f0, flat, tol=1e-9):
    """Slice coordinates z of a strictly feasible point, or None when the
    slice misses the cone; z = 0 when f0 itself is strictly feasible."""
    z = np.zeros(len(flat))
    if np.linalg.eigvalsh(symlin.sym(f0))[0] > tol:
        return z
    if len(flat) == 0:
        return None
    # maximize t with f0 + sum z M - t I >= 0 via a barrier on (z, t)
    t = float(np.linalg.eigvalsh(symlin.sym(f0))[0]) - 1.0
    for mu in [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6]:
        z, t = _phase1_newton(f0, flat, z, t, mu)
    lam = float(np.linalg.eigvalsh(symlin.sym(_affine_point(f0, z, flat)))[0])
    if lam <= tol:
        return None
    return z


def _phase1_newton(x0, flat, z, t, mu, iters=40):
    n = x0.shape[0]
    eye = np.eye(n)
    # the variables (z, t) move x0 along the rows of `flat` and along -I
    flat_t = np.vstack([flat, -eye.ravel()])
    for _ in range(iters):
        x = _affine_point(x0, z, flat) - t * eye
        w, v = np.linalg.eigh(symlin.sym(x))
        if w[0] <= 0:
            t = t - 2 * abs(w[0]) - 1e-9
            continue
        grad, hess = _logdet_derivatives(flat_t, w, v)
        grad = mu * grad
        grad[-1] -= 1.0
        hess = mu * hess
        k = len(z)
        try:
            step = np.linalg.solve(hess + 1e-12 * np.eye(k + 1), -grad)
        except np.linalg.LinAlgError:
            break
        sz, st = step[:k], step[k]
        stepsize = 1.0
        f_curr = -t - mu * float(np.sum(np.log(w)))
        ok = False
        for _ in range(50):
            zc, tc = z + stepsize * sz, t + stepsize * st
            xc = _affine_point(x0, zc, flat) - tc * eye
            wc = np.linalg.eigvalsh(symlin.sym(xc))
            if wc[0] > 0:
                fc = -tc - mu * float(np.sum(np.log(wc)))
                if fc <= f_curr + 1e-13 * (1 + abs(f_curr)):
                    ok = True
                    break
            stepsize *= 0.5
        if not ok:
            break
        z, t = z + stepsize * sz, t + stepsize * st
        if float(grad @ step) > -1e-12 * (1 + abs(f_curr)):
            break
    return z, t


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
        h = dec.vectors[:, dec.values > symlin.cut(dec.values, tol)]
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


def rank1_feasible_samples(problem: QcqpProblem, count: int,
                           rng: np.random.Generator, iters: int = 50):
    """Newton-refined samples of {x : x^T A_i x = 0, x^T B x = 1}.

    Each of `count` standard normal starts takes up to `iters` minimum-norm
    Newton steps on the residuals f = (x^T A_i x, x^T B x - 1).  A start is
    kept once max |f| < 1e-10 and dropped once |x| > 1e8; the converged
    points come back as a list of vectors, in the order of their starts.
    Starts are refined in blocks of rows with stacked residuals, Jacobians
    and pseudo-inverses, and each block is drawn as one (rows, n) array,
    which gives the same numbers as drawing the starts one at a time.
    """
    n = problem.n
    forms = np.array(problem.constraints + [problem.normalization])
    # the cut numpy's lstsq applies to the singular values of one Jacobian
    rcond = np.finfo(float).eps * max(len(forms), n)
    out = []
    for first in range(0, count, _SAMPLE_BLOCK):
        x = rng.standard_normal((min(_SAMPLE_BLOCK, count - first), n))
        converged = np.zeros(len(x), dtype=bool)
        live = np.arange(len(x))
        for _ in range(iters):
            xs = x[live]
            ax = np.einsum("kab,sb->ska", forms, xs)
            f = np.einsum("ska,sa->sk", ax, xs)
            f[:, -1] -= 1.0
            done = np.abs(f).max(axis=1) < 1e-10
            converged[live[done]] = True
            live, ax, f, xs = live[~done], ax[~done], f[~done], xs[~done]
            if len(live) == 0:
                break
            xs = xs - np.einsum("snk,sk->sn", np.linalg.pinv(2.0 * ax, rcond=rcond), f)
            x[live] = xs
            live = live[~(np.linalg.norm(xs, axis=1) > 1e8)]
        out.extend(x[converged])
    return out


def certify_exactness(problem: QcqpProblem,
                      cone: SpectrahedralCone | None = None,
                      gap_samples: int = 100_000, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> ExactnessCertificate:
    """Solve the relaxation and certify whether it is exact.

    The optimizer is purified to an extreme point of the optimal face; a
    rank-1 extreme point yields the solution vector directly.  When the
    induced cone carries a complete rank-1 certificate, exactness holds
    structurally and the status says so.  A higher-rank extreme point
    triggers sampling of the rank-1 feasible set: "gap-detected" is a
    sampled claim, never a proof, and "inconclusive" is returned when
    sampling cannot tell.
    """
    sol = solve_relaxation(problem, tol)
    if sol.status in ("infeasible", "unbounded", "max-iter"):
        return ExactnessCertificate(status="inconclusive" if sol.status == "max-iter"
                                    else sol.status,
                                    x_opt=None, relaxed_value=sol.objective,
                                    extracted_value=np.nan)
    if cone is None:
        cone = induced_cone(problem)
    else:
        work = induced_cone(problem)
        for s in cone.span_basis:
            if symlin.span_distance(work.span_basis, s) > 1e-7:
                raise InvalidInputError("provided cone does not match the constraints")
        if cone.dim != work.dim:
            raise InvalidInputError("provided cone does not match the constraints")
    certified = len(cone.generators) > 0 and certificate_complete(cone)
    x_pure = purify_to_extreme(problem, cone, sol.x_mat, tol)
    dec = symlin.eig_sym(x_pure)
    rank = int(np.count_nonzero(dec.values > symlin.cut(dec.values, tol)))
    if rank == 1:
        x_opt = dec.vectors[:, 0] * np.sqrt(max(dec.values[0], 0.0))
        extracted = float(x_opt @ problem.cost @ x_opt)
        status = "exact-by-rog" if certified else "exact-with-solution"
        return ExactnessCertificate(status=status, x_opt=x_opt,
                                    relaxed_value=sol.objective,
                                    extracted_value=extracted)
    if certified:
        # structural exactness, even though this particular purification
        # path stalled above rank 1
        return ExactnessCertificate(status="exact-by-rog", x_opt=None,
                                    relaxed_value=sol.objective,
                                    extracted_value=np.nan)
    rng = np.random.default_rng(seed)
    samples = rank1_feasible_samples(problem, gap_samples, rng)
    if not samples:
        return ExactnessCertificate(status="inconclusive", x_opt=None,
                                    relaxed_value=sol.objective,
                                    extracted_value=np.nan)
    values = [float(x @ problem.cost @ x) for x in samples]
    best = min(values)
    if best > sol.objective + 1e-6 * (1.0 + abs(sol.objective)):
        return ExactnessCertificate(status="gap-detected", x_opt=None,
                                    relaxed_value=sol.objective,
                                    extracted_value=best)
    x_best = samples[int(np.argmin(values))]
    if best <= sol.objective + 1e-5 * (1.0 + abs(sol.objective)):
        return ExactnessCertificate(status="exact-with-solution", x_opt=x_best,
                                    relaxed_value=sol.objective,
                                    extracted_value=best)
    return ExactnessCertificate(status="inconclusive", x_opt=None,
                                relaxed_value=sol.objective,
                                extracted_value=best)
