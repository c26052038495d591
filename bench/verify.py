"""Output checks for the benchmark operations.

Each check takes an operation's output and returns ``None`` when it is
right or a one-line reason when it is not; checks never raise.  The
bounds are those of the package's tier-1 tests that each check mirrors
(named in the docstrings), never looser.  Spans, ranks and residuals are
recomputed here with numpy instead of being read back from the program.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import Qcqp, Spec, numeric_rank

SPAN_TOL = 1e-7        # atoms / generators in the span (test_decompose: 1e-7 * 2 for unit x)
RESIDUAL_TOL = 1e-7    # reconstruction residual, relative to 1 + |X| (test_decompose)
UNIT_TOL = 1e-10       # atom vectors are unit vectors (test_decompose)
INDEP_TOL = 1e-7       # smallest singular value of the stacked atom vectors (test_decompose)
ISO_TOL = 1e-7         # witness images stay in the span (test_cross_ratio_cones_isomorphism)
QCQP_TOL = 1e-6        # values and feasibility (test_solver_matches_eigenvalue, test_certify_codim1_exact)
GAP_MARGIN = 1e-3      # relaxed value below the 4-cycle oracle (test_certify_four_cycle_gap)


class SpanProjector:
    """Orthogonal projection onto the real span of a stack of matrices."""

    def __init__(self, mats):
        rows = np.array([_vec(m) for m in mats])
        q, r = np.linalg.qr(rows.T)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max(initial=0.0)))
        self.q = q[:, keep]

    def distance(self, mat) -> float:
        v = _vec(mat)
        return float(np.linalg.norm(v - self.q @ (self.q.T @ v)))


def _vec(a) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.concatenate([a.real.ravel(), a.imag.ravel()])
    return a.ravel().astype(float)


def _num(v):
    return complex(v[0], v[1]) if isinstance(v, list) else float(v)


def _unflatten(vals, n: int, complex_field: bool) -> np.ndarray:
    a = np.zeros((n, n), dtype=complex if complex_field else float)
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            v = _num(next(it))
            a[i, j] = v
            a[j, i] = np.conj(v) if complex_field else v
    return a


def cone_json_span(data: dict) -> SpanProjector:
    n = int(data["n"])
    cf = bool(data.get("complex", False))
    return SpanProjector([_unflatten(row, n, cf) for row in data["span_basis"]])


# ---------------------------------------------------------------------------
# build-analyze


def check_build(spec: Spec, rc: int, text: str | None, roundtrip) -> str | None:
    """`rog build` output: size, closed-form dimension, generators in the
    span (test_cone_model), and a bit-exact JSON round trip.

    ``roundtrip`` maps the parsed cone JSON to the JSON of the cone the
    program rebuilds from it.
    """
    if rc != 0 or text is None:
        return f"build exited with {rc}"
    data = json.loads(text)
    if int(data["n"]) != spec.n:
        return f"size {data['n']} != {spec.n}"
    if len(data["span_basis"]) != spec.dim:
        return f"dimension {len(data['span_basis'])} != closed form {spec.dim}"
    if not data["generators"]:
        return "no generators"
    span = cone_json_span(data)
    for k, g in enumerate(data["generators"]):
        x = np.array([_num(v) for v in g])
        p = np.outer(x, x.conj())
        if span.distance(p) > SPAN_TOL * (1.0 + np.linalg.norm(p)):
            return f"generator {k} outer product is off the span"
    if roundtrip(data) != data:
        return "JSON round trip is not bit-exact"
    return None


def check_analyze(spec: Spec, rc: int, text: str | None) -> str | None:
    """`rog analyze` report: dimension, degree and a complete certificate."""
    if rc != 0 or text is None:
        return f"analyze exited with {rc}"
    rep = json.loads(text)
    if rep.get("n") != spec.n:
        return f"size {rep.get('n')} != {spec.n}"
    if rep.get("dim") != spec.dim:
        return f"dimension {rep.get('dim')} != closed form {spec.dim}"
    if rep.get("degree") != spec.degree:
        return f"degree {rep.get('degree')} != {spec.degree}"
    if rep.get("certificate_complete") is not True:
        return "certificate not complete"
    return None


# ---------------------------------------------------------------------------
# decompose-query


def check_decomposition(x_mat: np.ndarray, dec, span: SpanProjector,
                        pullback: np.ndarray | None = None) -> str | None:
    """Atom count = rank, unit atoms in the span, small residual and
    independent atom vectors (test_decompose.check_decomposition).

    With ``pullback`` = A^{-1} the atoms of a cone moved by A are mapped
    back and checked against the unmoved cone's span.
    """
    atoms = dec.atoms
    rank = numeric_rank(x_mat)
    if len(atoms) != rank:
        return f"{len(atoms)} atoms for rank {rank}"
    total = np.zeros_like(x_mat, dtype=complex if np.iscomplexobj(x_mat) else float)
    for k, a in enumerate(atoms):
        v = np.asarray(a.vector)
        if not a.weight >= 0:
            return f"atom {k} has weight {a.weight}"
        if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
            return f"atom {k} is not a unit vector"
        w = pullback @ v if pullback is not None else v
        w = w / np.linalg.norm(w)
        if span.distance(np.outer(w, w.conj())) > 2.0 * SPAN_TOL:
            return f"atom {k} is off the span"
        total = total + a.weight * np.outer(v, v.conj())
    resid = float(np.linalg.norm(x_mat - total))
    if resid > RESIDUAL_TOL * (1.0 + np.linalg.norm(x_mat)):
        return f"residual {resid:.3e} over bound"
    if atoms:
        sv = np.linalg.svd(np.array([a.vector for a in atoms]), compute_uv=False)
        if sv[-1] <= INDEP_TOL:
            return "atom vectors are linearly dependent"
    return None


def check_iso(out, expected: str, span1: SpanProjector, mats1,
              span2: SpanProjector, mats2) -> str | None:
    """Status as expected; a witness S maps span 1 into span 2 and S^{-1}
    maps span 2 into span 1."""
    if out.status != expected:
        return f"status {out.status} != {expected} ({out.reason})"
    if expected != "isomorphic":
        return None
    if out.witness is None:
        return "isomorphic without a witness"
    s = np.asarray(out.witness.s_matrix)
    for a, mats, span in ((s, mats1, span2), (np.linalg.inv(s), mats2, span1)):
        for m in mats:
            img = a @ m @ a.conj().T
            if span.distance(img) > ISO_TOL:
                return "witness does not map the spans onto each other"
    return None


def check_label(label, expected: dict) -> str | None:
    got = label.to_json()
    if got != expected:
        return f"label {got} != {expected}"
    return None


# ---------------------------------------------------------------------------
# qcqp-certify


EXACT = ("exact-with-solution", "exact-by-rog")


def check_qcqp(inst: Qcqp, rc: int, text: str | None) -> str | None:
    """`rog qcqp` report against the instance's independent oracle.

    The relaxed value never exceeds the oracle and matches it where the
    relaxation is exact; an extracted x is feasible and attains its value;
    a sampled value never beats the oracle; a reported gap is real.
    """
    if rc != 0 or text is None:
        return f"qcqp exited with {rc}"
    rep = json.loads(text)
    status = rep["status"]
    relaxed = rep["relaxed_value"]
    extracted = rep["extracted_value"]
    oracle = inst.oracle
    if status not in EXACT + ("gap-detected", "inconclusive"):
        return f"status {status}"
    if not relaxed <= oracle + QCQP_TOL:
        return f"relaxed value {relaxed!r} above oracle {oracle:.9g}"
    if inst.exact and status not in EXACT:
        return f"status {status} on an exact instance"
    if status in EXACT and abs(relaxed - oracle) > QCQP_TOL:
        return f"relaxed value {relaxed:.9g} != oracle {oracle:.9g} ({status})"
    if inst.name.startswith("four_cycle"):
        if status not in ("gap-detected", "inconclusive"):
            return f"status {status} on the gap instance"
        if not relaxed < oracle - GAP_MARGIN:
            return f"relaxed value {relaxed:.9g} not below oracle {oracle:.9g} - 1e-3"
    if status == "gap-detected":
        if not relaxed < oracle - QCQP_TOL:
            return f"gap reported but relaxed {relaxed:.9g} ~ oracle {oracle:.9g}"
        if not extracted >= oracle - QCQP_TOL:
            return f"sampled value {extracted:.9g} beats the oracle {oracle:.9g}"
    if "x_opt" in rep:
        x = np.array(rep["x_opt"], dtype=float)
        if abs(x @ x - 1.0) > QCQP_TOL:
            return "x_opt violates x^T x = 1"
        for k, a in enumerate(inst.forms):
            if abs(x @ a @ x) > QCQP_TOL:
                return f"x_opt violates constraint {k}"
        val = float(x @ inst.s @ x)
        if abs(val - extracted) > QCQP_TOL:
            return f"extracted value {extracted:.9g} != x^T S x = {val:.9g}"
        if val < oracle - QCQP_TOL:
            return f"feasible x beats the oracle: {val:.9g} < {oracle:.9g}"
    elif status == "exact-with-solution":
        return "exact-with-solution without x_opt"
    return None
