"""JSON schemas for cones, decompositions, witnesses and problems.

Cones serialize as ``{"n", "span_basis", "generators", "expr"}`` with
each span element flattened to its upper triangle (row-major, i <= j).
Complex data uses ``[re, im]`` pairs and a ``"complex": true`` flag.
Cones carrying a construction expression are rebuilt from it on load,
which reproduces the original bit-for-bit because the builders are
deterministic.  Only combinator and wrapper expressions carry children;
leaf kinds (``constructions.LEAF_KINDS``) are rebuilt from their
parameters alone, and children that older files list under a leaf are
skipped on load.
"""

from __future__ import annotations

import numpy as np

from . import constructions, symlin
from .cone_model import ConeExpr, SpectrahedralCone, make_cone
from .decompose import Decomposition, RankOneAtom
from .errors import InvalidInputError
from .isomorph import IsoWitness, PartialMatrix
from .qcqp_relax import QcqpProblem


# ---------------------------------------------------------------------------
# scalars / matrices


def _num_to_json(v, complex_field: bool):
    if complex_field:
        return [float(np.real(v)), float(np.imag(v))]
    return float(v)


def _num_from_json(v):
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return float(v)


def matrix_to_json(a: np.ndarray) -> list:
    cf = np.iscomplexobj(a)
    return [[_num_to_json(v, cf) for v in row] for row in np.asarray(a)]


def matrix_from_json(rows) -> np.ndarray:
    data = [[_num_from_json(v) for v in row] for row in rows]
    a = np.array(data)
    if np.iscomplexobj(a) and np.abs(a.imag).max(initial=0.0) == 0.0:
        a = a.real
    return a


def vector_to_json(x: np.ndarray) -> list:
    cf = np.iscomplexobj(x)
    return [_num_to_json(v, cf) for v in np.asarray(x)]


def vector_from_json(vals) -> np.ndarray:
    x = np.array([_num_from_json(v) for v in vals])
    if np.iscomplexobj(x) and np.abs(x.imag).max(initial=0.0) == 0.0:
        x = x.real
    return x


def _utri_unflatten(vals, n: int) -> np.ndarray:
    nums = [_num_from_json(v) for v in vals]
    cf = any(isinstance(v, complex) for v in nums)
    a = np.zeros((n, n), dtype=complex if cf else float)
    it = iter(nums)
    for i in range(n):
        for j in range(i, n):
            v = next(it)
            a[i, j] = v
            a[j, i] = np.conj(v) if cf else v
    return a


# ---------------------------------------------------------------------------
# cones


def expr_to_json(expr: ConeExpr) -> dict:
    out = {"kind": expr.kind, "params": _params_to_json(expr.params)}
    if expr.children:
        out["children"] = [
            expr_to_json(child.expr) if child.expr is not None
            else {"kind": "raw", "params": {"cone": cone_to_json(child)}}
            for child in expr.children]
    return out


def _params_to_json(params: dict) -> dict:
    out = {}
    for key, val in params.items():
        if isinstance(val, np.ndarray):
            out[key] = val.tolist()
        else:
            out[key] = val
    return out


def _stack_to_json(a: np.ndarray, complex_field: bool) -> list:
    """Nested lists of floats, or of [re, im] pairs when complex_field."""
    if complex_field:
        return np.stack([a.real, a.imag], -1).tolist()
    return a.tolist()


def cone_to_json(cone: SpectrahedralCone) -> dict:
    iu, ju = np.triu_indices(cone.n)
    out = {
        "n": cone.n,
        "span_basis": _stack_to_json(cone.span_basis[:, iu, ju], cone.complex_field),
        "generators": _stack_to_json(cone.generators, np.iscomplexobj(cone.generators)),
    }
    if cone.complex_field:
        out["complex"] = True
    if cone.expr is not None:
        out["expr"] = expr_to_json(cone.expr)
    return out


def cone_from_json(data: dict) -> SpectrahedralCone:
    if "expr" in data and data["expr"] is not None:
        cone = build_expr(data["expr"])
        if cone.n != int(data["n"]):
            raise InvalidInputError("expression size disagrees with the stored cone")
        return cone
    n = int(data["n"])
    span = [_utri_unflatten(row, n) for row in data.get("span_basis", [])]
    gens = [vector_from_json(row) for row in data.get("generators", [])]
    complex_field = bool(data.get("complex", False))
    if not span:
        raise InvalidInputError("cone JSON carries no span")
    return make_cone(n, span, gens, expr=None, complex_field=complex_field,
                     check=False)


def build_expr(expr_json: dict) -> SpectrahedralCone:
    if expr_json.get("kind") == "raw":
        return cone_from_json(expr_json["params"]["cone"])
    node = dict(expr_json)
    if node.get("kind") not in constructions.LEAF_KINDS:
        node["children"] = [build_expr(c) for c in expr_json.get("children", [])]
    return constructions.build(node)


# ---------------------------------------------------------------------------
# decompositions, witnesses, partial matrices, problems


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "atoms": [{"weight": a.weight, "vector": vector_to_json(a.vector)}
                  for a in dec.atoms],
        "residual": dec.residual,
    }


def decomposition_from_json(data: dict) -> Decomposition:
    atoms = [RankOneAtom(weight=float(a["weight"]),
                         vector=vector_from_json(a["vector"]))
             for a in data.get("atoms", [])]
    return Decomposition(atoms=atoms, residual=float(data.get("residual", 0.0)))


def witness_to_json(w: IsoWitness) -> dict:
    return {"S": matrix_to_json(w.s_matrix),
            "sigma": [int(s) for s in np.sign(w.sigma)]}


def partial_matrix_from_json(data: dict) -> PartialMatrix:
    n, m = data["shape"]
    entries = {(int(e["i"]), int(e["j"])): float(e["v"])
               for e in data.get("entries", [])}
    return PartialMatrix(int(n), int(m), entries)


def qcqp_from_json(data: dict) -> QcqpProblem:
    return QcqpProblem(cost=matrix_from_json(data["S"]),
                       normalization=matrix_from_json(data["B"]),
                       constraints=[matrix_from_json(a) for a in data.get("A", [])])


def matrix_argument(data) -> np.ndarray:
    """Accept either a bare nested list or {"matrix": [...]}."""
    if isinstance(data, dict):
        data = data.get("matrix", data.get("X"))
        if data is None:
            raise InvalidInputError("no matrix found in input")
    return matrix_from_json(data)
