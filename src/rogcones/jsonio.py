"""JSON schemas for cones, decompositions, witnesses and problems.

Every array crosses the boundary in one format, written by
``symlin.to_json_array`` and read by ``symlin.from_json_array``: nested
lists of floats, with each complex entry an ``[re, im]`` pair.  Cones
serialize as ``{"n", "span_basis", "generators", "expr"}`` with each span
element flattened to its upper triangle (row-major, i <= j) and a
``"complex": true`` flag over the complex field; the array params of an
expression are encoded here.  Cones carrying a construction expression
are rebuilt from it on load, which reproduces the original bit-for-bit
because the builders are deterministic.  Only combinator and wrapper
expressions carry children; leaf kinds are rebuilt from their parameters
alone, and a leaf that lists children is rejected on load.  Raw cones,
without an expression, are input from outside: their generators are
checked against their span.
"""

from __future__ import annotations

import numpy as np

from . import constructions
from .cone_model import ConeExpr, SpectrahedralCone, make_cone
from .decompose import Decomposition
from .errors import InvalidInputError
from .isomorph import IsoWitness, PartialMatrix
from .qcqp_relax import QcqpProblem
from .symlin import from_json_array, from_json_int, to_json_array


# ---------------------------------------------------------------------------
# cones


def expr_to_json(expr: ConeExpr) -> dict:
    out = {"kind": expr.kind,
           "params": {key: to_json_array(val) if isinstance(val, np.ndarray) else val
                      for key, val in expr.params.items()}}
    if expr.children:
        out["children"] = [
            expr_to_json(child.expr) if child.expr is not None
            else {"kind": "raw", "params": {"cone": cone_to_json(child)}}
            for child in expr.children]
    return out


def cone_to_json(cone: SpectrahedralCone) -> dict:
    iu, ju = np.triu_indices(cone.n)
    out = {
        "n": cone.n,
        "span_basis": to_json_array(cone.span_basis[:, iu, ju]),
        "generators": to_json_array(cone.generators),
    }
    if cone.complex_field:
        out["complex"] = True
    if cone.expr is not None:
        out["expr"] = expr_to_json(cone.expr)
    return out


def _object(data, what: str) -> dict:
    """data, when it is a JSON object; InvalidInputError otherwise."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} must be a JSON object")
    return data


def cone_from_json(data: dict) -> SpectrahedralCone:
    n = from_json_int(_object(data, "a cone")["n"], "cone n")
    if data.get("expr") is not None:
        cone = build_expr(data["expr"])
        if cone.n != n:
            raise InvalidInputError("expression size disagrees with the stored cone")
        return cone
    complex_field = bool(data.get("complex", False))
    rows = from_json_array(data.get("span_basis", []), 2)
    if len(rows) == 0:
        raise InvalidInputError("cone JSON carries no span")
    iu, ju = np.triu_indices(n)
    if rows.ndim != 2 or rows.shape[1] != len(iu):
        raise InvalidInputError(f"span rows must hold the {len(iu)} upper-triangle entries")
    span = np.zeros((len(rows), n, n), dtype=complex if complex_field else rows.dtype)
    span[:, iu, ju] = rows
    span[:, ju, iu] = span[:, iu, ju].conj()  # second: the diagonal holds the conjugate
    gens = from_json_array(data.get("generators", []), 2)
    if len(gens) and (gens.ndim != 2 or gens.shape[1] != n):
        raise InvalidInputError(f"generators must be vectors of length {n}")
    # input from outside: make_cone checks each generator against the span
    return make_cone(n, span, gens, expr=None)


def build_expr(expr_json: dict) -> SpectrahedralCone:
    if not isinstance(expr_json, dict):
        raise InvalidInputError("a cone expression must be a JSON object")
    if expr_json.get("kind") == "raw":
        params = expr_json.get("params")
        if not isinstance(params, dict):
            raise InvalidInputError("raw params must be an object")
        return cone_from_json(params["cone"])
    children = expr_json.get("children", [])
    if not isinstance(children, list):
        raise InvalidInputError("expression children must be a list")
    node = dict(expr_json)
    node["children"] = [build_expr(c) for c in children]
    return constructions.build(node)


# ---------------------------------------------------------------------------
# decompositions, witnesses, partial matrices, problems


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "atoms": [{"weight": a.weight, "vector": to_json_array(a.vector)}
                  for a in dec.atoms],
        "residual": dec.residual,
    }


def witness_to_json(w: IsoWitness) -> dict:
    return {"S": to_json_array(w.s_matrix),
            "sigma": [int(s) for s in np.sign(w.sigma)]}


def partial_from_json(data: dict) -> PartialMatrix:
    shape, items = _object(data, "a partial matrix")["shape"], data.get("entries", [])
    if not (isinstance(shape, list) and len(shape) == 2):
        raise InvalidInputError("shape must be a pair [rows, cols]")
    if not isinstance(items, list):
        raise InvalidInputError("entries must be a list")
    entries = {}
    for e in items:
        v = _object(e, "an entry")["v"]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InvalidInputError(f"entry value must be a number, got {v!r}")
        entries[from_json_int(e["i"], "entry i"), from_json_int(e["j"], "entry j")] = v
    return PartialMatrix(from_json_int(shape[0], "shape"), from_json_int(shape[1], "shape"),
                         entries)


def qcqp_from_json(data: dict) -> QcqpProblem:
    forms = _object(data, "a problem").get("A", [])
    if not isinstance(forms, list):
        raise InvalidInputError('"A" must be a list of matrices')
    return QcqpProblem(cost=from_json_array(data["S"], 2),
                       normalization=from_json_array(data["B"], 2),
                       constraints=[from_json_array(a, 2) for a in forms])


def matrix_argument(data) -> np.ndarray:
    """Accept either a bare nested list or {"matrix": [...]}."""
    if isinstance(data, dict):
        data = data.get("matrix")
        if data is None:
            raise InvalidInputError("no matrix found in input")
    return from_json_array(data, 2)
