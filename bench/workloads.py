"""The three benchmark workloads.

A workload's ``setup`` generates its inputs from the seed, writes the
JSON files its CLI operations read, prebuilds what it holds fixed, and
returns the fixed list of :class:`Op` that one pass runs in order.  Every
call into the package goes through a module attribute looked up at call
time (``lib.decompose.decompose``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs as I
import verify as V

# --gap-samples for `rog qcqp`: enough for the sampler to dominate the 4-cycle
# operations, few enough to keep a pass near 3 s
GAP_SAMPLES = 100


class Lib:
    """The package's modules by short name (``rogcones.decompose`` itself is
    the function of that name, re-exported by the package)."""

    def __init__(self):
        for name in ("cli", "jsonio", "constructions", "cone_model", "decompose",
                     "isomorph", "pencil_struct", "qcqp_relax", "symlin"):
            setattr(self, name, importlib.import_module(f"rogcones.{name}"))


@dataclass
class Op:
    """One timed operation and the untimed check of its output.

    ``run`` does the operation; ``collect`` turns what it returned into
    the output to check (reading files happens here, outside the timer);
    ``check`` returns None or a failure reason.  ``key`` fingerprints an
    output; an output whose fingerprint was checked before reuses that
    verdict, so the operations, which are deterministic, are checked in
    full once per run.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    collect: Callable[[Any], Any] = lambda out: out
    key: Callable[[Any], Any] | None = None


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def _cli_op(lib: Lib, name: str, argv: list[str], out_path: str,
            check: Callable[[int, str | None], str | None]) -> Op:
    return Op(name, run=lambda: lib.cli.run(argv),
              collect=lambda rc: (rc, _read(out_path)),
              check=lambda res: check(*res), key=lambda res: res)


def _decomposition_key(dec):
    return tuple((a.weight, np.asarray(a.vector).tobytes()) for a in dec.atoms)


def _iso_key(out):
    s = None if out.witness is None else np.asarray(out.witness.s_matrix).tobytes()
    return out.status, out.reason, s


# ---------------------------------------------------------------------------
# build-analyze

# ten n = 14 graphs make the analyze calls ranked 3rd to 12th slowest one
# group, so op_ms_p90 (about the 11th slowest of 100) sits inside it
CHORDAL_SIZES = (12,) + (14,) * 10 + (40,)
NESTED_REAL = 30
NESTED_TOEPLITZ = 8


def setup_build_analyze(lib: Lib, seed: int, workdir: str) -> list[Op]:
    """`rog build` then `rog analyze` on chordal graphs and nested expressions.

    The seed draws the graphs and every number in the expressions; the
    expression trees themselves come from fixed shape seeds, so each seed
    asks for the same amount of work.
    """
    rng = np.random.default_rng([seed, 1])
    specs = [I.chordal(n, I.chordal_graph(rng, n, connect=1.0)) for n in CHORDAL_SIZES]
    specs += [I.nested_expr(np.random.default_rng([k, 101]), rng)
              for k in range(NESTED_REAL)]
    specs += [I.toeplitz_expr(np.random.default_rng([k, 102]), rng, k % 2)
              for k in range(NESTED_TOEPLITZ)]

    return build_analyze_ops(lib, specs, workdir)


def build_analyze_ops(lib: Lib, specs: list[I.Spec], workdir: str) -> list[Op]:
    """A `rog build` and a `rog analyze` operation for each spec."""
    def roundtrip(data):
        return lib.jsonio.cone_to_json(lib.jsonio.cone_from_json(data))

    ops = []
    for k, spec in enumerate(specs):
        expr_path = os.path.join(workdir, f"expr{k}.json")
        cone_path = os.path.join(workdir, f"cone{k}.json")
        rep_path = os.path.join(workdir, f"analyze{k}.json")
        _write_json(expr_path, spec.expr)
        ops.append(_cli_op(lib, f"build:{spec.label}",
                           ["build", "--expr", expr_path, "--out", cone_path], cone_path,
                           lambda rc, text, s=spec: V.check_build(s, rc, text, roundtrip)))
        ops.append(_cli_op(lib, f"analyze:{spec.label}",
                           ["analyze", cone_path, "--out", rep_path], rep_path,
                           lambda rc, text, s=spec: V.check_analyze(s, rc, text)))
    return ops


# ---------------------------------------------------------------------------
# decompose-query

CATALOG = [
    ({"kind": "full_psd", "params": {"n": 1}}, {"tag": "FullPsd", "n": 1}),
    ({"kind": "full_psd", "params": {"n": 2}}, {"tag": "FullPsd", "n": 2}),
    ({"kind": "full_psd", "params": {"n": 3}}, {"tag": "FullPsd", "n": 3}),
    ({"kind": "hankel", "params": {"n": 3, "m": 1}},
     {"tag": "Codim1", "n": 3, "signature": [2, 1, 0]}),
    ({"kind": "tridiag", "params": {"n": 3}}, {"tag": "Tri", "n": 3}),
    ({"kind": "full_psd", "params": {"n": 4}}, {"tag": "FullPsd", "n": 4}),
    ({"kind": "full_ext", "params": {"n": 4},
      "children": [{"kind": "diagonal", "params": {"n": 2}}]},
     {"tag": "FullExtDiag2", "n": 4}),
    ({"kind": "full_ext", "params": {"n": 4},
      "children": [{"kind": "hankel", "params": {"n": 3, "m": 1}}]},
     {"tag": "FullExtHan3", "n": 4}),
    ({"kind": "hankel", "params": {"n": 2, "m": 2}}, {"tag": "Han22", "n": 4}),
    ({"kind": "codim1", "params": {"Q": np.diag([1.0, 1.0, 1.0, -1.0]).tolist()}},
     {"tag": "Codim1", "n": 4, "signature": [3, 1, 0]}),
    ({"kind": "full_ext", "params": {"n": 4},
      "children": [{"kind": "direct_sum", "params": {},
                    "children": [{"kind": "full_psd", "params": {"n": 1}},
                                 {"kind": "full_psd", "params": {"n": 2}}]}]},
     {"tag": "Codim2FullExt", "n": 4}),
    ({"kind": "tridiag", "params": {"n": 4}}, {"tag": "Tri", "n": 4}),
    ({"kind": "full_ext", "params": {"n": 4},
      "children": [{"kind": "diagonal", "params": {"n": 3}}]},
     {"tag": "FullExtDiag3", "n": 4}),
    ({"kind": "intertwine", "params": {"rank": 1, "iota1": [[1.0], [1.0], [1.0]],
                                       "iota2": [[1.0], [0.0]]},
      "children": [{"kind": "hankel", "params": {"n": 3, "m": 1}},
                   {"kind": "full_psd", "params": {"n": 2}}]},
     {"tag": "IntertwineHan3S2", "n": 4}),
    ({"kind": "hankel", "params": {"n": 4, "m": 1}}, {"tag": "Han4", "n": 4}),
    ({"kind": "direct_sum", "params": {},
      "children": [{"kind": "full_psd", "params": {"n": 1}},
                   {"kind": "full_psd", "params": {"n": 2}}]},
     {"tag": "DirectSum", "children": [{"tag": "FullPsd", "n": 1},
                                       {"tag": "FullPsd", "n": 2}]}),
    ({"kind": "diagonal", "params": {"n": 3}},
     {"tag": "DirectSum", "children": [{"tag": "FullPsd", "n": 1}] * 3}),
]


class _Cone:
    """A prebuilt cone with the span projector its checks use (made lazily,
    on first check, so that it is not part of set-up)."""

    def __init__(self, cone):
        self.cone = cone
        self._span = None

    @property
    def span(self) -> V.SpanProjector:
        if self._span is None:
            self._span = V.SpanProjector(self.cone.span_basis)
        return self._span


# Highest member ranks used, per route.  At higher ranks the engines reject
# a valid member now and then (one in 50 to 500 draws per rank, more the
# nearer full rank): peeling stalls or returns an extra atom, the chordal
# split finds a rank-deficient member "not positive semidefinite", the
# full-extension residual exceeds its bound.  bench/defects.py runs such
# members.
HANKEL_RANK_MAX = {4: 3, 5: 3, 6: 3, 7: 2, 8: 2}
CHORDAL_RANK_MAX = {6: 3, 8: 2, 10: 2}
INTERTWINE_RANK_MAX = 2
FULL_EXT_RANK_MAX = 1
CROSS_RATIO_RANK_MAX = 4


def _decompose_cases(rng: np.random.Generator) -> list[tuple[str, I.Spec, np.ndarray]]:
    """(route, spec, member) triples covering every decomposition route."""
    cases = []

    def add(route, spec, count, rmax=None):
        # ranks spread evenly over 1..rmax, so the work does not depend on the seed
        rmax = rmax or spec.degree
        for k in range(count):
            r = max(1, round(rmax * (k + 1) / count))
            cases.append((route, spec, I.member_of_rank(rng, spec, r)))

    for n in (4, 5, 6, 7, 8):
        add("hankel", I.hankel(n), 2, rmax=HANKEL_RANK_MAX[n])
    add("hankel", I.hankel(3, 2), 2, rmax=4)
    for n in (4, 4, 5, 5):
        for r in (n, n, n - 1):
            cases.append(("hankel-clustered", I.hankel(n),
                          I.clustered_hankel_member(rng, n, r, gap=0.15)))
    for n, m in ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2)):
        add("block_toeplitz", I.block_toeplitz(n, m), 2)
    for n in (6, 6, 8, 8, 10):
        add("chordal", I.chordal(n, I.chordal_graph(rng, n)), 2,
            rmax=CHORDAL_RANK_MAX[n])
    for n in (3, 4, 5, 3, 4):
        spec = I.glue(rng, I.hankel(n),
                      I.glue(rng, I.full_psd(3), I.cross_ratio([0.2, 0.9, 1.6, 2.5])))
        add("intertwine", spec, 2, rmax=INTERTWINE_RANK_MAX)
    for child, n in ((I.hankel(3), 5), (I.hankel(4), 6), (I.codim1(rng, 3), 5),
                     (I.full_psd(2), 4)):
        add("full_ext", I.full_ext(child, n), 2, rmax=FULL_EXT_RANK_MAX)
    for n in (3, 4, 4, 5):
        add("codim1", I.codim1(rng, n), 2)
    for angles in ([0.15, 0.8, 1.65, 2.4], [0.3, 0.9, 1.7, 2.5], [0.1, 1.0, 1.9, 2.8]):
        add("cross_ratio", I.cross_ratio(angles), 2, rmax=CROSS_RATIO_RANK_MAX)
    return cases


def cone_cache(lib: Lib) -> Callable[[dict], _Cone]:
    """Builds each expression once: the returned function maps an
    expression to its prebuilt cone."""
    built: dict[str, _Cone] = {}

    def cone_of(spec_expr) -> _Cone:
        key = json.dumps(spec_expr, sort_keys=True)
        if key not in built:
            built[key] = _Cone(lib.constructions.build(spec_expr))
        return built[key]
    return cone_of


def decompose_op(lib: Lib, route: str, spec: I.Spec, c: _Cone, x_mat: np.ndarray) -> Op:
    return Op(f"decompose:{route}:{spec.label}:r{I.numeric_rank(x_mat)}",
              run=lambda: lib.decompose.decompose(c.cone, x_mat),
              check=lambda dec: V.check_decomposition(x_mat, dec, c.span),
              key=_decomposition_key)


def iso_op(lib: Lib, label: str, k1: _Cone, k2: _Cone, expected: str) -> Op:
    return Op(f"iso:{label}", run=lambda: lib.isomorph.cones_isomorphic(k1.cone, k2.cone),
              check=lambda out: V.check_iso(out, expected, k1.span, k1.cone.span_basis,
                                            k2.span, k2.cone.span_basis),
              key=_iso_key)


def congruent_copy(lib: Lib, rng: np.random.Generator, k1: _Cone) -> _Cone:
    return _Cone(lib.cone_model.apply_congruence(
        k1.cone, I.congruence(rng, k1.cone.n), keep_expr=False))


def setup_decompose_query(lib: Lib, seed: int, workdir: str) -> list[Op]:
    """Library calls: decompose on every route, cones_isomorphic, classify_small."""
    rng = np.random.default_rng([seed, 2])
    cone_of = cone_cache(lib)
    ops = [decompose_op(lib, route, spec, cone_of(spec.expr), x_mat)
           for route, spec, x_mat in _decompose_cases(rng)]
    moved = [I.hankel(5), I.chordal(8, I.chordal_graph(rng, 8)),
             I.full_ext(I.hankel(3), 5), I.codim1(rng, 4)]
    for spec in moved:
        for r in (1, max(1, spec.degree // 3)):
            c = cone_of(spec.expr)
            a = I.congruence(rng, spec.n)
            x_mat = I.member_of_rank(rng, spec, r)
            y_mat = a @ x_mat @ a.T

            def run(c=c, a=a, y=y_mat):
                return lib.decompose.decompose(lib.cone_model.apply_congruence(c.cone, a), y)
            ops.append(Op(f"decompose:moved:{spec.label}:r{r}", run=run,
                          check=lambda dec, c=c, a=a, y=y_mat: V.check_decomposition(
                              y, dec, c.span, pullback=np.linalg.inv(a)),
                          key=_decomposition_key))

    iso_pairs = []
    # chordal pairs are trees: on chordal graphs with a triangle the
    # codimension-1 test misreads congruent copies (bench/defects.py)
    congruent = [I.hankel(3), I.hankel(4), I.hankel(3, 2), I.chordal(3, [(0, 1), (1, 2)]),
                 I.chordal(5, I.chordal_graph(rng, 5, clique_max=1)),
                 I.chordal(6, I.chordal_graph(rng, 6, clique_max=1)),
                 I.codim1(rng, 4),
                 I.full_ext(I.hankel(3), 5), I.glue(rng, I.hankel(3), I.full_psd(2))]
    for spec in congruent:
        k1 = cone_of(spec.expr)
        iso_pairs.append((spec.label, k1, congruent_copy(lib, rng, k1), "isomorphic"))
    base = [0.15, 0.8, 1.65, 2.4]
    iso_pairs.append(("cross_ratio", cone_of(I.cross_ratio(base).expr),
                      cone_of(I.cross_ratio([base[2], base[0], base[3], base[1]]).expr),
                      "isomorphic"))
    for a, b in ((I.hankel(3), I.chordal(3, [(0, 1), (1, 2)])),
                 (I.hankel(3), I.hankel(4)),
                 (I.hankel(4), I.full_psd(4)),
                 (I.cross_ratio(base), I.cross_ratio([0.15, 0.8, 1.65, 3.0]))):
        iso_pairs.append((f"{a.label}~{b.label}", cone_of(a.expr), cone_of(b.expr),
                          "not_isomorphic"))
    ops += [iso_op(lib, *pair) for pair in iso_pairs]

    for expr, label in CATALOG:
        cones = [cone_of(expr).cone]
        n = cones[0].n
        if label["tag"] != "DirectSum":
            cones.append(lib.cone_model.apply_congruence(
                cones[0], I.congruence(rng, n), keep_expr=False))
        for cone in cones:
            ops.append(Op(f"classify:{label['tag']}{label.get('n', '')}",
                          run=lambda cone=cone: lib.pencil_struct.classify_small(cone),
                          check=lambda out, e=label: V.check_label(out, e),
                          key=lambda out: json.dumps(out.to_json())))
    return ops


# ---------------------------------------------------------------------------
# qcqp-certify

FREE_SIZES = (4,) * 8 + (5,) * 7 + (6,) * 5 + (7,) * 3 + (8,) * 2 + (9, 10, 11, 16)
CHORDAL_PATTERN_SIZES = (4,) * 6 + (5,) * 6 + (6,) * 4 + (7,) * 3 + (8,) * 2 + (9, 10)
CODIM1_SIZES = (2,) * 8 + (3,) * 8 + (4,) * 7 + (5,) * 7
CYCLE_SIZES = (5,) * 5 + (6,) * 5
# twelve 4-cycle gap instances, all reaching the sampler, hold op_ms_p90
MOVED_GAP_INSTANCES = 11


def qcqp_instances(rng: np.random.Generator) -> list[I.Qcqp]:
    out = [I.unconstrained_qcqp(rng, n) for n in FREE_SIZES]
    for n in CHORDAL_PATTERN_SIZES:
        out.append(I.pattern_qcqp(rng, n, I.chordal_graph(rng, n), f"chordal{n}", True))
    out += [I.codim1_qcqp(rng, n) for n in CODIM1_SIZES]
    out.append(I.four_cycle_gap())
    out += [I.four_cycle_gap(rng) for _ in range(MOVED_GAP_INSTANCES)]
    for n in CYCLE_SIZES:
        out.append(I.pattern_qcqp(rng, n, I.cycle_edges(n), f"cycle{n}", False))
    return out


def setup_qcqp_certify(lib: Lib, seed: int, workdir: str) -> list[Op]:
    """`rog qcqp --gap-samples GAP_SAMPLES` on problems with independent oracles."""
    rng = np.random.default_rng([seed, 3])
    return qcqp_ops(lib, qcqp_instances(rng), workdir)


def qcqp_ops(lib: Lib, instances: list[I.Qcqp], workdir: str) -> list[Op]:
    """A `rog qcqp --gap-samples GAP_SAMPLES` operation for each instance."""
    ops = []
    for k, inst in enumerate(instances):
        prob_path = os.path.join(workdir, f"qcqp{k}.json")
        out_path = os.path.join(workdir, f"qcqp{k}.out.json")
        _write_json(prob_path, inst.to_json())
        ops.append(_cli_op(lib, f"qcqp:{inst.name}",
                           ["qcqp", prob_path, "--gap-samples", str(GAP_SAMPLES),
                            "--out", out_path], out_path,
                           lambda rc, text, q=inst: V.check_qcqp(q, rc, text)))
    return ops


WORKLOADS = {
    "build-analyze": setup_build_analyze,
    "decompose-query": setup_decompose_query,
    "qcqp-certify": setup_qcqp_certify,
}
