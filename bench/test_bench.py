"""Self-tests of the benchmark: the verifier catches corrupted outputs, the
runner counts failures without raising, and the tracer's accounting adds up.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import importlib
import json
import time

import numpy as np
import pytest

import rogcones as rc
from rogcones.pencil_struct import ClassLabel

import inputs as I
import verify as V
from harness import Runner
from spans import Tracer
from workloads import Op

jsonio = importlib.import_module("rogcones.jsonio")


def moment(t, n=3):
    return t ** np.arange(n)


@pytest.fixture
def hankel_case():
    cone = rc.hankel_cone(3)
    x = 2.0 * np.outer(moment(0.5), moment(0.5)) + np.outer(moment(-1.0), moment(-1.0))
    return cone, x, rc.decompose(cone, x), V.SpanProjector(cone.span_basis)


def test_decomposition_check_passes(hankel_case):
    cone, x, dec, span = hankel_case
    assert V.check_decomposition(x, dec, span) is None


def test_decomposition_dropped_atom(hankel_case):
    cone, x, dec, span = hankel_case
    dec.atoms = dec.atoms[:-1]
    assert "atoms for rank" in V.check_decomposition(x, dec, span)


def test_decomposition_shifted_weight(hankel_case):
    cone, x, dec, span = hankel_case
    dec.atoms[0] = rc.RankOneAtom(dec.atoms[0].weight * (1.0 + 1e-3), dec.atoms[0].vector)
    assert "residual" in V.check_decomposition(x, dec, span)


def test_decomposition_atom_off_span(hankel_case):
    cone, x, dec, span = hankel_case
    v = dec.atoms[0].vector + np.array([0.0, 1e-3, 0.0])
    dec.atoms[0] = rc.RankOneAtom(dec.atoms[0].weight, v / np.linalg.norm(v))
    assert "off the span" in V.check_decomposition(x, dec, span)


def test_decomposition_moved_cone(hankel_case):
    cone, x, dec, span = hankel_case
    a = I.congruence(np.random.default_rng(0), 3)
    moved = rc.decompose(rc.apply_congruence(cone, a), a @ x @ a.T)
    assert V.check_decomposition(a @ x @ a.T, moved, span, np.linalg.inv(a)) is None
    assert V.check_decomposition(a @ x @ a.T, moved, span) is not None


def test_label_check():
    assert V.check_label(ClassLabel("Tri", n=3), {"tag": "Tri", "n": 3}) is None
    assert V.check_label(ClassLabel("Han4", n=3), {"tag": "Tri", "n": 3}) is not None


def test_iso_check():
    k1 = rc.hankel_cone(3)
    k2 = rc.apply_congruence(k1, I.congruence(np.random.default_rng(1), 3), keep_expr=False)
    out = rc.cones_isomorphic(k1, k2)
    args = (V.SpanProjector(k1.span_basis), k1.span_basis,
            V.SpanProjector(k2.span_basis), k2.span_basis)
    assert V.check_iso(out, "isomorphic", *args) is None
    assert V.check_iso(out, "not_isomorphic", *args) is not None
    out.witness.s_matrix = out.witness.s_matrix + 1e-3 * np.eye(3)[::-1]
    assert "witness" in V.check_iso(out, "isomorphic", *args)


def qcqp_report(status, relaxed, extracted, x=None):
    rep = {"status": status, "relaxed_value": relaxed, "extracted_value": extracted}
    if x is not None:
        rep["x_opt"] = list(x)
    return json.dumps(rep)


def test_qcqp_check_exact_instance():
    inst = I.Qcqp("free2", np.diag([1.0, 2.0]), [], 1.0, True)
    assert V.check_qcqp(inst, 0, qcqp_report("exact-with-solution", 1.0, 1.0, [1.0, 0.0])) is None
    for bad in (qcqp_report("exact-with-solution", 1.0 + 1e-3, 1.0, [1.0, 0.0]),
                qcqp_report("exact-with-solution", 1.0 - 1e-3, 1.0, [1.0, 0.0]),
                qcqp_report("exact-with-solution", 1.0, 1.0, [1.0, 0.01]),
                qcqp_report("exact-with-solution", 1.0, 1.0),
                qcqp_report("gap-detected", 1.0, 1.5),
                qcqp_report("inconclusive", 1.0, float("nan"))):
        assert V.check_qcqp(inst, 0, bad) is not None, bad
    assert V.check_qcqp(inst, 1, None) is not None


def test_qcqp_check_constraint_and_gap():
    inst = I.four_cycle_gap()
    relaxed = inst.oracle - 0.09
    assert V.check_qcqp(inst, 0, qcqp_report("gap-detected", relaxed, inst.oracle + 0.1)) is None
    assert V.check_qcqp(inst, 0, qcqp_report("inconclusive", relaxed, float("nan"))) is None
    assert V.check_qcqp(inst, 0, qcqp_report("exact-by-rog", relaxed, float("nan"))) is not None
    assert V.check_qcqp(inst, 0, qcqp_report("gap-detected", relaxed, inst.oracle - 1e-3)) \
        is not None
    assert V.check_qcqp(inst, 0, qcqp_report("gap-detected", inst.oracle - 1e-4,
                                             inst.oracle + 0.1)) is not None


def test_qcqp_check_infeasible_x():
    s = I.sym_random(np.random.default_rng(5), 3)
    form = np.zeros((3, 3))
    form[0, 2] = form[2, 0] = 1.0
    oracle = I.clique_oracle(s, [[0, 1], [1, 2]])
    inst = I.Qcqp("path3", s, [form], oracle, True)
    x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)  # violates x0 x2 = 0
    assert "constraint" in V.check_qcqp(
        inst, 0, qcqp_report("exact-with-solution", oracle, float(x @ s @ x), x))


def test_codim1_oracle_matches_search():
    rng = np.random.default_rng(3)
    inst = I.codim1_qcqp(rng, 2)
    ts = np.linspace(0.0, 2.0 * np.pi, 200001)
    xs = np.stack([np.cos(ts), np.sin(ts)])
    a, s = inst.forms[0], inst.s
    q_a = np.einsum("it,ij,jt->t", xs, a, xs)
    vals = np.einsum("it,ij,jt->t", xs, s, xs)
    sign_change = np.nonzero(np.diff(np.sign(q_a)))[0]
    assert abs(vals[sign_change].min() - inst.oracle) < 1e-4


def build_case():
    spec = I.intertwine(I.hankel(3), I.full_psd(2), [0], [1])
    text = json.dumps(jsonio.cone_to_json(jsonio.build_expr(spec.expr)))

    def roundtrip(data):
        return jsonio.cone_to_json(jsonio.cone_from_json(data))
    return spec, text, roundtrip


def test_build_check():
    spec, text, roundtrip = build_case()
    assert V.check_build(spec, 0, text, roundtrip) is None
    data = json.loads(text)
    short = dict(data, span_basis=data["span_basis"][:-1])
    assert "dimension" in V.check_build(spec, 0, json.dumps(short), roundtrip)
    bent = json.loads(text)
    bent["generators"][0][0] += 1e-3
    assert "off the span" in V.check_build(spec, 0, json.dumps(bent), roundtrip)
    assert "round trip" in V.check_build(spec, 0, text, lambda d: dict(d, n=d["n"]) | {"x": 1})
    assert V.check_build(spec, 2, None, roundtrip) is not None


def test_analyze_check():
    spec = I.hankel(3)
    good = {"n": 3, "dim": 5, "degree": 3, "certificate_complete": True}
    assert V.check_analyze(spec, 0, json.dumps(good)) is None
    for key, val in (("dim", 6), ("degree", 2), ("certificate_complete", False)):
        assert V.check_analyze(spec, 0, json.dumps(dict(good, **{key: val}))) is not None


def test_runner_counts_failures_without_raising():
    def boom():
        raise rc.NumericalError("stalled")

    def bad_check(out):
        raise ValueError("broken output")
    ops = [Op("ok", run=lambda: 1, check=lambda out: None),
           Op("raises", run=boom, check=lambda out: None),
           Op("wrong", run=lambda: 2, check=lambda out: "wrong value"),
           Op("check-raises", run=lambda: 3, check=bad_check)]
    runner = Runner(ops)
    _, times, results = runner.run_pass()
    runner.verify(results)
    assert len(times) == 4
    assert (runner.attempted, runner.failed) == (4, 3)
    reasons = {name: reason for name, reason in runner.failures}
    assert "NumericalError" in reasons["raises"]
    assert reasons["wrong"] == "wrong value"
    assert "ValueError" in reasons["check-raises"]


def test_tracer_patches_every_binding_and_accounts_time():
    cone_model = importlib.import_module("rogcones.cone_model")
    constructions = importlib.import_module("rogcones.constructions")
    original = cone_model.make_cone
    assert constructions.make_cone is original
    tracer = Tracer()
    tracer.install()
    try:
        assert constructions.make_cone is not original
        assert jsonio.make_cone is constructions.make_cone
        tracer.op = 0
        x = np.outer(moment(0.3), moment(0.3))
        t0 = time.perf_counter()
        rc.decompose(rc.hankel_cone(3), x)
        op_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert cone_model.make_cone is original and constructions.make_cone is original
    m = tracer.metrics([op_s])
    assert m["cone_model.make_cone.calls"] >= 1
    assert m["decompose.decompose.calls"] == 1
    assert m["symlin.orthonormal_span.rank_ratio"] > 0
    layers = sum(m[f"{name}.self_s"] for name in
                 ("cli", "jsonio", "constructions", "cone_model", "decompose",
                  "isomorph", "pencil_struct", "qcqp_relax", "symlin"))
    assert abs(layers + m["trace.unattributed_s"] - m["trace.total_s"]) < 1e-9
    assert m["trace.unattributed_s"] >= 0


def test_inputs_repeat_for_a_seed():
    a = I.nested_expr(np.random.default_rng(7), np.random.default_rng(8))
    b = I.nested_expr(np.random.default_rng(7), np.random.default_rng(8))
    assert a.expr == b.expr and a.dim == b.dim
    spec = I.chordal(8, I.chordal_graph(np.random.default_rng(2), 8))
    x = I.member_of_rank(np.random.default_rng(4), spec, 3)
    assert I.numeric_rank(x) == 3


def test_inputs_keep_their_conditioning_bounds():
    rng = np.random.default_rng(3)
    inst = I.pattern_qcqp(rng, 6, I.cycle_edges(6), "cycle6", False)
    mins = sorted(np.linalg.eigvalsh(inst.s[np.ix_(c, c)])[0] for c in I.cycle_edges(6))
    assert mins[1] - mins[0] >= I.MARGIN and inst.oracle == mins[0]
    inst = I.codim1_qcqp(rng, 4)
    value, t = I.codim1_optimum(inst.s, inst.forms[0])
    w = np.linalg.eigvalsh(inst.s - t * inst.forms[0])
    assert w[1] - w[0] >= I.MARGIN and value == inst.oracle
    spec = I.codim1(rng, 5)
    assert np.linalg.cond(np.array(spec.expr["params"]["Q"])) <= I.COND_MAX
    w = np.linalg.eigvalsh(I.member_of_rank(rng, I.hankel(6), 3))[::-1]
    assert w[0] <= I.MEMBER_COND_MAX * w[2]


def test_speed_factors_use_the_local_median():
    import harness as H
    refs = [H.REF_NOMINAL_S] * 8 + [2.0 * H.REF_NOMINAL_S] * 20
    factors = H.speed_factors(refs)
    assert len(factors) == len(refs)
    assert factors[0] == 1.0 and factors[-1] == 0.5
