"""Invariants of span assembly and of the JSON rebuild.

``make_cone`` dedupes rays with one Gram matrix, ``orthonormal_span`` runs
its SVD on the nonzero support only and skips it for orthogonal rows,
``span_dim`` counts singular values alone, leaf kinds (chordal, tridiagonal)
are built from their parameters alone, with no gluing tree,
``cone_to_json`` flattens a whole span stack with one gather and
``simplicity_partition`` sweeps the generators once: these tests pin each
shortcut to the result of the direct computation it replaces.
"""

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import cli, cone_model, constructions, jsonio, symlin
from rogcones.cone_model import RAY_MATCH, _normalize_generators

from conftest import (count_calls, family_registry, random_chordal_graph,
                      random_congruence, rank_r_member)


# ---------------------------------------------------------------------------
# ray dedupe


def _pairwise_dedupe(generators, n, complex_field):
    """The pairwise loop the batched dedupe replaces.  A norm or phase
    within rounding (1e-14) of 1 is not divided by, so that a ray already
    normalized stays as it is."""
    dtype = complex if complex_field else float
    vecs = []
    for x in generators:
        x = np.asarray(x, dtype=dtype).reshape(n)
        nrm = np.linalg.norm(x)
        if nrm < 1e-14:
            continue
        if abs(nrm - 1.0) > 1e-14:
            x = x / nrm
        i = int(np.argmax(np.abs(x)))
        phase = x[i] / abs(x[i])
        if abs(phase - 1.0) > 1e-14:
            x = x / phase
        if not any(abs(np.vdot(x, y)) > RAY_MATCH for y in vecs):
            vecs.append(x)
    return np.array(vecs) if vecs else np.zeros((0, n), dtype=dtype)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       base=st.integers(0, 12), extra=st.integers(0, 20),
       complex_field=st.booleans())
def test_batched_dedupe_matches_pairwise_loop(seed, n, base, extra, complex_field):
    rng = np.random.default_rng(seed)

    def draw():
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if complex_field else x

    gens = [draw() for _ in range(base)]
    for _ in range(extra):
        kind = rng.integers(5)
        if kind == 4 and n >= 2:
            gens.extend(_chain(rng, n, complex_field))
            continue
        if kind == 0 or not gens:
            gens.append(np.zeros(n))
            continue
        x = gens[rng.integers(len(gens))]
        if kind == 1:      # phase (or sign) multiple of an earlier ray
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if complex_field \
                else rng.choice([-1.0, 1.0])
            gens.append(rng.uniform(0.1, 10.0) * phase * x)
        elif kind == 2:    # near-duplicate, well inside the match threshold
            gens.append(x + 1e-10 * np.linalg.norm(x) * draw())
        else:              # close ray, well outside it
            gens.append(x + 1e-3 * np.linalg.norm(x) * draw())
    order = rng.permutation(len(gens))
    gens = [gens[i] for i in order]
    got = _normalize_generators(gens, n, complex_field)
    want = _pairwise_dedupe(gens, n, complex_field)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _chain(rng, n, complex_field, length=4, step=1e-4):
    """Rays cos(k step) u + sin(k step) w: neighbours match (1 - |<,>| is
    5e-9), rays two steps apart do not (2e-8)."""
    u, w = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi)) if complex_field else 1.0
    return [phase * (np.cos(k * step) * u + np.sin(k * step) * w) for k in range(length)]


def test_dedupe_keeps_first_of_each_group():
    e = np.eye(3)
    gens = [e[0], 2 * e[1], -e[0], e[1] + 1e-12 * e[2], np.zeros(3), e[2], -3 * e[1]]
    assert np.array_equal(_normalize_generators(gens, 3, False), e)
    # a ray that matches only a dropped ray is kept
    chain = _chain(np.random.default_rng(0), 3, False)
    assert np.array_equal(_normalize_generators(chain, 3, False),
                          _pairwise_dedupe([chain[0], chain[2]], 3, False))


def test_complex_spanning_matrices_make_a_complex_cone():
    # the field comes from the span: no argument names it
    gens = [np.array([1.0, 1j]), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
            np.array([1.0, 1.0])]
    cone = rc.make_cone(2, [symlin.outer(g) for g in gens], gens)
    assert cone.complex_field and cone.generators.dtype == complex
    assert cone.dim == 4 and len(cone.generators) == 4
    assert np.array_equal(cone.generators[0], gens[0] / np.sqrt(2.0))
    assert not rc.make_cone(2, [np.eye(2)], []).complex_field


# ---------------------------------------------------------------------------
# span on the nonzero support


def _dense_span(mats, tol=1e-10):
    """The SVD over all n^2 coordinates that the support compression replaces."""
    complex_field = any(np.iscomplexobj(m) for m in mats)
    rows = np.array([symlin.vec(np.asarray(m, dtype=complex if complex_field else float))
                     for m in mats])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[s > tol * max(1.0, s[0])]


def _rows(stack):
    return np.array([symlin.vec(b) for b in stack])


def _assert_same_span(mats):
    basis = symlin.orthonormal_span(mats)
    dense = _dense_span(mats)
    rows = _rows(basis)
    assert basis.shape[0] == dense.shape[0]
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-12
    assert np.abs(rows.T @ rows - dense.T @ dense).max() <= 1e-12
    assert np.array_equal(basis, symlin.sym(basis))


def test_support_span_chordal_pattern():
    graph = random_chordal_graph(np.random.default_rng(5), 12)
    cone = rc.chordal_cone(graph)
    prods = [symlin.outer(x) for x in cone.generators]
    assert np.count_nonzero(_rows(prods).any(axis=0)) < 12 * 12
    _assert_same_span(prods)
    _assert_same_span(list(cone.span_basis) + prods)


def test_support_span_direct_sum():
    cone = rc.direct_sum(rc.hankel_cone(3), rc.direct_sum(rc.full_psd_cone(2),
                                                          rc.diagonal_cone(2)))
    _assert_same_span(list(cone.span_basis))
    _assert_same_span([symlin.outer(x) for x in cone.generators])


def test_support_span_complex_block_toeplitz():
    single = rc.block_toeplitz_cone(3, 2)
    _assert_same_span([symlin.outer(x) for x in single.generators])
    pair = rc.direct_sum(rc.block_toeplitz_cone(2, 1), rc.block_toeplitz_cone(3, 1))
    _assert_same_span(list(pair.span_basis))
    _assert_same_span([symlin.outer(x) for x in pair.generators])


def test_support_span_all_zero():
    basis = symlin.orthonormal_span([np.zeros((3, 3)), np.zeros((3, 3))])
    assert basis.shape[0] == 0
    cone = rc.make_cone(3, [np.zeros((3, 3))], [], check=False)
    assert cone.dim == 0


# ---------------------------------------------------------------------------
# rank-only counts and the closed form for orthogonal rows


def _record_svds(monkeypatch):
    """The compute_uv flag of every np.linalg.svd call made from now on."""
    calls = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def _stack_with_spectrum(rng, n, count, s, complex_field):
    """count symmetric (Hermitian) matrices whose vec rows have the nonzero
    singular values s, in random orientation."""
    basis = symlin.herm_basis(n) if complex_field else symlin.sym_basis(n)
    u, _ = np.linalg.qr(rng.standard_normal((count, len(s))))
    w, _ = np.linalg.qr(rng.standard_normal((len(basis), len(s))))
    return np.tensordot((u * s) @ w.T, basis, axes=(1, 0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), count=st.integers(1, 10),
       rank=st.integers(1, 10), near=st.integers(0, 3), complex_field=st.booleans(),
       scale=st.sampled_from([1e-3, 1.0, 1e4]))
def test_span_dim_is_the_dimension_of_orthonormal_span(seed, n, count, rank, near,
                                                       complex_field, scale):
    rng = np.random.default_rng(seed)
    rank = min(rank, count, n * n if complex_field else n * (n + 1) // 2)
    near = min(near, rank - 1)
    # rank - near singular values of order `scale`, the last `near` of them
    # replaced by values a factor 1e-3 above or below the cut
    s = scale * rng.uniform(0.5, 2.0, rank)
    c = symlin.cut(s[:rank - near], symlin.SUBSPACE_TOL)
    side = rng.choice([1.001, 0.999], near)
    s[rank - near:] = c * side
    mats = _stack_with_spectrum(rng, n, count, s, complex_field)
    expected = rank - near + int(np.count_nonzero(side > 1.0))
    assert symlin.span_dim(mats) == symlin.orthonormal_span(mats).shape[0] == expected


def _chordal_pattern(rng):
    """Pattern matrices E_ii and E_ij + E_ji of a chordal graph, each with a
    random positive weight, so the rows are orthogonal but not unit."""
    graph = random_chordal_graph(rng, 9)
    mats = []
    for i, j in [(v, v) for v in range(graph.n)] + list(graph.edges):
        e = np.zeros((graph.n, graph.n))
        e[i, j] = e[j, i] = rng.uniform(0.1, 10.0)
        mats.append(e)
    return mats


def _direct_sum_of_bases():
    """Two SVD-made bases embedded in the diagonal blocks of a 5 x 5 matrix."""
    heads = (rc.codim1_cone(np.diag([1.0, -1.0, 2.0])).span_basis,
             rc.codim1_cone(np.diag([1.0, -3.0])).span_basis)
    mats = []
    for at, basis in zip((0, 3), heads):
        for b in basis:
            e = np.zeros((5, 5))
            e[at:at + len(b), at:at + len(b)] = b
            mats.append(e)
    return mats


def _straddling_rows():
    """Orthogonal rows whose norms sit just above, just below and at zero
    against the cut of the largest."""
    norms = np.array([3.0, 1.0, 3e-10 * 1.001, 0.0, 3e-10 * 0.999, 0.5])
    return norms[:, None, None] * symlin.sym_basis(3)[:len(norms)], norms > 3e-10


@pytest.mark.parametrize("name", ["sym_basis", "herm_basis", "chordal", "direct_sum",
                                  "straddling"])
def test_orthogonal_rows_take_the_closed_form(monkeypatch, name):
    kept = None
    if name == "sym_basis":
        mats = symlin.sym_basis(6)
    elif name == "herm_basis":
        mats = symlin.herm_basis(4)
    elif name == "chordal":
        mats = _chordal_pattern(np.random.default_rng(5))
    elif name == "direct_sum":
        mats = _direct_sum_of_bases()
    else:
        mats, kept = _straddling_rows()
    dense = _dense_span(mats)
    calls = _record_svds(monkeypatch)
    basis = symlin.orthonormal_span(mats)
    assert calls == []
    rows = _rows(basis)
    assert basis.shape[0] == dense.shape[0]
    assert np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 1e-12
    assert np.abs(rows.T @ rows - dense.T @ dense).max() <= 1e-12
    # the normalized input rows, in input order, the ones at the cut dropped
    given = _rows(mats)
    if kept is None:
        kept = np.ones(len(given), dtype=bool)
    unit = given[kept] / np.linalg.norm(given[kept], axis=1)[:, None]
    assert np.abs(rows - unit).max() <= 1e-15
    assert symlin.span_dim(mats) == basis.shape[0]


def _unit_pattern(graph):
    """The unit forms E_ii and E_ij + E_ji of a graph's coordinate pattern."""
    mats = np.zeros((graph.n + len(graph.edges), graph.n, graph.n))
    for k, (i, j) in enumerate([(v, v) for v in range(graph.n)] + list(graph.edges)):
        mats[k, i, j] = mats[k, j, i] = 1.0
    return mats


@pytest.mark.parametrize("name", ["pattern40", "weighted_pattern", "chordal_span", "hankel",
                                  "toeplitz", "straddling", "direct_sum"])
def test_disjoint_rows_skip_the_gram_matrix(monkeypatch, name):
    """Rows with disjoint supports take the closed form without the Gram
    matrix, bit for bit what the Gram check gives them; orthogonal rows
    that share a column still take the Gram check."""
    rng = np.random.default_rng(7)
    mats = {"pattern40": lambda: _unit_pattern(random_chordal_graph(rng, 40)),
            "weighted_pattern": lambda: _chordal_pattern(rng),
            "chordal_span": lambda: rc.chordal_cone(random_chordal_graph(rng, 12)).span_basis,
            "hankel": lambda: rc.hankel_cone(5).span_basis,
            "toeplitz": lambda: rc.block_toeplitz_cone(4, 1).span_basis,
            "straddling": lambda: _straddling_rows()[0],
            "direct_sum": _direct_sum_of_bases}[name]()
    grams = count_calls(monkeypatch, symlin, "_gram_orthogonal")
    calls = _record_svds(monkeypatch)
    basis = symlin.orthonormal_span(mats)
    assert calls == []
    assert len(grams) == (name == "direct_sum")
    monkeypatch.setattr(symlin, "_disjoint_supports", lambda rows: False)
    via_gram = symlin.orthonormal_span(mats)
    assert calls == []
    assert basis.shape == via_gram.shape and basis.tobytes() == via_gram.tobytes()


def test_certificate_complete_asks_for_no_singular_vectors(monkeypatch):
    cones = (rc.chordal_cone(random_chordal_graph(np.random.default_rng(5), 12)),
             rc.codim1_cone(np.diag([1.0, -1.0, 2.0])), rc.block_toeplitz_cone(2, 2))
    calls = _record_svds(monkeypatch)
    assert all(cone_model.certificate_complete(k) for k in cones)
    assert calls == [False] * len(cones)


@pytest.mark.parametrize("name", ["full_psd", "chordal", "direct_sum"])
def test_orthogonal_spans_build_without_an_svd(monkeypatch, name):
    graph = random_chordal_graph(np.random.default_rng(5), 12)
    children = (rc.hankel_cone(3), rc.full_psd_cone(2))
    build = {"full_psd": lambda: rc.full_psd_cone(6),
             "chordal": lambda: rc.chordal_cone(graph),
             "direct_sum": lambda: rc.direct_sum(*children)}[name]
    calls = _record_svds(monkeypatch)
    cone = build()
    assert calls == []
    assert cone_model.certificate_complete(cone)


def test_raw_cone_json_reloads_its_basis_unrotated():
    rng = np.random.default_rng(0)
    gens = [rng.standard_normal(3) for _ in range(4)]
    cone = rc.make_cone(3, [np.outer(x, x) for x in gens], gens)
    back = jsonio.cone_from_json(jsonio.cone_to_json(cone))
    assert np.abs(back.span_basis - cone.span_basis).max() <= 1e-14


_RAW_SOURCES = {**family_registry(), "block_toeplitz22": rc.block_toeplitz_cone(2, 2)}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(_RAW_SOURCES)))
def test_raw_congruent_copies_round_trip_bit_for_bit(seed, name):
    # a raw copy stores an orthonormal basis and unit generators; reading
    # them back leaves every bit, so one round trip is a fixed point
    cone = _RAW_SOURCES[name]
    rng = np.random.default_rng(seed)
    a = random_congruence(rng, cone.n)
    if cone.complex_field:
        a = a + 1j * random_congruence(rng, cone.n)
    raw = rc.apply_congruence(cone, a, keep_expr=False)
    data = json.loads(json.dumps(jsonio.cone_to_json(raw)))
    back = jsonio.cone_from_json(data)
    assert back.expr is None
    for got, want in ((back.span_basis, raw.span_basis), (back.generators, raw.generators)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert json.loads(json.dumps(jsonio.cone_to_json(back))) == data


def test_span_coords_matches_vec_rows():
    for cone in (rc.hankel_cone(3), rc.block_toeplitz_cone(2, 2)):
        x = sum(symlin.outer(g) for g in cone.generators[:3])
        assert np.array_equal(symlin.span_coords(cone.span_basis, x),
                              _rows(cone.span_basis) @ symlin.vec(x))


# ---------------------------------------------------------------------------
# leaf kinds hold no gluing tree


# the gluing construction and its decomposition route; the package
# attribute ``rogcones.decompose`` is the function, not the module
_GLUING = ((constructions, "intertwine"), (constructions, "direct_sum"),
           (constructions, "apply_congruence"), (cone_model, "apply_congruence"),
           (importlib.import_module("rogcones.decompose"), "decompose_intertwining"))


def _count_calls(monkeypatch, targets):
    calls = []
    for module, name in targets:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _leaf_nodes_with_children(node):
    found = []
    if constructions._BUILDERS[node["kind"]][0] is None and "children" in node:
        found.append(node["kind"])
    for child in node.get("children", []):
        found += _leaf_nodes_with_children(child)
    return found


def test_chordal_kinds_glue_nothing(monkeypatch):
    graph = random_chordal_graph(np.random.default_rng(11), 10)
    exprs = [{"kind": "chordal",
              "params": {"n": 10, "edges": [list(e) for e in graph.edges]}},
             {"kind": "tridiag", "params": {"n": 6}}]
    calls = _count_calls(monkeypatch, _GLUING)
    rng = np.random.default_rng(3)
    for expr in exprs:
        cone = jsonio.build_expr(expr)
        text = json.dumps(jsonio.cone_to_json(cone))
        assert "children" not in json.loads(text)["expr"]
        loaded = jsonio.cone_from_json(json.loads(text))
        assert json.dumps(jsonio.cone_to_json(loaded)) == text
        assert loaded.expr.children == ()
        x_mat = rank_r_member(loaded, rng, 4)
        assert len(rc.decompose(loaded, x_mat).atoms) == 4
    assert calls == []


def test_children_under_a_leaf_are_rejected():
    child = {"kind": "transform", "params": {"matrix": np.eye(5).tolist()},
             "children": [{"kind": "full_psd", "params": {"n": 5}}]}
    for cone in (rc.chordal_cone(rc.ChordalGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])),
                 rc.tridiagonal_cone(5)):
        data = jsonio.cone_to_json(cone)
        with pytest.raises(rc.InvalidInputError, match="takes no children"):
            jsonio.cone_from_json(dict(data, expr=dict(data["expr"], children=[child])))
        with pytest.raises(rc.InvalidInputError, match="takes no children"):
            rc.build(dict(data["expr"], children=[child]))


def test_no_children_under_leaf_kinds_in_nested_json():
    tri = rc.tridiagonal_cone(4)
    chordal = rc.chordal_cone(rc.ChordalGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    moved = rc.apply_congruence(rc.direct_sum(tri, chordal),
                                np.eye(8) + np.diag(np.full(7, 0.5), 1))
    data = jsonio.cone_to_json(moved)
    assert _leaf_nodes_with_children(data["expr"]) == []
    assert jsonio.cone_to_json(jsonio.cone_from_json(data)) == data


# ---------------------------------------------------------------------------
# cone JSON flatten


def _num_to_json(v, complex_field):
    """One entry: a float, or an [re, im] pair when complex_field."""
    if complex_field:
        return [float(np.real(v)), float(np.imag(v))]
    return float(v)


def _per_entry_cone_json(cone):
    """The span and generator lists that one ``_num_to_json`` per entry gives."""
    n = cone.n
    span = [[_num_to_json(s[i, j], cone.complex_field)
             for i in range(n) for j in range(i, n)] for s in cone.span_basis]
    gens = [[_num_to_json(v, np.iscomplexobj(x)) for v in x]
            for x in cone.generators]
    return span, gens


def test_cone_json_flatten_matches_per_entry_loop():
    cones = (rc.direct_sum(rc.hankel_cone(3), rc.full_psd_cone(2)),
             rc.block_toeplitz_cone(3, 2),
             rc.direct_sum(rc.block_toeplitz_cone(2, 1), rc.block_toeplitz_cone(3, 1)))
    for cone in cones:
        data = jsonio.cone_to_json(cone)
        span, gens = _per_entry_cone_json(cone)
        # float repr round-trips, so equal text means equal bits (and -0.0 shows)
        assert json.dumps(data["span_basis"]) == json.dumps(span)
        assert json.dumps(data["generators"]) == json.dumps(gens)
    assert [c.complex_field for c in cones] == [False, True, True]


# ---------------------------------------------------------------------------
# simplicity partition


def _two_sweep_partition(gens, tol=1e-8):
    """The least-squares loop the one-sweep partition replaces: groups of
    generator indices, swept until a sweep merges nothing."""
    m = len(gens)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    while changed:
        changed = False
        indep = []
        for j in range(m):
            if not indep:
                indep.append(j)
                continue
            a_mat = gens[indep].T
            coef = np.linalg.lstsq(a_mat, gens[j], rcond=None)[0]
            if np.linalg.norm(a_mat @ coef - gens[j]) > 100 * tol:
                indep.append(j)
                continue
            cut = symlin.cut(coef, 100 * tol)
            for k, c in zip(indep, coef):
                ri, rk = find(j), find(k)
                if abs(c) > cut and ri != rk:
                    parent[rk] = ri
                    changed = True
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _block_generators(rng, blocks, complex_field, extra):
    """Generators of a direct sum of random subspaces of the given sizes:
    a well-conditioned spanning set of each (its basis mixed by a random
    orthogonal or unitary matrix), then dependent, scaled and
    near-duplicate generators, each inside one block, in random order."""
    n = sum(blocks)
    shape = (n, n)
    u = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_field else 0)
    u = np.linalg.qr(u)[0]
    starts = np.cumsum((0,) + blocks)

    def draw(b, k=1, orthogonal=False):
        cols = u[:, starts[b]:starts[b + 1]]
        c = rng.standard_normal((cols.shape[1], k))
        if complex_field:
            c = c + 1j * rng.standard_normal(c.shape)
        if orthogonal:
            c = np.linalg.qr(c)[0]
        return [(b, x) for x in (cols @ c).T]

    gens = [g for b, size in enumerate(blocks) for g in draw(b, size, orthogonal=True)]
    for _ in range(extra):
        kind = rng.integers(4)
        b, x = gens[rng.integers(len(gens))]
        if kind == 0:      # combination of the generators of one block
            gens.extend(draw(b))
        elif kind == 1:    # scaled (or phase) multiple, dropped by the dedupe
            gens.append((b, rng.uniform(0.1, 10.0) * (1j if complex_field else -1.0) * x))
        elif kind == 2:    # near-duplicate outside the dedupe threshold
            gens.append((b, x + 1e-3 * np.linalg.norm(x) * draw(b)[0][1]))
        else:              # near-duplicate inside it
            gens.append((b, x + 1e-10 * np.linalg.norm(x) * draw(b)[0][1]))
    return [gens[i][1] for i in rng.permutation(len(gens))]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       blocks=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       extra=st.integers(0, 12), complex_field=st.booleans())
def test_one_sweep_partition_matches_two_sweep_loop(seed, blocks, extra, complex_field):
    rng = np.random.default_rng(seed)
    gens = _block_generators(rng, tuple(blocks), complex_field, extra)
    n = sum(blocks)
    cone = rc.make_cone(n, [symlin.outer(g) for g in gens], gens, check=False)
    want = _two_sweep_partition(cone.generators)
    parts = cone_model.simplicity_partition(cone)
    got = sorted([i for i, x in enumerate(cone.generators)
                  if np.linalg.norm(h.image_basis.conj().T @ x) > 1 - 1e-8]
                 for h in parts)
    assert got == want
    assert sorted(h.dim for h in parts) == sorted(
        symlin.subspace_of_vectors(cone.generators[idx]).shape[1] for idx in want)


def test_partition_rejects_a_nearly_degenerate_spanning_set():
    # the spanning set that a Gaussian mixing matrix gave for seed 782 and
    # blocks (2, 3, 1): its interior element has lambda_min 6.3e-11, so the
    # cone is degenerate to the partition
    rng = np.random.default_rng(782)
    u = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    gens = [x for lo, hi in ((0, 2), (2, 5), (5, 6))
            for x in (u[:, lo:hi] @ rng.standard_normal((hi - lo, hi - lo))).T]
    gens = [gens[i] for i in rng.permutation(len(gens))]
    cone = rc.make_cone(6, [symlin.outer(g) for g in gens], gens, check=False)
    with pytest.raises(rc.InvalidInputError, match="degenerate"):
        cone_model.simplicity_partition(cone)


# ---------------------------------------------------------------------------
# rog analyze


def test_analyze_partitions_once(tmp_path, monkeypatch):
    cone = rc.direct_sum(rc.tridiagonal_cone(3), rc.diagonal_cone(2))
    path = tmp_path / "cone.json"
    out = tmp_path / "report.json"
    path.write_text(json.dumps(jsonio.cone_to_json(cone)))
    rays = rc.isolated_rays(cone)
    calls = []
    real = cone_model.simplicity_partition

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cone_model, "simplicity_partition", counted)
    assert cli.run(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(calls) == 1
    assert report["factor_dims"] == [3, 1, 1]
    assert report["isolated_rays"] == rays and len(rays) == 2
