import numpy as np
import pytest

import rogcones as rc
from rogcones import pencil_struct, symlin
from rogcones.cone_model import RAY_MATCH, SpectrahedralCone, codimension
from rogcones.errors import InvalidInputError, NumericalError
from rogcones.pencil_struct import (ClassLabel, Pencil, classify_small,
                                    pencil_decompose, rank2_extreme_check,
                                    rank2_face_planes, split_vector)
from rogcones.symlin import DEFAULT_TOL
from conftest import (catalog_constructions, count_calls, count_span_tests,
                      random_congruence, raw_four_cycle_cone)


def test_pencil_already_split():
    dec = pencil_decompose(Pencil(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    angles = sorted(b.angle for b in dec.blocks)
    assert np.allclose(angles, [0.0, np.pi / 2])
    assert all(b.handle.dim == 1 for b in dec.blocks)


def test_pencil_proportional_forms():
    dec = pencil_decompose(Pencil(np.eye(2), np.eye(2)))
    assert len(dec.blocks) == 1
    blk = dec.blocks[0]
    assert abs(blk.angle - np.pi / 4) < 1e-10
    assert np.allclose(blk.form, np.sqrt(2.0) * np.eye(2), atol=1e-10)


def test_pencil_with_kernel():
    dec = pencil_decompose(Pencil(np.diag([1.0, 1.0, 0.0]),
                                  np.diag([1.0, -1.0, 0.0])))
    assert dec.kernel.image_basis.shape[1] == 1
    assert abs(abs(dec.kernel.image_basis[2, 0]) - 1.0) < 1e-12
    angles = sorted(b.angle for b in dec.blocks)
    assert np.allclose(angles, [np.pi / 4, 3 * np.pi / 4], atol=1e-10)


def random_structured_pencil(rng, n):
    """Assemble Q1, Q2 from random angles, blocks and a random frame."""
    remaining = n
    dims = []
    kernel_dim = int(rng.integers(0, 2))
    remaining -= kernel_dim
    while remaining > 0:
        d = int(rng.integers(1, min(remaining, 3) + 1))
        dims.append(d)
        remaining -= d
    angles = np.sort(rng.uniform(0.0, np.pi, len(dims)))
    while len(angles) > 1 and np.diff(angles).min() < 0.05:
        angles = np.sort(rng.uniform(0.0, np.pi, len(dims)))
    t = random_congruence(rng, n)
    t_inv = np.linalg.inv(t)
    d1 = np.zeros((n, n))
    d2 = np.zeros((n, n))
    off = kernel_dim
    for d, phi in zip(dims, angles):
        form = rng.standard_normal((d, d))
        form = form + form.T + (2.0 + d) * np.eye(d) * rng.choice([-1.0, 1.0])
        d1[off:off + d, off:off + d] = np.cos(phi) * form
        d2[off:off + d, off:off + d] = np.sin(phi) * form
        off += d
    q1 = t_inv.T @ d1 @ t_inv
    q2 = t_inv.T @ d2 @ t_inv
    scale = max(np.linalg.norm(q1), np.linalg.norm(q2))
    return 0.5 * (q1 + q1.T) / scale, 0.5 * (q2 + q2.T) / scale


def test_pencil_random_structured(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        q1, q2 = random_structured_pencil(rng, n)
        dec = pencil_decompose(Pencil(q1, q2))
        r1, r2 = dec.reconstruct(n)
        assert np.linalg.norm(r1 - q1) < 1e-7
        assert np.linalg.norm(r2 - q2) < 1e-7
        # cross-block orthogonality
        for i in range(len(dec.blocks)):
            for j in range(i + 1, len(dec.blocks)):
                bi = dec.blocks[i].handle.image_basis
                bj = dec.blocks[j].handle.image_basis
                assert np.abs(bi.T @ q1 @ bj).max() < 1e-7
                assert np.abs(bi.T @ q2 @ bj).max() < 1e-7


def test_pencil_defective_rejected():
    # Jordan-type pencil: only one real eigenvector
    q1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    q2 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError):
        pencil_decompose(Pencil(q1, q2))


def test_rank2_check_explicit():
    # restricted-form matrix with definite kernel: element must come back
    q1 = np.diag([1.0, -1.0, 0.0, 0.0])
    q2 = np.diag([0.0, 0.0, 1.0, -1.0])
    x = np.array([1.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 1.0, 1.0])
    elem = rank2_extreme_check([q1, q2], x, y)
    assert elem is not None
    assert rc.psd_check(elem)
    assert rc.numeric_rank(elem) == 2
    assert abs(np.tensordot(elem, q1)) < 1e-8
    assert abs(np.tensordot(elem, q2)) < 1e-8


def test_rank2_check_parallel_vectors():
    q1, q2 = np.eye(3), np.diag([1.0, 2.0, 3.0])
    x = np.array([1.0, 2.0, 0.0])
    assert rank2_extreme_check([q1, q2], x, 2.0 * x) is None


def test_rank2_check_indefinite_kernel():
    # forms restricting to M = [[1,0,1],[0,1,0]]: kernel (1,0,-1), indefinite
    q1 = np.eye(2)
    q2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    assert rank2_extreme_check([q1, q2], x, y) is None


def _section(q1, q2):
    """The cone {X : <Q1, X> = <Q2, X> = 0} of two forms, with no certificate."""
    n = len(q1)
    basis = symlin.sym_basis(n)
    coords = np.tensordot(np.array([q1, q2]), basis, axes=([1, 2], [1, 2]))
    span = np.tensordot(symlin.nullspace(coords).T, basis, axes=1)
    return SpectrahedralCone(n=n, span_basis=span, generators=np.zeros((0, n)))


def _holds_no_semidefinite_form(q1, q2):
    """Every combination cos t Q1 + sin t Q2 on a grid of t has eigenvalues
    of both signs, with a margin."""
    t = np.linspace(0.0, np.pi, 721)
    w = np.linalg.eigvalsh(np.cos(t)[:, None, None] * q1 + np.sin(t)[:, None, None] * q2)
    return bool((w[:, 0] < -1e-3).all() and (w[:, -1] > 1e-3).all())


def _rank2_witness(q1, q2, rng, tries):
    """A rank-2 extreme element of the section on one of `tries` random planes."""
    for _ in range(tries):
        witness = rank2_extreme_check([q1, q2], *rng.standard_normal((2, len(q1))))
        if witness is not None:
            return witness
    return None


def test_split_vector_agrees_with_the_rank2_witness_search():
    # X_01 = X_02 = 0: the forms split with u = e0
    e = np.eye(4)
    q1 = np.outer(e[0], e[1]) + np.outer(e[1], e[0])
    q2 = np.outer(e[0], e[2]) + np.outer(e[2], e[0])
    u = split_vector(_section(q1, q2), DEFAULT_TOL)
    assert u is not None and np.allclose(np.abs(u), e[0], atol=1e-12)
    with pytest.raises(InvalidInputError, match="codimension 2"):
        split_vector(rc.hankel_cone(3), DEFAULT_TOL)
    # X_00 = X_11 and X_01 = 0: both forms have the range span{e0, e1}, and
    # the section carries extreme elements of rank 2
    q1 = np.diag([1.0, -1.0, 0.0, 0.0])
    q2 = np.outer(e[0], e[1]) + np.outer(e[1], e[0])
    rng = np.random.default_rng(31)
    assert split_vector(_section(q1, q2), DEFAULT_TOL) is None
    assert _rank2_witness(q1, q2, rng, 3000) is not None
    # random pencils, half split by construction, none holding a
    # semidefinite form (such a pencil cuts out a face, which the
    # classifier reduces first); rank2_extreme_check is the reference:
    # split forms give no rank-2 extreme witness, other forms give one
    drawn = {True: 0, False: 0}
    while min(drawn.values()) < 20:
        n = int(rng.integers(4, 6))
        split = drawn[True] < 20
        if split:
            u, g1, g2 = rng.standard_normal((3, n))
            q1 = np.outer(u, g1) + np.outer(g1, u)
            q2 = np.outer(u, g2) + np.outer(g2, u)
        else:
            q1, q2 = (symlin.sym(rng.standard_normal((n, n))) for _ in range(2))
        if not _holds_no_semidefinite_form(q1, q2):
            continue
        drawn[split] += 1
        found = split_vector(_section(q1, q2), DEFAULT_TOL)
        assert (found is not None) == split
        if split:
            assert abs(found @ u) > (1.0 - 1e-10) * np.linalg.norm(u)
        assert (_rank2_witness(q1, q2, rng, 300 if split else 3000) is None) == split


def test_classify_codim1_examples():
    assert classify_small(rc.hankel_cone(3)).signature == (2, 1, 0)
    assert classify_small(rc.tridiagonal_cone(3)) == ClassLabel("Tri", n=3)
    assert classify_small(rc.full_psd_cone(3)) == ClassLabel("FullPsd", n=3)


def test_classifier_catalog():
    for name, (cone, expected) in catalog_constructions().items():
        got = classify_small(cone)
        assert got == expected, (name, got)
    # a complex cone gets no real catalog label, though its real dimension,
    # 7, is that of four of them
    assert classify_small(rc.block_toeplitz_cone(4)) == ClassLabel("Unknown", n=4)


def test_classifier_congruence_invariant(rng):
    # the 4-cycle is not chordal, so its pattern cone is not ROG although its
    # degree and dimension are those of Codim2FullExt
    cases = {**catalog_constructions(),
             "raw_four_cycle": (raw_four_cycle_cone(), ClassLabel("Unknown", n=4))}
    for name, (cone, expected) in cases.items():
        a = random_congruence(rng, cone.n)
        moved = rc.apply_congruence(cone, a, keep_expr=False)
        assert classify_small(moved) == expected, name


def test_classifier_direct_sum():
    k = rc.direct_sum(rc.full_psd_cone(1), rc.full_psd_cone(2))
    label = classify_small(k)
    assert label.tag == "DirectSum"
    assert tuple(c.tag for c in label.children) == ("FullPsd", "FullPsd")
    k2 = rc.diagonal_cone(3)
    label2 = classify_small(k2)
    assert label2.tag == "DirectSum" and len(label2.children) == 3


def test_classifier_rejects_large_degree():
    with pytest.raises(InvalidInputError):
        classify_small(rc.full_psd_cone(5))


# the four simple classes of degree 4 and dimension 7, and their plane counts
PLANE_CENSUS = {"Han4": 0, "IntertwineHan3S2": 1, "FullExtDiag3": 3, "Tri4": 3}


def _pairwise_planes(cone):
    """The plane search one generator pair at a time."""
    gens = cone.generators
    planes = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            x, y = gens[i], gens[j]
            if abs(x @ y) > RAY_MATCH:
                continue
            cross = symlin.sym(np.outer(x, y)) * 2.0
            if symlin.span_distance(cone.span_basis, cross) > 1e-7 * (1.0 + np.linalg.norm(cross)):
                continue
            basis = symlin.subspace_of_vectors([x, y])
            if not any(np.linalg.norm(basis @ basis.T - p @ p.T) < 1e-6 for p in planes):
                planes.append(basis)
    return planes


def test_rank2_face_planes_match_the_pairwise_search():
    rng = np.random.default_rng(11)
    for name, (cone, _) in catalog_constructions().items():
        moved = rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False)
        for k in (cone, moved):
            got, want = rank2_face_planes(k), _pairwise_planes(k)
            assert len(got) == len(want), name
            for p, q in zip(got, want):
                assert np.allclose(p @ p.T, q @ q.T, atol=1e-12), name
            if name in PLANE_CENSUS:
                assert len(got) == PLANE_CENSUS[name], name


def test_classify_tests_all_pairs_in_one_kernel_call(monkeypatch):
    catalog = catalog_constructions()
    rng = np.random.default_rng(12)
    for name in PLANE_CENSUS:
        cone, expected = catalog[name]
        moved = rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False)
        for k in (cone, moved):
            with monkeypatch.context() as m:
                calls = count_span_tests(m)
                planes = []
                real = pencil_struct.rank2_face_planes
                m.setattr(pencil_struct, "rank2_face_planes",
                          lambda c: planes.append(c) or real(c))
                assert classify_small(k) == expected
            assert "span_distance" not in calls, name
            assert len(planes) == 1 and calls == ["span_distances"], name


def test_codim_le1_labels_need_no_partition(monkeypatch):
    """Codimension 0, and codimension 1 from degree 3 on, are labelled from
    the signature before the simplicity partition; codimension 1 in
    degree 2 is the non-simple diag(2) and is partitioned."""
    rng = np.random.default_rng(13)
    cases = [(cone, expected) for cone, expected in catalog_constructions().values()
             if codimension(cone) <= 1]
    cases += [(rc.apply_congruence(cone, random_congruence(rng, cone.n), keep_expr=False),
               expected) for cone, expected in cases]
    assert len(cases) == 20
    partitions = count_calls(monkeypatch, pencil_struct, "simplicity_partition")
    for cone, expected in cases:
        assert classify_small(cone) == expected
    assert partitions == []
    label = classify_small(rc.diagonal_cone(2))
    assert label.tag == "DirectSum" and len(partitions) == 1
