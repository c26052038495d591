import numpy as np
import pytest

import rogcones as rc
from rogcones import pencil_struct, symlin
from rogcones.cone_model import RAY_MATCH, codimension
from rogcones.errors import InvalidInputError, NumericalError
from rogcones.pencil_struct import (ClassLabel, Pencil, biquartic_p,
                                    classify_small, codim2_structure,
                                    pencil_decompose, rank2_extreme_check,
                                    rank2_face_planes)
from conftest import (catalog_constructions, count_calls, count_span_tests,
                      random_congruence)


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
    x = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    p = biquartic_p(q1, q2, x, y)
    elem = rank2_extreme_check([q1, q2], x, y)
    if p < 0:
        assert elem is not None
        assert rc.psd_check(elem)
        assert rc.numeric_rank(elem) == 2
        assert abs(np.tensordot(elem, q1)) < 1e-8
        assert abs(np.tensordot(elem, q2)) < 1e-8
    else:
        assert elem is None


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
    assert biquartic_p(q1, q2, x, y) > 0


def test_biquartic_identical_forms(rng):
    q = rng.standard_normal((4, 4))
    q = q + q.T
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(biquartic_p(q, q, x, y)) < 1e-9 * (np.linalg.norm(q) ** 4) * 1e3


def test_biquartic_sign_agreement(rng):
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        q1 = rng.standard_normal((n, n))
        q1 = q1 + q1.T
        q2 = rng.standard_normal((n, n))
        q2 = q2 + q2.T
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        p = biquartic_p(q1, q2, x, y)
        if abs(p) <= 1e-9:
            continue
        elem = rank2_extreme_check([q1, q2], x, y)
        assert (p < 0) == (elem is not None)
        checked += 1
    assert checked > 900


def test_codim2_split_form():
    q1 = np.zeros((4, 4))
    q1[0, 1] = q1[1, 0] = 1.0
    q2 = np.zeros((4, 4))
    q2[0, 2] = q2[2, 0] = 1.0
    out = codim2_structure(q1, q2, null_seeds=200, p_samples=2000)
    assert out.case == "split-form"
    g1, g2, u = out.q1_form, out.q2_form, out.u
    assert np.linalg.norm(q1 - np.outer(u, g1) - np.outer(g1, u)) < 1e-7
    assert np.linalg.norm(q2 - np.outer(u, g2) - np.outer(g2, u)) < 1e-7


def test_codim2_aligned_case():
    # definite pencil blocks plus a joint kernel: every null vector lies in
    # the kernel, so both images vanish there
    q1 = np.diag([1.0, 2.0, 0.0, 0.0])
    q2 = np.diag([1.0, -2.0, 0.0, 0.0])
    out = codim2_structure(q1, q2, null_seeds=300, p_samples=500)
    assert out.case == "aligned-null-forms"


def test_codim2_rank2_small_case():
    # X11 = X22 and X12 = 0 in S^4: carries extreme elements of rank 2
    q1 = np.diag([1.0, -1.0, 0.0, 0.0])
    q2 = np.zeros((4, 4))
    q2[0, 1] = q2[1, 0] = 1.0
    out = codim2_structure(q1, q2, null_seeds=300, p_samples=2000)
    assert out.case == "rank2-extremes"
    x, y = out.witness
    elem = rank2_extreme_check([q1, q2], x, y)
    assert elem is not None and rc.numeric_rank(elem) == 2


def test_codim2_rank2_witness(rng):
    for seed in range(30):
        local = np.random.default_rng(seed)
        q1 = local.standard_normal((4, 4))
        q1 = q1 + q1.T
        q2 = local.standard_normal((4, 4))
        q2 = q2 + q2.T
        out = codim2_structure(q1, q2, seed=seed, null_seeds=50, p_samples=400)
        if out.case == "rank2-extremes":
            x, y = out.witness
            assert rank2_extreme_check([q1, q2], x, y) is not None
            return
    pytest.fail("no random pair produced a rank-2 extreme witness")


def test_classify_codim1_examples():
    assert classify_small(rc.hankel_cone(3)).signature == (2, 1, 0)
    assert classify_small(rc.tridiagonal_cone(3)) == ClassLabel("Tri", n=3)
    assert classify_small(rc.full_psd_cone(3)) == ClassLabel("FullPsd", n=3)


def test_classifier_catalog():
    for name, (cone, expected) in catalog_constructions().items():
        got = classify_small(cone)
        assert got == expected, (name, got)


def test_classifier_congruence_invariant(rng):
    for name, (cone, expected) in catalog_constructions().items():
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
