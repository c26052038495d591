import numpy as np
import pytest

import rogcones as rc
from rogcones import symlin
from rogcones.pencil_struct import ClassLabel


def random_congruence(rng, n, spread=2.0):
    """Random invertible matrix with bounded condition number."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(1.0 / spread, spread, n)
    return q1 @ np.diag(d) @ q2


def random_chordal_graph(rng, n, connect=0.8):
    """Random chordal graph: each vertex joins a clique of the earlier graph."""
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() > connect:
            continue  # isolated attach: new component
        w = int(rng.integers(v))
        clique = [w]
        nb = sorted(adj[w])
        rng.shuffle(nb)
        for c in nb:
            if all(c in adj[u] or c == u for u in clique):
                clique.append(c)
            if len(clique) >= 3:
                break
        for u in clique:
            edges.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
    return rc.ChordalGraph(n, edges)


def atom_columns(dec):
    """The columns sqrt(w_i) v_i of a decomposition's atoms: X = B B^*."""
    return np.array([a.vector * np.sqrt(a.weight) for a in dec.atoms]).T


def rank_r_member(cone, rng, r, scale=(0.5, 2.0)):
    """Random element of the cone with known rank r (resampled until exact)."""
    for _ in range(60):
        rays = []
        mat = np.zeros((cone.n, 0))
        guard = 0
        while len(rays) < r and guard < 40 * r:
            guard += 1
            x = rc.random_extreme_ray(cone, rng)
            resid = x - mat @ (mat.conj().T @ x) if mat.shape[1] else x
            if np.linalg.norm(resid) > 1e-3:
                rays.append(x)
                q = resid / np.linalg.norm(resid)
                mat = np.hstack([mat, q[:, None]])
        if len(rays) < r:
            continue
        x_mat = sum(rng.uniform(*scale) * np.outer(x, x.conj()) for x in rays)
        x_mat = 0.5 * (x_mat + x_mat.conj().T)
        if rc.numeric_rank(x_mat) == r:
            return x_mat
    raise RuntimeError("could not sample a member of the requested rank")


def family_registry():
    """The certified families exercised by the decomposition tests."""
    return {
        "full_psd4": rc.full_psd_cone(4),
        "diagonal5": rc.diagonal_cone(5),
        "hankel4": rc.hankel_cone(4),
        "hankel22": rc.hankel_cone(2, 2),
        "tridiag4": rc.tridiagonal_cone(4),
        "chordal6": rc.chordal_cone(random_chordal_graph(np.random.default_rng(2), 6)),
        "codim1": rc.codim1_cone(np.diag([1.0, 1.0, -1.0, -1.0])),
        "cross_ratio": rc.cross_ratio_cone([0.15, 0.8, 1.65, 2.4]),
        "full_ext_han3": rc.full_extension(rc.hankel_cone(3), 5),
    }


def catalog_constructions():
    """The simple cones of each degree <= 4: counts 1, 1, 3, 10."""
    s1 = rc.full_psd_cone(1)
    s2 = rc.full_psd_cone(2)
    han3 = rc.hankel_cone(3)
    deg1 = {"FullPsd1": (rc.full_psd_cone(1), ClassLabel("FullPsd", n=1))}
    deg2 = {"FullPsd2": (rc.full_psd_cone(2), ClassLabel("FullPsd", n=2))}
    deg3 = {
        "FullPsd3": (rc.full_psd_cone(3), ClassLabel("FullPsd", n=3)),
        "Han3": (han3, ClassLabel("Codim1", n=3, signature=(2, 1, 0))),
        "Tri3": (rc.tridiagonal_cone(3), ClassLabel("Tri", n=3)),
    }
    deg4 = {
        "FullPsd4": (rc.full_psd_cone(4), ClassLabel("FullPsd", n=4)),
        "FullExtDiag2": (rc.full_extension(rc.diagonal_cone(2), 4),
                         ClassLabel("FullExtDiag2", n=4)),
        "FullExtHan3": (rc.full_extension(han3, 4),
                        ClassLabel("FullExtHan3", n=4)),
        "Han22": (rc.hankel_cone(2, 2), ClassLabel("Han22", n=4)),
        "Codim1_3110": (rc.codim1_cone(np.diag([1.0, 1.0, 1.0, -1.0])),
                        ClassLabel("Codim1", n=4, signature=(3, 1, 0))),
        "Codim2FullExt": (rc.full_extension(rc.direct_sum(s1, s2), 4),
                          ClassLabel("Codim2FullExt", n=4)),
        "Tri4": (rc.tridiagonal_cone(4), ClassLabel("Tri", n=4)),
        "FullExtDiag3": (rc.full_extension(rc.diagonal_cone(3), 4),
                         ClassLabel("FullExtDiag3", n=4)),
        "IntertwineHan3S2": (
            rc.intertwine(han3, s2, rc.rank1_glue(han3, [1, 1, 1], s2, [1, 0])),
            ClassLabel("IntertwineHan3S2", n=4)),
        "Han4": (rc.hankel_cone(4), ClassLabel("Han4", n=4)),
    }
    assert (len(deg1), len(deg2), len(deg3), len(deg4)) == (1, 1, 3, 10)
    out = {}
    out.update(deg1)
    out.update(deg2)
    out.update(deg3)
    out.update(deg4)
    return out


def raw_four_cycle_cone():
    """The 4-cycle pattern cone L = {X : X_02 = X_13 = 0}, with no
    expression: e_i + e_j, e_i - e_j, e_i and e_j on the edges 01, 12, 23
    and 30, twelve rays once deduped, whose outer products span L."""
    eye = np.eye(4)
    gens = [v for i, j in ((0, 1), (1, 2), (2, 3), (3, 0))
            for v in (eye[i] + eye[j], eye[i] - eye[j], eye[i], eye[j])]
    return rc.make_cone(4, [symlin.outer(g) for g in gens], gens)


def count_span_tests(monkeypatch):
    """Patch ``symlin.span_distance`` and ``symlin.span_distances`` to record
    each call by name (the one-matrix case calls the kernel too)."""
    calls = []
    for name in ("span_distance", "span_distances"):
        def counted(*args, real=getattr(symlin, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(symlin, name, counted)
    return calls


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the positional arguments of each call;
    callers that look the name up in the module at call time see the patch."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
