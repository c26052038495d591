import numpy as np
import pytest

import rogcones as rc


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
