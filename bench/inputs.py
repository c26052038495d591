"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy: the generators never call into
``rogcones``, so a change to the package cannot change the inputs it is
measured on.  Each cone input is described by a :class:`Spec` that carries
the expression JSON handed to the program together with the facts the
verifier needs: the matrix size, the closed-form span dimension, and a
sampler of rank-1 directions of the cone (used to make members of known
rank).  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

RANK_TOL = 1e-8  # relative eigenvalue cut, as in the package's numeric_rank
COND_MAX = 100.0  # condition-number cap of the generated codimension-1 forms
# cap on lambda_1 / lambda_r of a generated rank-r member: nearly rank-deficient
# members make the engines reject valid input now and then (bench/defects.py)
MEMBER_COND_MAX = 1e3


# ---------------------------------------------------------------------------
# small linear-algebra helpers (independent of the package)


def numeric_rank(a: np.ndarray, tol: float = RANK_TOL) -> int:
    """Eigenvalues with |lambda| > tol * max(1, |lambda|_max)."""
    a = np.asarray(a)
    w = np.linalg.eigvalsh(0.5 * (a + a.conj().T))
    if w.size == 0:
        return 0
    return int(np.count_nonzero(np.abs(w) > tol * max(1.0, float(np.abs(w).max()))))


def congruence(rng: np.random.Generator, n: int, spread: float = 2.0) -> np.ndarray:
    """Random invertible matrix with condition number at most spread^2."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(1.0 / spread, spread, n)) @ q2


def sym_random(rng: np.random.Generator, n: int) -> np.ndarray:
    s = rng.standard_normal((n, n))
    return 0.5 * (s + s.T)


# ---------------------------------------------------------------------------
# graphs


def chordal_graph(rng: np.random.Generator, n: int, connect: float = 0.9,
                  clique_max: int = 3) -> list[tuple[int, int]]:
    """Random chordal graph: each new vertex joins a clique of the earlier graph.

    Adding vertices this way builds a perfect elimination order in
    reverse, so the result is chordal by construction.  With probability
    1 - connect a vertex starts a new component instead.
    """
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        if rng.random() > connect:
            continue
        w = int(rng.integers(v))
        clique = [w]
        nb = sorted(adj[w])
        rng.shuffle(nb)
        for c in nb:
            if len(clique) >= clique_max:
                break
            if all(c in adj[u] for u in clique):
                clique.append(c)
        for u in clique:
            edges.append((min(u, v), max(u, v)))
            adj[u].add(v)
            adj[v].add(u)
    return sorted(set(edges))


def maximal_cliques(n: int, edges) -> list[tuple[int, ...]]:
    """All maximal cliques, by brute force over vertex subsets (small n)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    cliques = []
    for size in range(n, 0, -1):
        for sub in itertools.combinations(range(n), size):
            if any(set(sub) <= set(c) for c in cliques):
                continue
            if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
                cliques.append(sub)
    return sorted(cliques)


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def _clique_list(n: int, edges) -> list[list[int]]:
    """Maximal cliques of a chordal graph from its construction order.

    Chordal graphs made by :func:`chordal_graph` have every vertex's
    earlier neighbours forming a clique, so closed earlier-neighbourhoods
    cover all maximal cliques; non-maximal ones are dropped.
    """
    earlier = [set() for _ in range(n)]
    for i, j in edges:
        earlier[max(i, j)].add(min(i, j))
    cands = [sorted(earlier[v] | {v}) for v in range(n)]
    out = []
    for c in sorted(cands, key=len, reverse=True):
        if not any(set(c) <= set(d) for d in out):
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# cone specifications


@dataclass
class Spec:
    """A cone input: expression JSON plus closed-form facts about the cone.

    ``coord_rays`` lists coordinates i with e_i e_i^T in the cone, and
    ``faces2`` coordinate pairs whose whole 2 x 2 PSD block lies in it;
    intertwinings glue along these, which keeps the coordinate maps of
    the result known in closed form.
    """

    expr: dict
    n: int
    dim: int
    ray: Callable[[np.random.Generator], np.ndarray]
    complex_field: bool = False
    coord_rays: list = field(default_factory=list)
    faces2: list = field(default_factory=list)
    label: str = ""

    @property
    def degree(self) -> int:
        # every family and combinator used here yields a non-degenerate cone
        return self.n


def full_psd(n: int) -> Spec:
    return Spec({"kind": "full_psd", "params": {"n": n}}, n, n * (n + 1) // 2,
                lambda rng: rng.standard_normal(n),
                coord_rays=list(range(n)),
                faces2=list(itertools.combinations(range(n), 2)),
                label=f"full_psd{n}")


def hankel(n: int, m: int = 1) -> Spec:
    """Block-Hankel cone; rays are (x, t x, ..., t^{n-1} x) with finite t.

    The rays at infinity, (0, .., 0, x), are left out: members that hold
    one are sometimes rejected by the program (bench/defects.py).
    """
    def ray(rng):
        x = rng.standard_normal(m)
        t = float(np.tan(rng.uniform(-1.2, 1.2)))
        return np.kron(t ** np.arange(n), x)
    coords = list(range(m)) + [(n - 1) * m + a for a in range(m)]
    return Spec({"kind": "hankel", "params": {"n": n, "m": m}}, n * m,
                (2 * n - 1) * m * (m + 1) // 2, ray, coord_rays=sorted(set(coords)),
                label=f"hankel{n}x{m}")


def block_toeplitz(n: int, m: int = 1) -> Spec:
    def ray(rng):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        q = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return np.kron(q ** np.arange(n), v)
    return Spec({"kind": "block_toeplitz", "params": {"n": n, "m": m}}, n * m,
                (2 * n - 1) * m * m, ray, complex_field=True,
                label=f"block_toeplitz{n}x{m}")


def codim1(rng: np.random.Generator, n: int, n_pos: int | None = None) -> Spec:
    """PSD matrices orthogonal to a random form Q with n_pos positive and
    n - n_pos negative eigenvalues, and Q[0, 0] = 0.

    Q = P^T D P with D diagonal of the given inertia; the first column of
    P lies on the null cone of D, which puts e_0 on the null cone of Q.
    Rays are found by intersecting random lines x + t y with the null cone.
    Q is redrawn until its condition number is at most COND_MAX.
    """
    n_pos = (n + 1) // 2 if n_pos is None else n_pos
    while True:
        d = np.concatenate([rng.uniform(0.5, 2.0, n_pos),
                            -rng.uniform(0.5, 2.0, n - n_pos)])
        p = congruence(rng, n)
        u, v = np.zeros(n), np.zeros(n)
        u[:n_pos], v[n_pos:] = rng.standard_normal(n_pos), rng.standard_normal(n - n_pos)
        p[:, 0] = u / np.sqrt(u @ (d * u)) + v / np.sqrt(-(v @ (d * v)))
        q = np.round(p.T @ (d[:, None] * p), 6)
        q[0, 0] = 0.0
        if np.linalg.cond(q) <= COND_MAX:
            break

    def ray(r):
        while True:
            x, y = r.standard_normal(n), r.standard_normal(n)
            a, b, c = y @ q @ y, 2.0 * (x @ q @ y), x @ q @ x
            disc = b * b - 4.0 * a * c
            if abs(a) > 1e-3 and disc > 0:
                t = (-b + np.sign(r.standard_normal()) * np.sqrt(disc)) / (2.0 * a)
                return x + t * y
    return Spec({"kind": "codim1", "params": {"Q": q.tolist()}}, n,
                n * (n + 1) // 2 - 1, ray, coord_rays=[0], label=f"codim1_{n}")


def cross_ratio(angles) -> Spec:
    """Four rank-1 gluings onto a base 2 x 2 block (11-dimensional, in S^6)."""
    phis = [float(p) for p in angles]
    planes = [np.eye(6)[:, :2]]
    for j, phi in enumerate(phis):
        h = np.zeros((6, 2))
        h[0, 0], h[1, 0], h[2 + j, 1] = np.cos(phi), np.sin(phi), 1.0
        planes.append(h)

    def ray(rng):
        return planes[rng.integers(len(planes))] @ rng.standard_normal(2)
    return Spec({"kind": "cross_ratio", "params": {"angles": phis}}, 6, 11, ray,
                coord_rays=list(range(6)), faces2=[(0, 1)], label="cross_ratio")


def ternary_quartic() -> Spec:
    def quadric(x):
        x1, x2, x3 = x
        return np.array([x1 * x1, x2 * x2, x3 * x3, x2 * x3, x1 * x3, x1 * x2])
    return Spec({"kind": "ternary_quartic", "params": {}}, 6, 15,
                lambda rng: quadric(rng.standard_normal(3)),
                coord_rays=[0, 1, 2], label="ternary_quartic")


def chordal(n: int, edges) -> Spec:
    cliques = _clique_list(n, edges)

    def ray(rng):
        c = cliques[rng.integers(len(cliques))]
        x = np.zeros(n)
        x[c] = rng.standard_normal(len(c))
        return x
    return Spec({"kind": "chordal", "params": {"n": n, "edges": [list(e) for e in edges]}},
                n, n + len(edges), ray, coord_rays=list(range(n)),
                faces2=[tuple(e) for e in edges], label=f"chordal{n}")


def direct_sum(a: Spec, b: Spec) -> Spec:
    na, nb = a.n, b.n

    def ray(rng):
        if rng.random() < na / (na + nb):
            return np.concatenate([a.ray(rng), np.zeros(nb, dtype=_dt(b))])
        return np.concatenate([np.zeros(na, dtype=_dt(a)), b.ray(rng)])
    return Spec({"kind": "direct_sum", "params": {"sizes": [na, nb]},
                 "children": [a.expr, b.expr]},
                na + nb, a.dim + b.dim, ray, complex_field=a.complex_field,
                coord_rays=a.coord_rays + [i + na for i in b.coord_rays],
                faces2=a.faces2 + [(i + na, j + na) for i, j in b.faces2],
                label=f"sum({a.label},{b.label})")


def full_ext(a: Spec, n: int) -> Spec:
    na, k = a.n, n - a.n

    def ray(rng):
        if rng.random() < 0.2:
            return np.concatenate([np.zeros(na), rng.standard_normal(k)])
        return np.concatenate([a.ray(rng), rng.standard_normal(k)])
    tail = list(range(na, n))
    return Spec({"kind": "full_ext", "params": {"n": n, "head": na}, "children": [a.expr]},
                n, a.dim + na * k + k * (k + 1) // 2, ray,
                coord_rays=a.coord_rays + tail,
                faces2=a.faces2 + list(itertools.combinations(tail, 2)),
                label=f"ext({a.label},{n})")


def intertwine(a: Spec, b: Spec, glue_a, glue_b) -> Spec:
    """Glue along coordinate faces: glue_a / glue_b are equal-length index lists.

    With canonical glue vectors intertwine's coordinate change is a
    permutation: child-a coordinates outside the glue come first in index
    order, then the glue coordinates, then child-b coordinates outside the
    glue in index order.
    """
    k = len(glue_a)
    na, nb = a.n, b.n
    n = na + nb - k
    map_a = {q: pos for pos, q in enumerate(q for q in range(na) if q not in glue_a)}
    map_a.update({q: na - k + l for l, q in enumerate(glue_a)})
    map_b = {q: na - k + l for l, q in enumerate(glue_b)}
    map_b.update({q: na + pos for pos, q in enumerate(q for q in range(nb) if q not in glue_b)})
    pa = np.zeros((n, na))
    for q, pos in map_a.items():
        pa[pos, q] = 1.0
    pb = np.zeros((n, nb))
    for q, pos in map_b.items():
        pb[pos, q] = 1.0

    def ray(rng):
        return pa @ a.ray(rng) if rng.random() < na / (na + nb) else pb @ b.ray(rng)
    iota1 = np.eye(na)[:, list(glue_a)]
    iota2 = np.eye(nb)[:, list(glue_b)]
    coords = sorted({map_a[i] for i in a.coord_rays} | {map_b[i] for i in b.coord_rays})
    faces = sorted({tuple(sorted((map_a[i], map_a[j]))) for i, j in a.faces2}
                   | {tuple(sorted((map_b[i], map_b[j]))) for i, j in b.faces2})
    return Spec({"kind": "intertwine",
                 "params": {"rank": k, "iota1": iota1.tolist(), "iota2": iota2.tolist()},
                 "children": [a.expr, b.expr]},
                n, a.dim + b.dim - k * (k + 1) // 2, ray,
                coord_rays=coords, faces2=faces, label=f"glue({a.label},{b.label})")


def transform(a: Spec, mat: np.ndarray) -> Spec:
    mat = np.round(mat, 6)
    return Spec({"kind": "transform", "params": {"matrix": mat.tolist()},
                 "children": [a.expr]},
                a.n, a.dim, lambda rng: mat @ a.ray(rng), complex_field=a.complex_field,
                label=f"move({a.label})")


def _dt(s: Spec):
    return complex if s.complex_field else float


def glue(rng: np.random.Generator, a: Spec, b: Spec, rank: int = 1) -> Spec | None:
    """Intertwine a and b along a random shared coordinate face, if both have one."""
    if rank == 1 and a.coord_rays and b.coord_rays:
        return intertwine(a, b, [int(rng.choice(a.coord_rays))],
                          [int(rng.choice(b.coord_rays))])
    if rank == 2 and a.faces2 and b.faces2 and min(a.n, b.n) > 2:
        fa = a.faces2[rng.integers(len(a.faces2))]
        fb = b.faces2[rng.integers(len(b.faces2))]
        return intertwine(a, b, list(fa), list(fb))
    return None


# ---------------------------------------------------------------------------
# nested expressions


def _leaf(shape: np.random.Generator, vals: np.random.Generator) -> Spec:
    pick = shape.integers(6)
    if pick == 0:
        return hankel(int(shape.integers(3, 6)), int(shape.integers(1, 3)))
    if pick == 1:
        n = int(shape.integers(3, 6))
        return codim1(vals, n, int(shape.integers(1, n)))
    if pick == 2:
        base = np.sort(vals.uniform(0.0, np.pi, 4))
        return cross_ratio(base + np.array([0.0, 0.05, 0.1, 0.15]))
    if pick == 3:
        return ternary_quartic()
    if pick == 4:
        return full_psd(int(shape.integers(2, 4)))
    return hankel(int(shape.integers(3, 6)))


def nested_expr(shape: np.random.Generator, vals: np.random.Generator,
                max_n: int = 16) -> Spec:
    """A real cone built from two to four leaves by the three combinators,
    possibly moved by a congruence at the root.

    ``shape`` draws the tree (kinds, sizes, combinators) and ``vals`` the
    numbers in it (forms, angles, glue coordinates, congruences), so a
    workload can keep the amount of work fixed while its seed varies.
    """
    spec = _leaf(shape, vals)
    for _ in range(int(shape.integers(1, 4))):
        room = max_n - spec.n
        step = int(shape.integers(3))
        if step == 0 and room >= 2:
            spec = full_ext(spec, spec.n + int(shape.integers(1, min(3, room) + 1)))
            continue
        other = _leaf(shape, vals)
        if other.n > room + 2:
            continue
        if step == 1 and other.n <= room:
            spec = direct_sum(spec, other)
            continue
        rank = 2 if (spec.faces2 and other.faces2 and shape.random() < 0.3) else 1
        glued = glue(vals, spec, other, rank)
        if glued is not None and glued.n <= max_n:
            spec = glued
    if shape.random() < 0.3:
        spec = transform(spec, congruence(vals, spec.n))
    return spec


def toeplitz_expr(shape: np.random.Generator, vals: np.random.Generator,
                  pick: int) -> Spec:
    """A complex block-Toeplitz cone: alone (pick 0), summed (1) or moved (2)."""
    a = block_toeplitz(int(shape.integers(2, 5)), int(shape.integers(1, 3)))
    if pick == 1:
        return direct_sum(a, block_toeplitz(int(shape.integers(2, 4)), 1))
    if pick == 2:
        return transform(a, congruence(vals, a.n))
    return a


# ---------------------------------------------------------------------------
# members of known rank


def member_of_rank(rng: np.random.Generator, spec: Spec, r: int,
                   scale=(0.5, 2.0), ray=None, cond_max: float = MEMBER_COND_MAX) -> np.ndarray:
    """Sum of r weighted rank-1 elements, resampled until numeric_rank is r
    and the largest over the r-th largest eigenvalue is at most ``cond_max``."""
    ray = ray or spec.ray
    for _ in range(2000):
        rays = [ray(rng) for _ in range(r)]
        rays = [x / np.linalg.norm(x) for x in rays]
        x_mat = sum(rng.uniform(*scale) * np.outer(x, x.conj()) for x in rays)
        x_mat = 0.5 * (x_mat + x_mat.conj().T)
        w = np.linalg.eigvalsh(x_mat)[::-1]
        if numeric_rank(x_mat) == r and w[0] <= cond_max * w[r - 1]:
            return x_mat
    raise RuntimeError(f"could not sample a rank-{r} member of {spec.label}")


def clustered_hankel_member(rng: np.random.Generator, n: int, r: int,
                            gap: float) -> np.ndarray:
    """Rank-r Hankel member whose r nodes sit about gap apart.

    With r = n the clustered nodes saturate the shift-invariance node
    solve, which sends the Hankel route to its peeling fallback.
    """
    for _ in range(200):
        nodes = rng.uniform(-0.8, 0.8) + gap * (np.arange(r) + rng.uniform(0.0, 0.1, r))
        vs = [t ** np.arange(n) for t in nodes]
        x_mat = sum(rng.uniform(0.5, 2.0) * np.outer(v, v) / (v @ v) for v in vs)
        if numeric_rank(x_mat) == r:
            return x_mat
    raise RuntimeError("could not sample a clustered Hankel member")


# ---------------------------------------------------------------------------
# QCQP instances and their oracles


# Separation of the optimum of the generated QCQPs: the smallest clique
# minimum lies this far below the next one, and lambda_min(S - t* A) this far
# below the next eigenvalue.  On near-ties the barrier optimizer mixes two
# rank-1 optima, its purification stalls above rank 1, and the program reports
# `gap-detected` on an exact instance (a known defect, run by bench/defects.py).
MARGIN = 0.1


@dataclass
class Qcqp:
    """min x^T S x  s.t.  x^T A_i x = 0, x^T x = 1, with an independent oracle.

    ``exact`` says whether the relaxation is exact for structural reasons
    (no constraints, a chordal pattern, one indefinite form).
    """

    name: str
    s: np.ndarray
    forms: list
    oracle: float
    exact: bool

    def to_json(self) -> dict:
        n = self.s.shape[0]
        return {"S": self.s.tolist(), "B": np.eye(n).tolist(),
                "A": [a.tolist() for a in self.forms]}


def _pattern_forms(n: int, edges) -> list[np.ndarray]:
    present = set(edges)
    forms = []
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in present:
            a = np.zeros((n, n))
            a[i, j] = a[j, i] = 1.0
            forms.append(a)
    return forms


def clique_oracle(s: np.ndarray, cases) -> float:
    return min(float(np.linalg.eigvalsh(s[np.ix_(c, c)])[0]) for c in cases)


def unconstrained_qcqp(rng: np.random.Generator, n: int) -> Qcqp:
    s = sym_random(rng, n)
    return Qcqp(f"free{n}", s, [], float(np.linalg.eigvalsh(s)[0]), True)


def pattern_qcqp(rng: np.random.Generator, n: int, edges, name: str,
                 exact: bool, separation=(MARGIN, np.inf)) -> Qcqp:
    """x_i x_j = 0 off the pattern graph; rank-1 supports are its cliques.

    S is redrawn until the next clique minimum lies above the smallest by
    an amount in the closed interval ``separation`` (see MARGIN); with one
    maximal clique the amount is infinite.
    """
    cases = [list(c) for c in maximal_cliques(n, edges)]
    while True:
        s = sym_random(rng, n)
        mins = sorted(float(np.linalg.eigvalsh(s[np.ix_(c, c)])[0]) for c in cases)
        sep = mins[1] - mins[0] if len(mins) > 1 else np.inf
        if separation[0] <= sep <= separation[1]:
            return Qcqp(name, s, _pattern_forms(n, edges), mins[0], exact)


def codim1_qcqp(rng: np.random.Generator, n: int, separation=(MARGIN, np.inf)) -> Qcqp:
    """One indefinite form; the oracle is max_t lambda_min(S - t A) (S-lemma).

    S is redrawn until the gap between the two smallest eigenvalues of
    S - t* A at the maximizer t* lies in ``separation`` (see MARGIN).
    """
    while True:
        s = sym_random(rng, n)
        while True:
            a = sym_random(rng, n)
            w = np.linalg.eigvalsh(a)
            if w[0] < -0.2 and w[-1] > 0.2:
                break
        value, t = codim1_optimum(s, a)
        w = np.linalg.eigvalsh(s - t * a)
        if separation[0] <= w[1] - w[0] <= separation[1]:
            return Qcqp(f"codim1_{n}", s, [a], value, True)


def codim1_optimum(s: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """(max_t lambda_min(S - t A), its maximizer) by golden-section search
    (the function is concave)."""
    w = np.linalg.eigvalsh(a)
    span = 2.0 * (np.linalg.norm(s, 2) + 1.0)
    lo, hi = -span / -w[0], span / w[-1]

    def g(t):
        return float(np.linalg.eigvalsh(s - t * a)[0])
    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(200):
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - phi * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + phi * (hi - lo)
            gd = g(d)
        if hi - lo < 1e-13 * (1.0 + abs(lo)):
            break
    return (gc, c) if gc >= gd else (gd, d)


FOUR_CYCLE_S = np.array([
    [1.5791, 0.733, 0.1551, -0.5412],
    [0.733, 0.2194, 0.5624, 1.3786],
    [0.1551, 0.5624, 0.1832, 0.2496],
    [-0.5412, 1.3786, 0.2496, -0.1795]])
FOUR_CYCLE_CASES = [[2, 3], [2, 1], [0, 3], [0, 1]]


def four_cycle_gap(rng: np.random.Generator | None = None,
                   shift: float = 0.02) -> Qcqp:
    """The 4-cycle instance of test_certify_four_cycle_gap, or a copy whose
    cost is moved by a random symmetric matrix of spectral norm ``shift``.

    x0 x2 = x1 x3 = 0 splits the rank-1 feasible set into four coordinate
    cases.  The unmoved instance has a relaxation gap of about 0.095; both
    the relaxed value and the oracle move by at most ``shift``, so a moved
    copy keeps a gap above 0.05 and always reaches the sampler.
    """
    s = FOUR_CYCLE_S.copy()
    name = "four_cycle_gap"
    if rng is not None:
        d = sym_random(rng, 4)
        s = s + shift * d / np.linalg.norm(d, 2)
        name = "four_cycle_moved"
    return Qcqp(name, s, _pattern_forms(4, cycle_edges(4)),
                clique_oracle(s, FOUR_CYCLE_CASES), False)
