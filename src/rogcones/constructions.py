"""Builders for the certified cone families and the three combinators.

Every builder returns a :class:`~rogcones.cone_model.SpectrahedralCone`
whose span is the orthonormalized hull of its rank-1 certificate, with a
construction expression attached for the decomposition engines.  Builders
are deterministic: the same parameters always produce the same basis and
generator list, so serialized cones round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symlin
from .cone_model import (ConeExpr, SpectrahedralCone, apply_congruence,
                         certificate_complete, make_cone,
                         reduce_nondegenerate)
from .errors import InvalidInputError
from .symlin import DEFAULT_TOL


# ---------------------------------------------------------------------------
# elementary families


def full_psd_cone(n: int) -> SpectrahedralCone:
    """The full cone of n x n positive semidefinite matrices."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    eye = np.eye(n)
    gens = [eye[i] for i in range(n)]
    gens += [(eye[i] + eye[j]) for i in range(n) for j in range(i + 1, n)]
    return make_cone(n, symlin.sym_basis(n), gens,
                     expr=ConeExpr("full_psd", {"n": n}), check=False)


def diagonal_cone(n: int) -> SpectrahedralCone:
    """Diagonal PSD matrices; the matrix picture of the nonnegative orthant."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    eye = np.eye(n)
    span = [np.diag(eye[i]) for i in range(n)]
    return make_cone(n, span, [eye[i] for i in range(n)],
                     expr=ConeExpr("diagonal", {"n": n}), check=False)


def _moment_vector(t: float, n: int, x: np.ndarray) -> np.ndarray:
    """The vector (x, t x, ..., t^{n-1} x)."""
    return np.kron(t ** np.arange(n), x)


def hankel_cone(n: int, m: int = 1) -> SpectrahedralCone:
    """Block-Hankel PSD cone: n x n blocks of size m, constant anti-diagonals.

    The span consists of block-Hankel matrices with symmetric blocks; its
    dimension is (2n-1) m (m+1) / 2.  The certificate holds moment vectors
    (x, t x, ..., t^{n-1} x) on a Chebyshev node grid (enough nodes for a
    Vandermonde argument to make it complete) plus the node-at-infinity
    vectors (0, ..., 0, x).
    """
    if n < 1 or m < 1:
        raise InvalidInputError("n and m must be >= 1")
    sm = symlin.sym_basis(m)
    span = []
    for k in range(2 * n - 1):
        for e in sm:
            mat = np.zeros((n * m, n * m))
            for i in range(n):
                j = k - i
                if 0 <= j < n:
                    mat[i * m:(i + 1) * m, j * m:(j + 1) * m] = e
            span.append(mat)
    nodes = np.cos(np.pi * (2 * np.arange(2 * n - 1) + 1) / (2 * (2 * n - 1)))
    eye = np.eye(m)
    xs = [eye[a] for a in range(m)]
    xs += [(eye[a] + eye[b]) for a in range(m) for b in range(a + 1, m)]
    gens = [_moment_vector(t, n, x) for t in nodes for x in xs]
    tail = np.zeros(n * m)
    for a in range(m):
        v = tail.copy()
        v[(n - 1) * m + a] = 1.0
        gens.append(v)
    cone = make_cone(n * m, span, gens,
                     expr=ConeExpr("hankel", {"n": n, "m": m}), check=False)
    assert cone.dim == (2 * n - 1) * m * (m + 1) // 2
    return cone


def codim1_cone(q: np.ndarray, tol: float = DEFAULT_TOL) -> SpectrahedralCone:
    """PSD matrices orthogonal to one indefinite quadratic form.

    The rank-1 elements are exactly the outer products of the null cone
    {x : x^T Q x = 0}; the certificate samples it by combining positive
    and negative eigendirections of Q (with kernel directions mixed in)
    until the products span the full orthogonal complement of Q.
    """
    q = symlin.sym_matrix(q)
    n = q.shape[0]
    u_dirs, v_dirs, ker = symlin.inertia_split(q, tol)
    if u_dirs.shape[1] == 0 or v_dirs.shape[1] == 0:
        raise InvalidInputError("form must be indefinite")
    gens = []
    for a in range(u_dirs.shape[1]):
        for b in range(v_dirs.shape[1]):
            gens.append(u_dirs[:, a] + v_dirs[:, b])
            gens.append(u_dirs[:, a] - v_dirs[:, b])
    for c in range(ker.shape[1]):
        gens.append(ker[:, c])
        gens.append(u_dirs[:, 0] + v_dirs[:, 0] + ker[:, c])
    target = n * (n + 1) // 2 - 1
    rng = np.random.default_rng(20240314)
    guard = 0
    while len(gens) < 4 * target:
        s = rng.standard_normal(u_dirs.shape[1])
        r = rng.standard_normal(v_dirs.shape[1])
        x = u_dirs @ (s / np.linalg.norm(s)) + v_dirs @ (r / np.linalg.norm(r))
        if ker.shape[1]:
            x = x + ker @ rng.standard_normal(ker.shape[1]) * 0.5
        gens.append(x)
        guard += 1
        prods = [symlin.outer(g) for g in gens]
        if symlin.orthonormal_span(prods).shape[0] == target:
            break
        if guard > 40 * target:
            raise InvalidInputError("could not certify the codimension-1 cone")
    q_hat = q / np.linalg.norm(q)
    span = [s - np.tensordot(s, q_hat) * q_hat for s in symlin.sym_basis(n)]
    cone = make_cone(n, span, gens,
                     expr=ConeExpr("codim1", {"Q": q.tolist()}, aux={"Q": q}),
                     check=False)
    assert cone.dim == target
    if not certificate_complete(cone):
        raise InvalidInputError("could not certify the codimension-1 cone")
    return cone


_TQ_SAMPLES = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (1, -1, 0), (1, 0, -1), (0, 1, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1),
    (-1, 1, 1), (1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 2, 3), (3, 1, 2),
    (2, 3, 1), (1, -2, 1), (2, 1, -1),
]


def _quadric_vector(x: np.ndarray) -> np.ndarray:
    x1, x2, x3 = x
    return np.array([x1 * x1, x2 * x2, x3 * x3, x2 * x3, x1 * x3, x1 * x2])


def ternary_quartic_cone() -> SpectrahedralCone:
    """The 15-dimensional moment cone of quartic forms in three variables.

    Elements live in S^6 under the basis (x1^2, x2^2, x3^2, x2 x3, x1 x3,
    x1 x2) of the quadratic forms; the rank-1 elements are s(x) s(x)^T for
    x in R^3.
    """
    gens = [_quadric_vector(np.asarray(x, dtype=float)) for x in _TQ_SAMPLES]
    span = [symlin.outer(g) for g in gens]
    cone = make_cone(6, span, gens, expr=ConeExpr("ternary_quartic", {}),
                     check=False)
    assert cone.dim == 15
    return cone


def cross_ratio_planes(angles) -> list[np.ndarray]:
    """The five 2-dimensional subspaces (as 6 x 2 bases) of the family."""
    phis = [float(p) for p in angles]
    planes = [np.zeros((6, 2))]
    planes[0][0, 0] = planes[0][1, 1] = 1.0
    for j, phi in enumerate(phis):
        h = np.zeros((6, 2))
        h[0, 0] = np.cos(phi)
        h[1, 0] = np.sin(phi)
        h[2 + j, 1] = 1.0
        planes.append(h)
    return planes


def cross_ratio_cone(angles) -> SpectrahedralCone:
    """Four rank-1 gluings of 2 x 2 blocks onto a base 2 x 2 block.

    A one-parameter family of mutually non-isomorphic 11-dimensional cones
    in S^6, indexed by the projective cross-ratio of the four lines with
    the given incidence angles.
    """
    phis = [float(p) % np.pi for p in angles]
    if len(phis) != 4:
        raise InvalidInputError("need exactly four angles")
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(np.sin(phis[i] - phis[j])) < 1e-9:
                raise InvalidInputError("angles must be distinct modulo pi")
    planes = cross_ratio_planes(phis)
    span = []
    gens = []
    for h in planes:
        span.extend(symlin.subspace_pencil_span(h))
        gens.extend([h[:, 0], h[:, 1], h[:, 0] + h[:, 1]])
    cone = make_cone(6, span, gens,
                     expr=ConeExpr("cross_ratio", {"angles": phis},
                                   aux={"planes": planes}),
                     check=False)
    assert cone.dim == 11
    return cone


def moment_cone_from_samples(evaluators, samples,
                             powers=None) -> SpectrahedralCone:
    """Cone spanned by s(x) s(x)^T where s_i(x) = u_i(x) over the samples.

    ``evaluators`` is a list of callables; alternatively pass ``powers``
    (a list of exponent tuples) to use monomials, which also makes the
    expression serializable.
    """
    if powers is not None:
        powers = [tuple(int(p) for p in row) for row in powers]
        evaluators = [(lambda x, row=row: float(np.prod(np.asarray(x, dtype=float) ** row)))
                      for row in powers]
    if not samples:
        raise InvalidInputError("need at least one sample")
    n = len(evaluators)
    gens = []
    for x in samples:
        s = np.array([u(x) for u in evaluators], dtype=float)
        gens.append(s)
    span = [symlin.outer(g) for g in gens]
    params = {"samples": [np.atleast_1d(np.asarray(x, dtype=float)).tolist()
                          for x in samples]}
    if powers is not None:
        params["powers"] = [list(p) for p in powers]
    return make_cone(n, span, gens, expr=ConeExpr("moment", params),
                     check=False)


def _phase_vector(q: complex, n: int, v: np.ndarray) -> np.ndarray:
    return np.kron(q ** np.arange(n), v.astype(complex))


def block_toeplitz_cone(n: int, m: int = 1) -> SpectrahedralCone:
    """Complex Hermitian block-Toeplitz PSD cone (n x n blocks of size m).

    Rank-1 elements are w w^* with w = (v, v q, ..., v q^{n-1}) for a unit
    modulus q; the certificate samples q on a root-of-unity grid.
    """
    if n < 1 or m < 1:
        raise InvalidInputError("n and m must be >= 1")
    span = []
    hb = symlin.herm_basis(m)
    for e in hb:
        mat = np.zeros((n * m, n * m), dtype=complex)
        for i in range(n):
            mat[i * m:(i + 1) * m, i * m:(i + 1) * m] = e
        span.append(mat)
    for d in range(1, n):
        for a in range(m):
            for b in range(m):
                for c in (1.0, 1j):
                    mat = np.zeros((n * m, n * m), dtype=complex)
                    for i in range(n - d):
                        mat[(i + d) * m + a, i * m + b] = c
                        mat[i * m + b, (i + d) * m + a] = np.conj(c)
                    span.append(mat)
    eye = np.eye(m)
    vs = [eye[a].astype(complex) for a in range(m)]
    vs += [(eye[a] + eye[b]) / np.sqrt(2) for a in range(m) for b in range(a + 1, m)]
    vs += [(eye[a] + 1j * eye[b]) / np.sqrt(2) for a in range(m) for b in range(a + 1, m)]
    qs = np.exp(2j * np.pi * np.arange(2 * n - 1) / (2 * n - 1))
    gens = [_phase_vector(q, n, v) for q in qs for v in vs]
    cone = make_cone(n * m, span, gens,
                     expr=ConeExpr("block_toeplitz", {"n": n, "m": m}),
                     complex_field=True, check=False)
    assert cone.dim == (2 * n - 1) * m * m
    if not certificate_complete(cone):
        raise InvalidInputError("block-Toeplitz certificate incomplete")
    return cone


# ---------------------------------------------------------------------------
# combinators


def direct_sum(k1: SpectrahedralCone, k2: SpectrahedralCone) -> SpectrahedralCone:
    """Block-diagonal sum; dimensions and degrees both add."""
    if k1.complex_field != k2.complex_field:
        raise InvalidInputError("cannot mix real and complex cones")
    n1, n2 = k1.n, k2.n
    n = n1 + n2
    dtype = complex if k1.complex_field else float
    d1 = k1.dim
    span = np.zeros((d1 + k2.dim, n, n), dtype=dtype)
    span[:d1, :n1, :n1] = k1.span_basis
    span[d1:, n1:, n1:] = k2.span_basis
    gens = [np.concatenate([x, np.zeros(n2, dtype=dtype)]) for x in k1.generators]
    gens += [np.concatenate([np.zeros(n1, dtype=dtype), y]) for y in k2.generators]
    expr = ConeExpr("direct_sum", {"sizes": [n1, n2]}, children=(k1, k2))
    return make_cone(n, span, gens, expr=expr,
                     complex_field=k1.complex_field, check=False)


def full_extension(k1: SpectrahedralCone, n: int) -> SpectrahedralCone:
    """Extend to size n leaving the new rows and columns unconstrained.

    The span keeps the child constraints on the leading block, frees the
    off-diagonal strip over the child generators' span, and frees the
    trailing block entirely.  Degree grows by exactly n - size(child).
    """
    n1 = k1.n
    if n <= n1:
        raise InvalidInputError("extension size must exceed the child size")
    if k1.complex_field:
        raise InvalidInputError("full extensions are implemented over the reals")
    k = n - n1
    head_dirs = symlin.subspace_of_vectors(k1.generators) if len(k1.generators) \
        else np.eye(n1)
    span = []
    for s in k1.span_basis:
        mat = np.zeros((n, n))
        mat[:n1, :n1] = s
        span.append(mat)
    for a in range(head_dirs.shape[1]):
        for j in range(n1, n):
            mat = np.zeros((n, n))
            mat[:n1, j] = head_dirs[:, a]
            span.append(symlin.sym(mat) * 2.0)
    for i in range(n1, n):
        for j in range(i, n):
            mat = np.zeros((n, n))
            mat[i, j] = mat[j, i] = 1.0
            span.append(mat)
    eye = np.eye(n)
    tails = [eye[j, n1:] for j in range(n1, n)]
    gens = []
    for v in k1.generators:
        gens.append(np.concatenate([v, np.zeros(k)]))
        for t in tails:
            gens.append(np.concatenate([v, t]))
    for j in range(k):
        z = np.zeros(n)
        z[n1 + j] = 1.0
        gens.append(z)
        for l in range(j + 1, k):
            z2 = z.copy()
            z2[n1 + l] = 1.0
            gens.append(z2)
    expr = ConeExpr("full_ext", {"n": n, "head": n1}, children=(k1,),
                    aux={"head": n1, "tail": k})
    cone = make_cone(n, span, gens, expr=expr, check=False)
    return cone


@dataclass
class GlueSpec:
    """Gluing data for an intertwining along full faces of rank k.

    ``iota1`` and ``iota2`` are full-column-rank n_i x k coefficient
    matrices whose column spans H_i must carry full faces of the two
    cones (the entire PSD block over H_i belongs to the cone).
    """

    rank: int
    iota1: np.ndarray
    iota2: np.ndarray


def rank1_glue(k1: SpectrahedralCone, x1, k2: SpectrahedralCone, x2) -> GlueSpec:
    """Convenience: glue along single extreme rays."""
    return GlueSpec(1, np.asarray(x1, dtype=float).reshape(-1, 1),
                    np.asarray(x2, dtype=float).reshape(-1, 1))


def _validate_full_face(cone: SpectrahedralCone, iota: np.ndarray,
                        tol: float) -> np.ndarray:
    iota = np.asarray(iota, dtype=float)
    if iota.ndim != 2 or iota.shape[0] != cone.n:
        raise InvalidInputError("glue injection has the wrong shape")
    h = symlin.subspace_of_vectors(iota.T)
    if h.shape[1] != iota.shape[1]:
        raise InvalidInputError("glue injection is not of full column rank")
    for mat in symlin.subspace_pencil_span(h):
        if not symlin.span_contains(cone.span_basis, mat, tol):
            raise InvalidInputError(
                "glue subspace does not carry a full face of the cone")
    return h


def intertwine(k1: SpectrahedralCone, k2: SpectrahedralCone, glue: GlueSpec,
               tol: float = DEFAULT_TOL) -> SpectrahedralCone:
    """Glue two cones along isomorphic full faces of rank k.

    The result has size n1 + n2 - k and span L1 + L2 (the shared face
    block counted once); both child images are faces of the result.
    """
    if k1.complex_field or k2.complex_field:
        raise InvalidInputError("intertwinings are implemented over the reals")
    k = glue.rank
    if k < 1:
        raise InvalidInputError("glue rank must be >= 1 (use direct_sum)")
    if glue.iota1.shape[1] != k or glue.iota2.shape[1] != k:
        raise InvalidInputError("glue rank does not match the injections")
    if k >= min(k1.n, k2.n) + 1:
        raise InvalidInputError("glue rank too large")
    _validate_full_face(k1, glue.iota1, tol)
    _validate_full_face(k2, glue.iota2, tol)
    n1, n2 = k1.n, k2.n
    a, b = n1 - k, n2 - k
    n = a + k + b
    p1 = symlin.complement_basis(glue.iota1, n1)
    p2 = symlin.complement_basis(glue.iota2, n2)
    c1 = np.hstack([p1, glue.iota1])
    c2 = np.hstack([glue.iota2, p2])
    f1 = np.zeros((n, n1))
    f1[:a + k, :] = np.linalg.inv(c1)
    f2 = np.zeros((n, n2))
    f2[a:, :] = np.linalg.inv(c2)
    span = symlin.sym(np.concatenate([f1 @ k1.span_basis @ f1.T,
                                      f2 @ k2.span_basis @ f2.T]))
    gens = [f1 @ x for x in k1.generators]
    gens += [f2 @ y for y in k2.generators]
    expr = ConeExpr("intertwine",
                    {"rank": k, "iota1": glue.iota1.tolist(),
                     "iota2": glue.iota2.tolist()},
                    children=(k1, k2),
                    aux={"blocks": (a, k, b), "c1": c1, "c2": c2,
                         "f1": f1, "f2": f2})
    cone = make_cone(n, span, gens, expr=expr, check=False)
    expected = k1.dim + k2.dim - k * (k + 1) // 2
    if cone.dim != expected:
        raise InvalidInputError(
            f"glue produced dimension {cone.dim}, expected {expected}")
    return cone


# ---------------------------------------------------------------------------
# chordal cones


@dataclass
class ChordalGraph:
    """Undirected graph validated to be chordal at construction."""

    n: int
    edges: list[tuple[int, int]]

    def __post_init__(self):
        self.edges = sorted({(min(i, j), max(i, j)) for i, j in self.edges})
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
                raise InvalidInputError(f"bad edge ({i}, {j})")
        cycle = chordless_cycle(self.n, self.edges)
        if cycle is not None:
            raise InvalidInputError(
                f"graph is not chordal; chordless cycle {tuple(v + 1 for v in cycle)}")

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def mcs_order(n: int, adj: list[set[int]]) -> list[int]:
    """Maximum-cardinality search; earlier neighbors of each vertex form
    a clique exactly when the graph is chordal."""
    weight = [0] * n
    visited = [False] * n
    order = []
    for _ in range(n):
        v = max((i for i in range(n) if not visited[i]),
                key=lambda i: (weight[i], -i))
        order.append(v)
        visited[v] = True
        for u in adj[v]:
            if not visited[u]:
                weight[u] += 1
    return order


def chordless_cycle(n: int, edges) -> list[int] | None:
    """A chordless cycle of length >= 4, or None when the graph is chordal."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    order = mcs_order(n, adj)
    pos = {v: idx for idx, v in enumerate(order)}
    for idx, v in enumerate(order):
        earlier = [u for u in adj[v] if pos[u] < idx]
        for x in range(len(earlier)):
            for y in range(x + 1, len(earlier)):
                a, b = earlier[x], earlier[y]
                if b in adj[a]:
                    continue
                cycle = _avoiding_path_cycle(n, adj, v, a, b)
                if cycle is not None:
                    return cycle
    # no MCS violation produced a certificate: scan all triples as backup
    for v in range(n):
        nb = sorted(adj[v])
        for x in range(len(nb)):
            for y in range(x + 1, len(nb)):
                a, b = nb[x], nb[y]
                if b in adj[a]:
                    continue
                cycle = _avoiding_path_cycle(n, adj, v, a, b)
                if cycle is not None:
                    return cycle
    return None


def _avoiding_path_cycle(n, adj, v, a, b):
    """Shortest a-b path avoiding N[v] \\ {a, b}; closed with v it is chordless."""
    blocked = (adj[v] | {v}) - {a, b}
    from collections import deque
    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return [v] + path[::-1]
        for w in sorted(adj[u]):
            if w in blocked or w in prev:
                continue
            prev[w] = u
            queue.append(w)
    return None


def chordal_cone(graph: ChordalGraph) -> SpectrahedralCone:
    """PSD matrices whose off-pattern entries vanish, for a chordal pattern.

    The certificate goes vertex by vertex in maximum-cardinality-search
    order: e_v, then (e_u + e_v) / sqrt(2) for each earlier neighbor u.
    The earlier neighbors of v form a clique, so the reversed order is a
    perfect elimination order and zero-fill elimination along it writes
    every member as a sum of rank-1 terms on these cliques
    (Agler-Helton-McCullough-Rodman 1988).  ``aux`` keeps the order and,
    for each of its vertices, the clique of it and its earlier neighbors.
    """
    n = graph.n
    adj = graph.adjacency()
    order = mcs_order(n, adj)
    eye = np.eye(n)
    gens = []
    cliques = []
    for idx, v in enumerate(order):
        earlier = [u for u in order[:idx] if u in adj[v]]
        gens.append(eye[v])
        gens += [(eye[u] + eye[v]) / np.sqrt(2) for u in earlier]
        cliques.append(np.array([v] + earlier))
    expr = ConeExpr("chordal", {"n": n, "edges": [list(e) for e in graph.edges]},
                    aux={"order": order, "cliques": cliques})
    return make_cone(n, _pattern_span(n, graph.edges), gens, expr=expr, check=False)


def _pattern_span(n: int, edges) -> list[np.ndarray]:
    span = []
    for i in range(n):
        mat = np.zeros((n, n))
        mat[i, i] = 1.0
        span.append(mat)
    for i, j in edges:
        mat = np.zeros((n, n))
        mat[i, j] = mat[j, i] = 1.0
        span.append(mat)
    return span


def tridiagonal_cone(n: int) -> SpectrahedralCone:
    """PSD tridiagonal matrices: the chordal cone of the path graph."""
    cone = chordal_cone(ChordalGraph(n, [(i, i + 1) for i in range(n - 1)]))
    return cone.copy_with(expr=ConeExpr("tridiag", {"n": n}, aux=cone.expr.aux))


# ---------------------------------------------------------------------------
# expression builders


def _array_param(value) -> np.ndarray:
    """A matrix param; complex entries arrive as ``[re, im]`` pairs."""
    a = np.asarray(value, dtype=float)
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


# kind -> (number of children, or None for a leaf; builder(params, children)).
# The builders look the constructors up by name when called, so patching a
# module attribute (as the benchmark tracer does) reaches these calls too.
_BUILDERS = {
    "full_psd": (None, lambda p, c: full_psd_cone(int(p["n"]))),
    "diagonal": (None, lambda p, c: diagonal_cone(int(p["n"]))),
    "hankel": (None, lambda p, c: hankel_cone(int(p["n"]), int(p.get("m", 1)))),
    "tridiag": (None, lambda p, c: tridiagonal_cone(int(p["n"]))),
    "chordal": (None, lambda p, c: chordal_cone(
        ChordalGraph(int(p["n"]), [tuple(e) for e in p["edges"]]))),
    "codim1": (None, lambda p, c: codim1_cone(_array_param(p["Q"]))),
    "ternary_quartic": (None, lambda p, c: ternary_quartic_cone()),
    "cross_ratio": (None, lambda p, c: cross_ratio_cone(p["angles"])),
    "moment": (None, lambda p, c: _moment_from_params(p)),
    "block_toeplitz": (None, lambda p, c: block_toeplitz_cone(int(p["n"]),
                                                              int(p.get("m", 1)))),
    "direct_sum": (2, lambda p, c: direct_sum(c[0], c[1])),
    "full_ext": (1, lambda p, c: full_extension(c[0], int(p["n"]))),
    "intertwine": (2, lambda p, c: intertwine(
        c[0], c[1], GlueSpec(int(p["rank"]), _array_param(p["iota1"]),
                             _array_param(p["iota2"])))),
    "transform": (1, lambda p, c: apply_congruence(c[0], _array_param(p["matrix"]))),
    "reduce": (1, lambda p, c: reduce_nondegenerate(c[0])[0]),
}


# Leaf kinds take no children; JSON written before the chordal kinds became
# leaves lists their gluing tree, which loading skips.
LEAF_KINDS = frozenset(kind for kind, (arity, _) in _BUILDERS.items() if arity is None)


def _moment_from_params(params: dict) -> SpectrahedralCone:
    if "powers" not in params:
        raise InvalidInputError(
            "moment expressions are only serializable with monomial powers")
    return moment_cone_from_samples(None, params["samples"],
                                    powers=params["powers"])


def build(expr) -> SpectrahedralCone:
    """Build a cone from a ConeExpr or its JSON dict form."""
    if isinstance(expr, ConeExpr):
        kind, params, children = expr.kind, expr.params, expr.children
    elif isinstance(expr, dict):
        kind = expr.get("kind")
        params = expr.get("params", {})
        children = expr.get("children", [])
    else:
        raise InvalidInputError("expected a ConeExpr or a dict")
    if kind not in _BUILDERS:
        raise InvalidInputError(f"unknown cone expression kind {kind!r}")
    arity, builder = _BUILDERS[kind]
    if arity is None:
        return builder(params, ())
    children = [c if isinstance(c, SpectrahedralCone) else build(c)
                for c in children]
    if len(children) != arity:
        raise InvalidInputError(
            f"{kind} takes {('one child', 'two children')[arity - 1]}")
    return builder(params, children)
