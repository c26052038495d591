"""Span tracing of the package's layers from outside the package.

:class:`Tracer` wraps every public function of the traced modules and
patches every module attribute that holds one of them, so both calls
through a module attribute (``decompose.decompose(...)``, and calls
between functions of one module, which look names up in the module's
globals) and names bound by ``from .x import f`` go through the wrapper.
Each call records a span (function, start, end, parent span, operation,
raised) in memory; :meth:`Tracer.metrics` turns the spans of one pass
into the per-layer metrics after the pass has ended.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "jsonio", "constructions", "cone_model", "decompose",
           "isomorph", "pencil_struct", "qcqp_relax", "symlin")

# functions whose inclusive time (recursive calls counted once) is reported
TIMED = ("symlin.orthonormal_span", "constructions.chordal_cone",
         "jsonio.cone_to_json", "jsonio.cone_from_json", "decompose.decompose",
         "decompose.carath_decompose", "decompose.decompose_intertwining",
         "decompose.decompose_block_toeplitz", "isomorph.cones_isomorphic",
         "pencil_struct.classify_small", "qcqp_relax.solve_relaxation",
         "qcqp_relax.purify_to_extreme", "qcqp_relax.induced_cone",
         "qcqp_relax.rank1_feasible_samples")
COUNTED = ("cone_model.make_cone", "symlin.orthonormal_span", "constructions.intertwine",
           "jsonio.build_expr", "decompose.decompose", "decompose.decompose_hankel",
           "decompose.extreme_ray_oracle", "isomorph.rank1_complete",
           "pencil_struct.classify_small", "qcqp_relax.solve_relaxation")

FID, START, END, PARENT, OP, RAISED = range(6)
WIDTH = 6


class Tracer:
    """Spans live in one flat float array, six slots per span, so recording
    them allocates no objects the garbage collector has to scan."""

    def __init__(self):
        self.names: list[str] = []          # function id -> "module.function"
        self.buf = array("d")
        self.op = -1
        self._stack: list[int] = []         # offsets of the open spans
        self._patches: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solves: list[tuple] = []        # (problem, SdpSolution) per solve

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        traced = [importlib.import_module(f"rogcones.{short}") for short in MODULES]
        pkg_modules = [m for name, m in sys.modules.items()
                       if name == "rogcones" or name.startswith("rogcones.")]
        for short, mod in zip(MODULES, traced):
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for holder in pkg_modules:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        del self.buf[:]
        self.counts.clear()
        self.solves.clear()

    def _wrap(self, qualname: str, fn):
        fid = float(len(self.names))
        self.names.append(qualname)
        buf, stack = self.buf, self._stack
        hook = getattr(self, "_after_" + qualname.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            at = len(buf)
            buf.extend((fid, 0.0, 0.0, stack[-1] if stack else -1.0, self.op, 0.0))
            stack.append(at)
            buf[at + START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                buf[at + RAISED] = 1.0
                raise
            finally:
                buf[at + END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(at, args, kwargs, out)
            return out
        return wrapper

    def _name_at(self, at: float) -> str:
        return self.names[int(self.buf[int(at) + FID])] if at >= 0 else ""

    # -- counters taken at the boundaries ---------------------------------

    def _after_cone_model_make_cone(self, at, args, kwargs, out):
        gens = args[2] if len(args) > 2 else kwargs.get("generators", ())
        self.counts["make_cone.gens_in"] += len(gens)
        self.counts["make_cone.gens_kept"] += len(out.generators)

    def _after_symlin_orthonormal_span(self, at, args, kwargs, out):
        mats = args[0] if args else kwargs["mats"]
        n = np.asarray(mats[0]).shape[0]
        row = n * n * (2 if any(np.iscomplexobj(m) for m in mats) else 1)
        self.counts["orthonormal_span.input_bytes"] += 8.0 * row * len(mats)
        self.counts["orthonormal_span.mats_in"] += len(mats)
        self.counts["orthonormal_span.rank_out"] += out.shape[0]

    def _after_decompose_carath_decompose(self, at, args, kwargs, out):
        self.counts["carath.atoms"] += len(out.atoms)
        if self._name_at(self.buf[at + PARENT]) == "decompose.decompose_hankel":
            self.counts["hankel.fallbacks"] += 1

    def _after_qcqp_relax_rank1_feasible_samples(self, at, args, kwargs, out):
        count = args[1] if len(args) > 1 else kwargs["count"]
        self.counts["samples.attempted"] += count
        self.counts["samples.converged"] += len(out)

    def _after_qcqp_relax_solve_relaxation(self, at, args, kwargs, out):
        self.solves.append((args[0] if args else kwargs["problem"], out))

    # -- metrics ----------------------------------------------------------

    def metrics(self, op_times: list[float]) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        ``op_times`` are the traced durations of the pass's operations;
        time inside them not covered by a top-level span is unattributed.
        A span's self time is its duration minus that of its child spans.
        """
        spans = np.frombuffer(self.buf, dtype=float).reshape(-1, WIDTH)
        names = self.names
        fid = spans[:, FID].astype(int)
        parent = (spans[:, PARENT] // WIDTH).astype(int)   # -1 for top-level spans
        dur = spans[:, END] - spans[:, START]
        child = np.zeros(len(spans))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_time = dur - child
        nf = len(names)
        calls = np.bincount(fid, minlength=nf)
        fn_self = np.bincount(fid, weights=self_time, minlength=nf)
        raised = np.bincount(fid, weights=spans[:, RAISED], minlength=nf)
        index = {name: i for i, name in enumerate(names)}
        out: dict[str, float] = {}
        for m in MODULES:
            ids = [i for i, name in enumerate(names) if name.split(".", 1)[0] == m]
            out[f"{m}.calls"] = int(calls[ids].sum())
            out[f"{m}.self_s"] = float(fn_self[ids].sum())
            out[f"{m}.errors"] = int(raised[ids].sum())
        for name in COUNTED:
            out[f"{name}.calls"] = int(calls[index[name]])
        for name in TIMED:
            # inclusive time, with recursive calls counted once
            i = index[name]
            out[f"{name}.s"] = float(sum(dur[k] for k in np.flatnonzero(fid == i)
                                         if not _has_ancestor(fid, parent, k, i)))
        peel = index["decompose.carath_decompose"]
        oracle_under_peel = int(np.count_nonzero(
            (fid == index["decompose.extreme_ray_oracle"]) & (parent >= 0)
            & (fid[np.maximum(parent, 0)] == peel)))
        c = self.counts
        out["cone_model.make_cone.self_s"] = float(fn_self[index["cone_model.make_cone"]])
        out["cone_model.make_cone.gens_in"] = c["make_cone.gens_in"]
        out["cone_model.make_cone.gens_kept"] = c["make_cone.gens_kept"]
        out["symlin.orthonormal_span.input_mb"] = c["orthonormal_span.input_bytes"] / 1e6
        out["symlin.orthonormal_span.rank_ratio"] = _ratio(
            c["orthonormal_span.rank_out"], c["orthonormal_span.mats_in"])
        out["decompose.hankel_fallback_ratio"] = _ratio(
            c["hankel.fallbacks"], calls[index["decompose.decompose_hankel"]])
        out["decompose.peel_accept_ratio"] = _ratio(c["carath.atoms"], oracle_under_peel)
        out["qcqp_relax.rank1_feasible_samples.attempted"] = c["samples.attempted"]
        out["qcqp_relax.rank1_feasible_samples.converged_ratio"] = _ratio(
            c["samples.converged"], c["samples.attempted"])
        out["qcqp_relax.solve_relaxation.optimal_unverified"] = sum(
            1 for p, sol in self.solves
            if sol.status == "optimal" and not stationarity_holds(p, sol))
        total = float(sum(op_times))
        out["trace.total_s"] = total
        out["trace.unattributed_s"] = total - float(dur[parent < 0].sum())
        return out


def _has_ancestor(fid, parent, k, target) -> bool:
    up = parent[k]
    while up >= 0:
        if fid[up] == target:
            return True
        up = parent[up]
    return False


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def stationarity_holds(problem, sol) -> bool:
    """The stationarity check of test_solver_kkt_residuals, in numpy only.

    With mu = gap / n and Z = mu X^+, the residual S - Z must vanish on
    the span of the induced cone up to a multiple of B.  Any orthonormal
    basis of that span gives the same residual norm.
    """
    n = problem.n
    s, b = problem.cost, problem.normalization
    basis = _induced_span(n, problem.constraints)
    x = sol.x_mat
    mu = sol.duality_gap / n
    z = mu * np.linalg.pinv(x + 1e-13 * np.eye(n))
    coords = basis @ (s - z).ravel()
    b_coords = basis @ b.ravel()
    y = float(coords @ b_coords / (b_coords @ b_coords))
    stat = np.linalg.norm(coords - y * b_coords)
    return bool(stat < 1e-6 * (1.0 + np.linalg.norm(s)))


def _induced_span(n: int, forms) -> np.ndarray:
    """Orthonormal rows (vectorized symmetric matrices) spanning {X : <A_i, X> = 0}."""
    mats = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            mats.append(e.ravel())
    full = np.array(mats)
    if forms:
        cons = np.array([[float(a.ravel() @ m) for m in full] for a in forms])
        _, sv, vt = np.linalg.svd(cons, full_matrices=True)
        rank = int(np.count_nonzero(sv > 1e-10 * max(1.0, sv[0])))
        full = vt[rank:] @ full
    return full
