"""Operations on which the program is known to fail, run outside the workloads.

    python3 bench/defects.py --seeds 5

Run from the root of a source checkout.  The timed workloads hold only
inputs on which every operation succeeds, so that a benchmark run both
times the program and checks all of its outputs.  The inputs left out of
them for a known defect are exercised here instead, for each of the first
``--seeds`` seeds, with the workloads' own checks.  Each failure is
printed with its operation and reason; the exit code is 0 either way.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs as I  # noqa: E402
import workloads as W  # noqa: E402
from harness import Runner  # noqa: E402

TIE = (0.0, 0.01)  # separation of a near-tied QCQP optimum (see inputs.MARGIN)
K4_MINUS_EDGE = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def defect_ops(lib: W.Lib, seed: int, workdir: str) -> list[W.Op]:
    rng = np.random.default_rng([seed, 9])
    cone_of = W.cone_cache(lib)
    # `transform` over a complex cone: its JSON does not rebuild
    ops = W.build_analyze_ops(
        lib, [I.toeplitz_expr(np.random.default_rng([k, 102]), rng, 2) for k in (2, 5)],
        workdir)
    # valid members of high rank rejected by the engines
    for spec, ranks in ((I.hankel(8), (3, 5, 6, 7)),
                        (I.chordal(10, I.chordal_graph(rng, 10)), (5, 8, 9))):
        c = cone_of(spec.expr)
        ops += [W.decompose_op(lib, "high-rank", spec, c,
                               I.member_of_rank(rng, spec, r, cond_max=np.inf))
                for r in ranks]
    # Hankel members holding a ray at infinity, (0, .., 0, x)
    h6 = I.hankel(6)
    c = cone_of(h6.expr)

    def finite_or_infinite(r):
        return r.standard_normal() * np.eye(6)[5] if r.random() < 0.5 else h6.ray(r)
    ops += [W.decompose_op(lib, "at-infinity", h6, c,
                           I.member_of_rank(rng, h6, 3, ray=finite_or_infinite))
            for _ in range(4)]
    # congruent chordal cones with a triangle reported not isomorphic
    for spec in (I.chordal(4, K4_MINUS_EDGE), I.chordal(5, I.chordal_graph(rng, 5))):
        k1 = cone_of(spec.expr)
        ops.append(W.iso_op(lib, spec.label, k1, W.congruent_copy(lib, rng, k1), "isomorphic"))
    # `gap-detected` on exact QCQPs whose optimum is nearly tied
    insts = [I.pattern_qcqp(rng, 6, I.chordal_graph(rng, 6), "tied_chordal6", True, TIE),
             I.pattern_qcqp(rng, 5, I.cycle_edges(5), "tied_cycle5", False, TIE),
             I.codim1_qcqp(rng, 4, TIE)]
    return ops + W.qcqp_ops(lib, insts, workdir)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=5)
    args = p.parse_args(argv)
    lib = W.Lib()
    failures: dict[tuple[str, str], int] = {}
    attempted = failed = 0
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    for seed in range(1, args.seeds + 1):
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            runner = Runner(defect_ops(lib, seed, workdir))
            _, _, results = runner.run_pass()
            runner.verify(results)
        attempted += runner.attempted
        failed += runner.failed
        for key, count in runner.failures.items():
            failures[key] = failures.get(key, 0) + count
    try:
        os.rmdir(work_root)
    except OSError:
        pass
    for (name, reason), count in sorted(failures.items()):
        print(f"FAIL x{count} {name}: {reason[:200]}")
    print(f"{failed} of {attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
