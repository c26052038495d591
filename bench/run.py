"""Benchmark entry point for rogcones.

    python3 bench/run.py --workload build-analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  One process runs one closed
loop: passes over the workload's fixed operation list are repeated until
``--seconds`` of pass time have been measured.  Outputs are checked after
each pass, outside the timed region.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics of the traced passes are reported.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM unwind normally, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)  # before numpy is first imported
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rogcones", "__init__.py")):
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    return harness.run(args, root, src, THREADS)


if __name__ == "__main__":
    sys.exit(main())
