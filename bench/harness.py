"""Measurement loop behind bench/run.py: set-up, passes, checks, report."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy

from spans import Tracer
from workloads import GAP_SAMPLES, WORKLOADS, Lib

SETUP_REPS = 7     # set-up is repeated and its median reported
IMPORT_REPS = 5    # fresh interpreters timing `import rogcones`
UNITS = {"total_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}

# Machine-speed calibration.  On a shared machine the numeric code of this
# process slows by up to 1.8x, in spells from seconds to minutes long, some
# longer than a run.  Before each operation a fixed reference kernel that
# does not touch the package is timed: after a 4 MiB sweep that puts the
# caches in the same state every time, 20 in-place 40 x 40 matrix-vector
# products on preallocated arrays (it allocates nothing, so the program's
# heap reaches it little; bench/README.md gives the residue).  Each
# operation's time is scaled by REF_NOMINAL_S over the median reference time
# of the REF_WINDOW operations around it: end-to-end times read as seconds
# on a machine where the reference takes REF_NOMINAL_S, the fast state of a
# 2-vCPU virtual machine.
REF_NOMINAL_S = 25e-6
REF_WINDOW = 11
_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.standard_normal((40, 40))
_REF_X = _REF_RNG.standard_normal(40)
_REF_Y = np.empty(40)
_REF_SWEEP = np.ones(1 << 19)


def reference_seconds() -> float:
    """One timed call of the reference kernel, after the cache sweep."""
    _REF_SWEEP.sum()
    _REF_SWEEP[::8] += 0.0
    t0 = perf_counter()
    for _ in range(20):
        np.dot(_REF_A, _REF_X, out=_REF_Y)
    return perf_counter() - t0


def speed_factors(refs: list[float]) -> list[float]:
    """REF_NOMINAL_S over the median reference time around each operation."""
    half = REF_WINDOW // 2
    return [REF_NOMINAL_S / median(refs[max(0, i - half):i + half + 1])
            for i in range(len(refs))]


class Runner:
    """Runs passes over a fixed operation list and checks their outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures: dict[tuple[str, str], int] = {}
        self._verdicts: dict = {}

    def run_pass(self, tracer: Tracer | None = None, calibrate: bool = False):
        """Time every operation once, in order; return (pass_s, op_s, results).

        With ``calibrate`` the operation times are scaled to the nominal
        machine speed.
        """
        times, refs, results = [], [], []
        start = perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            if calibrate:
                refs.append(reference_seconds())
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            times.append(perf_counter() - t0)
            results.append((out, err))
        if calibrate:
            times = [t * f for t, f in zip(times, speed_factors(refs))]
        return perf_counter() - start, times, results

    def verify(self, results) -> None:
        for i, (op, (out, err)) in enumerate(zip(self.ops, results)):
            reason = err
            if reason is None:
                try:
                    out = op.collect(out)
                    key = (i, op.key(out)) if op.key is not None else None
                    if key is not None and key in self._verdicts:
                        reason = self._verdicts[key]
                    else:
                        reason = op.check(out)
                        if key is not None:
                            self._verdicts[key] = reason
                except Exception as exc:  # a broken output must not stop the run
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failures[(op.name, reason)] = self.failures.get((op.name, reason), 0) + 1


def import_seconds(src: str, root: str) -> float:
    """Median time of `import rogcones` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import rogcones; print(time.perf_counter() - t)" % src)
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def typical_op_times(passes: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes of a run."""
    return [median(ts) for ts in zip(*passes)]


def measure(runner: Runner, seconds: float):
    """A warm-up pass, then speed-scaled passes until the next one would end
    after ``seconds`` in all (at least one).  Returns the timed passes."""
    spent, _, results = runner.run_pass(calibrate=True)
    runner.verify(results)
    passes = []
    while not passes or spent + spent / (len(passes) + 1) <= seconds:
        pass_s, times, results = runner.run_pass(calibrate=True)
        passes.append(times)
        spent += pass_s
        runner.verify(results)
    return passes


def untraced(runner: Runner, seconds: float) -> dict[str, float]:
    """End-to-end metrics.  total_s is the sum of the operations' typical
    times: the time of one pass over the fixed operation list."""
    passes = measure(runner, seconds)
    typical = typical_op_times(passes)
    return {"total_s": sum(typical),
            "op_ms_p50": 1e3 * float(np.percentile(typical, 50)),
            "op_ms_p90": 1e3 * float(np.percentile(typical, 90)),
            "peak_rss_mb": peak_rss_mb()}


def traced(runner: Runner, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced passes; per-layer metrics of one traced pass."""
    tracer = Tracer()
    plain, spanned, layers = [], [], []
    spent = 0.0
    # pairs of passes until the next pair would end after ``seconds``
    while not plain or spent + spent / len(plain) <= seconds:
        _, times, results = runner.run_pass()
        plain.append(times)
        runner.verify(results)
        tracer.reset()
        tracer.install()
        try:
            _, times, results = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        spanned.append(times)
        spent += sum(plain[-1]) + sum(times)
        layers.append(tracer.metrics(times))
        runner.verify(results)
    # one whole traced pass, the median by traced time, so that its module
    # self times and unattributed time still add up to its total
    out = sorted(layers, key=lambda m: m["trace.total_s"])[(len(layers) - 1) // 2]
    out["trace.overhead_ratio"] = (sum(typical_op_times(spanned))
                                   / sum(typical_op_times(plain)) - 1.0)
    return out


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run(args, root: str, src: str, threads: int) -> int:
    import rogcones
    if not os.path.abspath(rogcones.__file__).startswith(src + os.sep):
        print(f"error: rogcones imported from {rogcones.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "nproc": os.cpu_count(), "threads": threads, "gap_samples": GAP_SAMPLES}
    print("env " + json.dumps(env))
    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        lib = Lib()
        setup_times, refs = [], []
        for _ in range(SETUP_REPS):
            refs += [reference_seconds() for _ in range(3)]
            t0 = perf_counter()
            ops = WORKLOADS[args.workload](lib, args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        runner = Runner(ops)
        if args.trace:
            metrics = traced(runner, args.seconds)
        else:
            metrics = untraced(runner, args.seconds)
            setup_s = import_seconds(src, root) + median(setup_times)
            refs += [reference_seconds() for _ in range(3)]
            metrics["setup_s"] = setup_s * REF_NOMINAL_S / median(refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    print(f"operations per pass: {len(ops)}")
    for (name, reason), count in sorted(runner.failures.items()):
        print(f"FAIL x{count} {name}: {reason}")
    if not args.trace:
        print(f"fail_ratio = {runner.failed / runner.attempted:.6g} ratio "
              f"({runner.failed} of {runner.attempted})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0
