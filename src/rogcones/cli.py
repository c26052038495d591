"""Command-line front end.

Subcommands: build, analyze, decompose, iso, classify, qcqp, complete,
pencil.  All inputs and outputs are JSON; ``-`` reads stdin / writes
stdout.  Reports are compact, one-line JSON (``python -m json.tool``
pretty-prints them).  Exit codes: 0 success, 1 domain errors (infeasible
completion, non-chordal graph, ...), 2 I/O or parse errors.  ``--seed``
feeds only the gap sampler of ``qcqp``, so identical inputs give
byte-identical reports; the other subcommands are deterministic and
ignore it.  ``rog`` runs on numpy alone: no subcommand loads scipy.
Reports go through ``tolist()`` and ``json``, so ``run`` leaves numpy's
print options as it found them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import cone_model, isomorph, jsonio, pencil_struct, qcqp_relax
from .decompose import decompose
from .errors import InvalidInputError, MissingCertificateError, NumericalError
from .symlin import from_json_array, to_json_array


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write_json(data, path: str | None):
    text = json.dumps(data, allow_nan=True)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _cmd_build(args) -> int:
    expr = _read_json(args.expr)
    cone = jsonio.build_expr(expr)
    _write_json(jsonio.cone_to_json(cone), args.out)
    return 0


def _cmd_analyze(args) -> int:
    cone = jsonio.cone_from_json(_read_json(args.cone))
    report = {
        "n": cone.n,
        "dim": cone_model.dimension(cone),
    }
    if len(cone.generators) > 0:
        report["degree"] = cone_model.degree(cone, args.tol)
        report["certificate_complete"] = cone_model.certificate_complete(cone)
        if report["degree"] == cone.n:
            parts = cone_model.simplicity_partition(cone, args.tol)
            report["simple"] = len(parts) == 1
            report["factor_dims"] = [h.dim for h in parts]
            report["isolated_rays"] = cone_model.unit_factor_rays(cone, parts)
    _write_json(report, args.out)
    return 0


def _cmd_decompose(args) -> int:
    cone = jsonio.cone_from_json(_read_json(args.cone))
    x_mat = jsonio.matrix_argument(_read_json(args.matrix))
    dec = decompose(cone, x_mat, tol=args.tol)
    _write_json(jsonio.decomposition_to_json(dec), args.out)
    return 0


def _cmd_iso(args) -> int:
    k1 = jsonio.cone_from_json(_read_json(args.cone1))
    k2 = jsonio.cone_from_json(_read_json(args.cone2))
    out = isomorph.cones_isomorphic(k1, k2)
    report = {"status": out.status}
    if out.witness is not None:
        report["witness"] = jsonio.witness_to_json(out.witness)
    if out.reason:
        report["reason"] = out.reason
    _write_json(report, args.out)
    return 0


def _cmd_classify(args) -> int:
    cone = jsonio.cone_from_json(_read_json(args.cone))
    label = pencil_struct.classify_small(cone, tol=args.tol)
    _write_json(label.to_json(), args.out)
    return 0


def _cmd_qcqp(args) -> int:
    problem = jsonio.qcqp_from_json(_read_json(args.problem))
    cert = qcqp_relax.certify_exactness(problem, gap_samples=args.gap_samples,
                                        seed=args.seed, tol=args.tol)
    report = {
        "status": cert.status,
        "relaxed_value": cert.relaxed_value,
        "extracted_value": cert.extracted_value,
        "duality_gap": cert.solution.duality_gap,
        "iterations": cert.solution.iterations,
    }
    if cert.x_opt is not None:
        report["x_opt"] = to_json_array(cert.x_opt)
    _write_json(report, args.out)
    return 0


def _cmd_complete(args) -> int:
    pm = jsonio.partial_from_json(_read_json(args.partial))
    if args.signs:
        result = isomorph.rank1_complete_signs(pm)
    else:
        result = isomorph.rank1_complete(pm)
    if not result.feasible:
        report = {"feasible": False, "violation": result.violation}
        if result.cycle:
            report["cycle"] = [f"{side}{idx}" for side, idx in result.cycle]
        _write_json(report, args.out)
        return 1
    report = {
        "feasible": True,
        "e": to_json_array(result.e),
        "f": to_json_array(result.f),
        "completion": to_json_array(result.matrix()),
    }
    _write_json(report, args.out)
    return 0


def _cmd_pencil(args) -> int:
    data = _read_json(args.pencil)
    if not isinstance(data, dict):
        raise InvalidInputError("a pencil must be a JSON object")
    pencil = pencil_struct.Pencil(from_json_array(data["Q1"], 2),
                                  from_json_array(data["Q2"], 2))
    dec = pencil_struct.pencil_decompose(pencil)
    report = {
        "kernel": to_json_array(dec.kernel.image_basis),
        "blocks": [
            {"angle": blk.angle,
             "basis": to_json_array(blk.handle.image_basis),
             "form": to_json_array(blk.form)}
            for blk in dec.blocks
        ],
    }
    _write_json(report, args.out)
    return 0


def _tolerance(text: str) -> float:
    """The ``--tol`` value: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _sample_count(text: str) -> int:
    """The ``--gap-samples`` and ``--seed`` values: an integer >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The ``rog`` argument parser, built once per process and shared by
    every :func:`run`; parsing does not modify it."""
    parser = argparse.ArgumentParser(
        prog="rog",
        description="Build, analyze and decompose rank-one-generated "
                    "spectrahedral cones.")
    parser.add_argument("--seed", type=_sample_count, default=0,
                        help="seed of the gap sampler of qcqp (default 0)")
    parser.add_argument("--tol", type=_tolerance, default=1e-8,
                        help="relative numeric tolerance, finite and > 0 "
                             "(default 1e-8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a cone from an expression")
    p.add_argument("--expr", required=True, help="expression JSON path")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "analyze", help="degree/dimension/simplicity report",
        description="Degree, dimension and simplicity report of a cone. "
                    "certificate_complete says that the generators' outer "
                    "products span L: necessary for the cone to be rank-one "
                    "generated, not a proof of it.")
    p.add_argument("cone", help="cone JSON path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("decompose", help="rank-1 decomposition of a member")
    p.add_argument("cone", help="cone JSON path")
    p.add_argument("matrix", help="matrix JSON path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("iso", help="isomorphism test for two cones")
    p.add_argument("cone1")
    p.add_argument("cone2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("classify", help="catalog label for degree <= 4")
    p.add_argument("cone")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("qcqp", help="solve a relaxation and certify exactness")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--gap-samples", type=_sample_count, default=100_000,
                   help="rank-1 feasible samples drawn when the optimum is "
                        "not rank 1, >= 0 (default 100000)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qcqp)

    p = sub.add_parser("complete", help="rank-1 completion of a partial matrix")
    p.add_argument("partial", help="partial-matrix JSON path")
    p.add_argument("--signs", action="store_true",
                   help="treat entries as +-1 and complete with sign vectors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("pencil", help="simultaneous block decomposition")
    p.add_argument("pencil", help='JSON with "Q1" and "Q2"')
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pencil)
    return parser


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, MissingCertificateError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
