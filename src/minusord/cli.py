"""Command-line interface.

Subcommands: ``check`` (evaluate an order on a matrix pair), ``pinv-sum``
(Moore-Penrose inverse of a sum via the split formula), ``lsq``
(decoupled least squares), ``gen`` (write a seeded ordered pair).

Exit codes: 0 when the queried relation holds / the computation succeeds,
1 when an order cleanly fails to hold, 2 on malformed input or infeasible
parameters.  ``--json`` switches the output to a deterministic report.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .exceptions import MinusordError, OrderConditionError
from .generate import as_rng, pair_generator
from .linalg import ToleranceConfig
from .lsq import decoupled_lss
from .mmio import _format_pairs, format_matrix, read_matrix, read_vector, write_matrix
from .orders import order_predicate
from .reporting import (
    canonical_json,
    matrix_payload,
    order_report_payload,
    tolerance_payload,
    vector_payload,
)
from .sums import fill_fishkind_pinv

ENV_TOL_RANK = "MINUSORD_TOL_RANK"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="minusord",
                                     description="matrix partial orders and inverses of sums")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol-rank", type=float, default=None,
                       help=f"relative rank cutoff (default: per-matrix heuristic, "
                            f"or the {ENV_TOL_RANK} environment variable)")
        p.add_argument("--tol-residual", type=float, default=None,
                       help="residual tolerance (default 1e-10)")
        p.add_argument("--json", action="store_true", help="emit a deterministic JSON report")

    p_check = sub.add_parser("check", help="evaluate a partial order on a matrix pair")
    p_check.add_argument("order", help="minus, left-minus, right-minus, star, left-star, "
                                       "right-star, sharp, core or weak-minus")
    p_check.add_argument("file_a")
    p_check.add_argument("file_b")
    common(p_check)

    p_pinv = sub.add_parser("pinv-sum", help="pseudoinverse of A + B from the split formula")
    p_pinv.add_argument("file_a")
    p_pinv.add_argument("file_b")
    p_pinv.add_argument("--out", help="write the result as a Matrix Market file")
    common(p_pinv)

    p_lsq = sub.add_parser("lsq", help="decoupled least squares for (A + B) x ~ c")
    p_lsq.add_argument("file_a")
    p_lsq.add_argument("file_b")
    p_lsq.add_argument("file_c")
    common(p_lsq)

    p_gen = sub.add_parser("gen", help="generate an ordered pair and write it out")
    p_gen.add_argument("kind", help="minus, star, sharp or core")
    p_gen.add_argument("--dims", required=True, help="matrix shape, e.g. 4x4")
    p_gen.add_argument("--ranks", required=True, help="ranks of the two summands, e.g. 1,2")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-prefix", default="", help="path prefix for A.mtx, B.mtx, ApB.mtx")
    common(p_gen)
    return parser


def _tolerance(args) -> ToleranceConfig:
    rank_rtol = args.tol_rank
    if rank_rtol is None:
        env = os.environ.get(ENV_TOL_RANK)
        if env is not None:
            rank_rtol = float(env)
    kwargs = {}
    if rank_rtol is not None:
        kwargs["rank_rtol"] = rank_rtol
    if args.tol_residual is not None:
        kwargs["residual_atol"] = args.tol_residual
    return ToleranceConfig(**kwargs)


def _operands(args):
    """The tolerance of ``args`` and the matrices of its A and B files."""
    return _tolerance(args), read_matrix(args.file_a), read_matrix(args.file_b)


def _emit(args, payload, text_lines):
    """Print the JSON report ``payload()`` or the lines ``text_lines()``;
    only the form printed is computed."""
    if args.json:
        sys.stdout.write(canonical_json(payload()))
    else:
        for line in text_lines():
            print(line)


def _envelope(args, tol, result, flags=(), **shapes):
    """The JSON report of ``check``, ``pinv-sum`` and ``lsq``: the command,
    the path and shape of each input named in ``shapes`` (A, B or c, read
    from ``args.file_a``, ``file_b`` or ``file_c``), the tolerance, the
    ``result`` and its boundary ``flags``, none unless given."""
    return {
        "command": args.command,
        "inputs": {name: {"path": getattr(args, f"file_{name.lower()}"), "shape": list(shape)}
                   for name, shape in shapes.items()},
        "tolerance": tolerance_payload(tol),
        "result": result,
        "boundary_flags": list(flags),
    }


def cmd_check(args) -> int:
    predicate = order_predicate(args.order)
    tol, a, b = _operands(args)
    report = predicate(a, b, tol)

    def payload():
        return _envelope(args, tol, order_report_payload(report), report.boundary_flags,
                         A=a.shape, B=b.shape)

    def lines():
        verdict = "holds" if report.holds else "does not hold"
        return ([f"{report.order_name}: {verdict}"]
                + [f"  {name}: {'yes' if value else 'no'}"
                   for name, value in sorted(report.characterization_verdicts.items())]
                + [f"  warning: {flag}" for flag in report.boundary_flags])

    _emit(args, payload, lines)
    return 0 if report.holds else 1


def cmd_pinv_sum(args) -> int:
    tol, a, b = _operands(args)
    result = fill_fishkind_pinv(a, b, tol)
    if args.out:
        write_matrix(args.out, result)

    def payload():
        return _envelope(args, tol, {"pinv_sum": matrix_payload(result)}, A=a.shape, B=b.shape)

    def lines():
        return [f"wrote {args.out}"] if args.out else [format_matrix(result).rstrip("\n")]

    _emit(args, payload, lines)
    return 0


def cmd_lsq(args) -> int:
    tol, a, b = _operands(args)
    c = read_vector(args.file_c)
    result = decoupled_lss(a, b, c, tol)

    def payload():
        return _envelope(args, tol, {
            "x_joint": vector_payload(result.x_joint),
            "x_system": vector_payload(result.x_system),
            "weight": matrix_payload(result.weight.matrix),
            "residuals": result.residuals,
        }, A=a.shape, B=b.shape, c=(c.shape[0], 1))

    def lines():
        return (["x_joint:", _format_pairs(result.x_joint, "  ").rstrip("\n"),
                 "x_system:", _format_pairs(result.x_system, "  ").rstrip("\n")]
                + [f"residual {k}: {v:.3e}" for k, v in sorted(result.residuals.items())])

    _emit(args, payload, lines)
    return 0


def _order_failure(args, exc: OrderConditionError) -> int:
    # the report is rendered in text mode too, so a deferred error exits 2
    payload = {"command": args.command, "error": str(exc),
               "result": order_report_payload(exc.report)}
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return 1


def _parse_dims(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"malformed dims {text!r}; expected MxN")
    m, n = (int(p) for p in parts)
    if m < 1 or n < 1:
        raise ValueError("dims must be positive")
    return m, n


def _parse_ranks(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed ranks {text!r}; expected r1,r2")
    return tuple(int(p) for p in parts)


def cmd_gen(args) -> int:
    generator = pair_generator(args.kind)
    kind = args.kind.replace("-", "_")
    m, n = _parse_dims(args.dims)
    r1, r2 = _parse_ranks(args.ranks)
    rng = as_rng(args.seed)
    if kind in ("sharp", "core"):
        if m != n:
            raise ValueError("sharp and core pairs need square dims")
        a, b = generator(rng, n, r1, r2)
    else:
        a, b = generator(rng, m, n, r1, r2)
    prefix = args.out_prefix
    paths = {name: f"{prefix}{name}.mtx" for name in ("A", "B", "ApB")}
    write_matrix(paths["A"], a)
    write_matrix(paths["B"], b)
    write_matrix(paths["ApB"], a + b)

    def payload():
        return {
            "command": "gen",
            "kind": kind,
            "dims": [m, n],
            "ranks": [r1, r2],
            "seed": args.seed,
            "files": [paths["A"], paths["B"], paths["ApB"]],
        }

    _emit(args, payload, lambda: [f"wrote {p}" for p in paths.values()])
    return 0


_COMMANDS = {
    "check": cmd_check,
    "pinv-sum": cmd_pinv_sum,
    "lsq": cmd_lsq,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the report of an order failure computes its deferred parts while the
    # failure is rendered, so their errors exit as every other error does;
    # a sum or difference that overflows raises its own error, so numpy's
    # overflow warning would only print ahead of it
    try:
        with np.errstate(over="ignore"):
            try:
                return _COMMANDS[args.command](args)
            except OrderConditionError as exc:
                return _order_failure(args, exc)
    except (MinusordError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
