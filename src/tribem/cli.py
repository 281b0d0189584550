"""Command-line front end.

Subcommands: solve (one problem end to end), sweep (multi-trial timing
sweeps with reports), precompute / apply (offline inverse and its
realtime reuse), validate (mesh checks). Exit codes: 0 success,
1 usage, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import bench
from .assembly import assemble
from .errors import (
    BcFileError,
    EmptyMeshError,
    StlParseError,
    TriBemError,
)
from .kernels import SUPPORTED_ORDERS, gauss_rule, make_material
from .distribution import distributed_assemble_solve
from .mesh import load_stl, validate
from .problems import Problem, cube_problem, load_bc_file
from .solver import (
    PrecomputedOperator,
    apply_precomputed,
    equilibrium_residual,
    solution_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text):
    try:
        return tuple(int(s) for s in text.split(",") if s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _cube_spec(text):
    try:
        side_s, k_s = text.split(",")
        return float(side_s), int(k_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'side,k', got {text!r}")


def _add_problem_flags(p, bc_required=False):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cube", type=_cube_spec, metavar="SIDE,K",
                     help="generated cube problem (e.g. 4,2)")
    src.add_argument("--mesh", metavar="PATH", help="STL surface mesh")
    p.add_argument("--bc", metavar="PATH", required=bc_required,
                   help="boundary-condition file (required with --mesh)")
    p.add_argument("--quad", type=int, choices=SUPPORTED_ORDERS, default=16,
                   help="Gauss order per axis (default 16)")
    p.add_argument("--self-quad", choices=("subdivide", "paper-faithful"),
                   default="subdivide", help="singular self-integration strategy")


def _load_problem(args) -> Problem:
    if args.cube is not None:
        side, k = args.cube
        prob = cube_problem(side=side, k=k)
        if args.bc:
            bc = load_bc_file(args.bc, prob.mesh)
            return Problem(prob.mesh, prob.material, bc, prob.label)
        return prob
    with open(args.mesh, "rb") as f:
        mesh = load_stl(f.read())
    if not args.bc:
        raise BcFileError("--mesh requires a --bc file")
    bc = load_bc_file(args.bc, mesh)
    return Problem(mesh, make_material(200000.0, 0.33), bc, args.mesh)


def _cmd_solve(args):
    prob = _load_problem(args)
    rule = gauss_rule(args.quad)
    sol, tm = distributed_assemble_solve(
        prob.mesh, prob.material, prob.bc, rule,
        workers=args.workers, strategy=args.self_quad,
    )
    residual = equilibrium_residual(sol, prob.mesh)
    verdict = bench.realtime_verdict(tm.total)
    print(f"problem:             {prob.label}")
    print(f"elements / dofs:     {prob.mesh.n_elements} / {prob.mesh.n_dofs}")
    print(f"assembly / solve s:  {tm.assembly:.3f} / {tm.solve:.3f}")
    print(f"total s:             {tm.total:.3f}")
    print(f"net force (N):       {residual[0]:+.4e} {residual[1]:+.4e} {residual[2]:+.4e}")
    print(f"rate:                {verdict.computations_per_second:.1f}/s "
          f"(graphics {'ok' if verdict.graphics_ok else 'NOT ok'}, "
          f"haptics {'ok' if verdict.haptics_ok else 'NOT ok'})")
    if args.report:
        solution_to_csv(sol, prob.mesh, args.report)
        print(f"solution written to  {args.report}")
    return EXIT_OK


def _cmd_sweep(args):
    mode = {
        "direct": "assemble-and-solve",
        "precomputed": "precomputed-matvec",
        "dummy": "dummy-system",
    }[args.mode]
    problem = None
    if mode != "dummy-system" and (args.cube or args.mesh):
        problem = _load_problem(args)
    config = bench.BenchConfig(
        mode=mode,
        problem=problem,
        quad_order=args.quad,
        self_strategy=args.self_quad,
        trials=args.trials,
        workers=args.workers,
        block_sizes=args.block_sizes,
        sizes=args.size,
    )
    records = bench.run_sweep(config)
    summary = bench.summarize(records)
    text = bench.emit_report(summary, args.format, args.report)
    print(text, end="")
    hashes = bench.distinct_hashes(records)
    if problem is not None:
        print(f"\ndistinct result hashes: {len(hashes)} "
              f"({'invariant' if len(hashes) == 1 else 'VARIANT!'})")
    best = min(c.mean_seconds for c in summary.configs)
    verdict = bench.realtime_verdict(best)
    est = bench.estimate_nonlinear(best)
    print(f"best mean:      {best:.3f} s -> {verdict.computations_per_second:.1f}/s "
          f"(graphics {'ok' if verdict.graphics_ok else 'NOT ok'})")
    print(f"nonlinear est.: x{est.iterations} iterations -> {est.seconds:.3f} s "
          f"(graphics {'ok' if est.verdict.graphics_ok else 'NOT ok'})")
    if args.report:
        print(f"report written: {args.report}")
    return EXIT_OK


def _cmd_precompute(args):
    prob = _load_problem(args)
    rule = gauss_rule(args.quad)
    hg = assemble(prob.mesh, prob.material, rule, args.self_quad)
    op = PrecomputedOperator.build(hg, prob.bc)
    op.save(args.operator)
    print(f"operator for {op.n_dofs} dofs written to {args.operator}")
    return EXIT_OK


def _cmd_apply(args):
    op = PrecomputedOperator.load(args.operator)
    with open(args.mesh, "rb") as f:
        mesh = load_stl(f.read())
    bc = load_bc_file(args.bc, mesh)
    t0 = time.perf_counter()
    sol = apply_precomputed(op, bc)
    dt = time.perf_counter() - t0
    verdict = bench.realtime_verdict(dt)
    print(f"applied precomputed operator in {dt:.6f} s "
          f"({verdict.computations_per_second:.1f}/s, "
          f"graphics {'ok' if verdict.graphics_ok else 'NOT ok'}, "
          f"haptics {'ok' if verdict.haptics_ok else 'NOT ok'})")
    if args.report:
        solution_to_csv(sol, mesh, args.report)
        print(f"solution written to {args.report}")
    return EXIT_OK


def _cmd_validate(args):
    if args.cube is not None:
        side, k = args.cube
        from .mesh import generate_cube

        mesh = generate_cube(side, k)
    else:
        with open(args.mesh, "rb") as f:
            mesh = load_stl(f.read())
    report = validate(mesh)
    print(report)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="tribem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="assemble and solve one problem")
    _add_problem_flags(p)
    p.add_argument("--workers", type=int, default=1, metavar="N")
    p.add_argument("--report", metavar="PATH", help="write solution CSV here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="timed sweep over workers/blocks/sizes")
    src = p.add_mutually_exclusive_group()
    src.add_argument("--cube", type=_cube_spec, metavar="SIDE,K")
    src.add_argument("--mesh", metavar="PATH")
    p.add_argument("--bc", metavar="PATH")
    p.add_argument("--quad", type=int, choices=SUPPORTED_ORDERS, default=16)
    p.add_argument("--self-quad", choices=("subdivide", "paper-faithful"),
                   default="subdivide")
    p.add_argument("--mode", choices=("direct", "precomputed", "dummy"),
                   default="direct")
    p.add_argument("--size", type=_int_list, default=(), metavar="LIST",
                   help="synthetic system sizes (dummy/precomputed modes)")
    p.add_argument("--workers", type=_int_list, default=(1,), metavar="LIST")
    p.add_argument("--block-sizes", type=_int_list, default=(32,), metavar="LIST")
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("precompute", help="assemble, invert, and store the operator")
    _add_problem_flags(p)
    p.add_argument("--operator", required=True, metavar="DIR",
                   help="output directory for the operator")
    p.set_defaults(func=_cmd_precompute)

    p = sub.add_parser("apply", help="reuse a stored operator with new BC values")
    p.add_argument("--operator", required=True, metavar="DIR")
    p.add_argument("--mesh", required=True, metavar="PATH")
    p.add_argument("--bc", required=True, metavar="PATH")
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("validate", help="mesh validation report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cube", type=_cube_spec, metavar="SIDE,K")
    src.add_argument("--mesh", metavar="PATH")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (StlParseError, EmptyMeshError, BcFileError) as exc:
        print(f"tribem: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"tribem: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TriBemError as exc:
        print(f"tribem: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"tribem: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
