"""Command-line front end.

Subcommands: solve (one problem end to end), sweep (multi-trial timing
sweeps with reports: the direct and precomputed modes time a problem,
the dummy mode synthetic system sizes), precompute / apply (offline
Green's-function operator and its realtime reuse), validate (mesh
checks). A flag the sweep's mode does not read is a usage error. Exit
codes: 0 success, 1 usage, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from . import bench
from .assembly import assemble
from .errors import (
    BcFileError,
    EmptyMeshError,
    StaleOperatorError,
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
    problem_fingerprint,
    solution_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# the material of a problem read from STL
STL_MATERIAL = make_material(200000.0, 0.33)

# applies timed after the first one for the median `apply` prints
APPLY_REPEATS = 9


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
    return Problem(mesh, STL_MATERIAL, bc, args.mesh)


def _cmd_solve(args):
    prob = _load_problem(args)
    rule = gauss_rule(args.quad)
    sol, tm = distributed_assemble_solve(
        prob.mesh, prob.material, prob.bc, rule,
        workers=args.workers,
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


# sweep flags left unset on the parser, so that one the mode does not
# read can be refused; _cmd_sweep fills these in
_SWEEP_DEFAULTS = {
    "quad": 16, "size": (), "workers": (1,), "block_sizes": (32,),
}


def _unused_sweep_flags(args):
    """Flags given on the command line that the sweep's mode does not read."""
    if args.mode == "direct":
        unused = ("size",)
    elif args.mode == "dummy":
        unused = ("cube", "mesh", "bc", "quad", "workers", "block_sizes")
    else:  # precomputed
        unused = ("size", "workers", "block_sizes")
    return [f"--{name.replace('_', '-')}" for name in unused if getattr(args, name) is not None]


def _cmd_sweep(args):
    unused = _unused_sweep_flags(args)
    if unused:
        raise ValueError(f"sweep --mode {args.mode} does not use {', '.join(unused)}")
    for name, default in _SWEEP_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
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
    print(f"best mean:      {bench.format_seconds(best)} s -> "
          f"{verdict.computations_per_second:.1f}/s "
          f"(graphics {'ok' if verdict.graphics_ok else 'NOT ok'})")
    print(f"nonlinear est.: x{est.iterations} iterations -> "
          f"{bench.format_seconds(est.seconds)} s "
          f"(graphics {'ok' if est.verdict.graphics_ok else 'NOT ok'})")
    if args.report:
        print(f"report written: {args.report}")
    return EXIT_OK


def _cmd_precompute(args):
    prob = _load_problem(args)
    rule = gauss_rule(args.quad)
    hg = assemble(prob.mesh, prob.material, rule)
    op = PrecomputedOperator.build(
        hg, prob.bc, problem_fingerprint(prob.mesh, prob.material)
    )
    op.save(args.operator)
    print(f"operator for {op.n_dofs} dofs written to {args.operator}")
    return EXIT_OK


def _cmd_apply(args):
    op = PrecomputedOperator.load(args.operator)
    with open(args.mesh, "rb") as f:
        mesh = load_stl(f.read())
    if op.fingerprint != problem_fingerprint(mesh, STL_MATERIAL):
        raise StaleOperatorError(
            f"operator in {args.operator} was not precomputed for the mesh "
            f"and material of {args.mesh}"
        )
    bc = load_bc_file(args.bc, mesh)
    # the first apply pays for faulting in the freshly loaded operator,
    # which a realtime loop pays once: it is reported, not timed
    sol = apply_precomputed(op, bc)
    times = []
    for _ in range(APPLY_REPEATS):
        t0 = time.perf_counter()
        apply_precomputed(op, bc)
        times.append(time.perf_counter() - t0)
    dt = statistics.median(times)
    verdict = bench.realtime_verdict(dt)
    print(f"applied precomputed operator: median {dt:.6f} s over {APPLY_REPEATS} "
          f"repeat applies ({verdict.computations_per_second:.1f}/s, "
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
    p.add_argument("--quad", type=int, choices=SUPPORTED_ORDERS,
                   help="Gauss order per axis (default 16)")
    p.add_argument("--mode", choices=("direct", "precomputed", "dummy"),
                   default="direct")
    p.add_argument("--size", type=_int_list, metavar="LIST",
                   help="synthetic system sizes (dummy mode)")
    p.add_argument("--workers", type=_int_list, metavar="LIST", help="default 1")
    p.add_argument("--block-sizes", type=_int_list, metavar="LIST", help="default 32")
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("precompute", help="assemble, solve for and store the operator")
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
