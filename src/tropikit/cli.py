"""Batch command-line interface.

Every subcommand reads plain-text inputs, writes one plain-text artifact to
--output (default stdout), and is deterministic byte for byte.  Exit codes:
0 on success, 1 for a library error (one line `ERROR <code>: <message>` on
stderr; running out of memory is the library error OutOfMemory), 2 for usage
or input-parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fileio
from .dequant import (
    GenPolynomial,
    amoeba_line_sample,
    newton_set,
    tropical_curve_2d,
)
from .errors import FileFormatError, TropikitError
from .interval import IntervalMatrix, interval_adjacency, interval_bellman
from .linalg import (
    SemiringMatrix,
    shortest_paths,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
)
from .semiring import MINPLUS, check_axioms, deformed_add, get_semiring
from .transform import convolution, hopf_lax_evolve, legendre


def _semiring(tok: str):
    try:
        return get_semiring(tok)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_float(tok: str) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {tok!r}") from None
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive: {tok!r}")
    return x


def _float_list(tok: str):
    vals = [_positive_float(t) for t in tok.split(",") if t]
    if not vals:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {tok!r}")
    return vals


_COMMANDS = {}


def _arg(*flags, **options):
    return flags, options


def _command(name: str, help_: str, *arguments):
    """Register the decorated handler as subcommand `name`, taking `arguments`
    (`_arg` pairs) besides -o/--output; the table keeps registration order,
    which is the --help order."""
    def register(run):
        _COMMANDS[name] = (help_, arguments, run)
        return run
    return register


@_command("axioms", "audit the semiring laws on random samples",
          _arg("--semiring", type=_semiring, required=True),
          _arg("--trials", type=int, default=1000),
          _arg("--seed", type=int, default=0))
def _run_axioms(args) -> str:
    spec = args.semiring
    results = check_axioms(spec, trials=args.trials, seed=args.seed)
    lines = [f"semiring {spec.name} trials {args.trials} seed {args.seed}"]
    for law, ok in results.items():
        note = ""
        if law == "add-idempotent" and not spec.idempotent:
            note = " (addition is not idempotent here)"
        lines.append(f"{law} {'PASS' if ok else 'FAIL'}{note}")
    return "\n".join(lines) + "\n"


@_command("sp", "all-pairs shortest path weights of a graph file",
          _arg("--graph", required=True))
def _run_sp(args) -> str:
    g = fileio.parse_graph(fileio.read_text(args.graph))
    return fileio.format_matrix(shortest_paths(g))


@_command("bellman", "least solution of X = H@X (+) F from matrix files",
          _arg("--h-matrix", required=True),
          _arg("--f-matrix", required=True),
          _arg("--semiring", type=_semiring, required=True),
          _arg("--method", choices=("jacobi", "gauss-seidel"), default="jacobi"),
          _arg("--max-iter", type=int, default=None))
def _run_bellman(args) -> str:
    spec = args.semiring
    H = fileio.parse_matrix(fileio.read_text(args.h_matrix), spec)
    F = fileio.parse_matrix(fileio.read_text(args.f_matrix), spec)
    solver = solve_bellman_jacobi if args.method == "jacobi" else solve_bellman_gauss_seidel
    return fileio.format_matrix(solver(H, F, max_iter=args.max_iter))


@_command("interval-bellman", "interval shortest distances to a target node",
          _arg("--graph", required=True, help="interval graph file (src dst wmin wmax)"),
          _arg("--target", type=int, required=True),
          _arg("--max-iter", type=int, default=None))
def _run_interval_bellman(args) -> str:
    n, edges = fileio.parse_interval_graph(fileio.read_text(args.graph))
    if not 0 <= args.target < n:
        raise FileFormatError(f"target {args.target} out of range for {n} nodes")
    H = interval_adjacency(n, edges, MINPLUS)
    f = np.full((n, 1), MINPLUS.zero)
    f[args.target, 0] = MINPLUS.one
    F = IntervalMatrix.from_arrays(f, f, MINPLUS)
    return fileio.format_interval_matrix(interval_bellman(H, F, max_iter=args.max_iter))


@_command("newton", "vertices of the Newton set of a polynomial file",
          _arg("--poly", required=True))
def _run_newton(args) -> str:
    n, terms = fileio.parse_poly(fileio.read_text(args.poly))
    f = GenPolynomial(n, tuple(terms))
    P = newton_set(f)
    verts = "; ".join(" ".join(fileio.fmt_frac(c) for c in v) for v in P.vertices)
    return verts + "\n"


@_command("tropcurve", "corner locus pieces of a max-plus polynomial",
          _arg("--poly", required=True))
def _run_tropcurve(args) -> str:
    n, terms = fileio.parse_poly(fileio.read_text(args.poly))
    if n != 2:
        raise FileFormatError(f"tropcurve needs a 2-variable polynomial, got n = {n}")
    return fileio.format_curve(tropical_curve_2d(terms))


@_command("amoeba", "sample the log image of the line x + y + 1 = 0",
          _arg("--h", type=_positive_float, required=True),
          _arg("--samples", type=int, default=256))
def _run_amoeba(args) -> str:
    return fileio.format_points(amoeba_line_sample(args.h, args.samples))


@_command("legendre", "slope transform of a sampled maxplus function",
          _arg("--input", required=True),
          _arg("--xi-start", type=float, required=True),
          _arg("--xi-step", type=_positive_float, required=True),
          _arg("--xi-count", type=int, required=True))
def _run_legendre(args) -> str:
    phi = fileio.parse_function(fileio.read_text(args.input))
    out = legendre(phi, args.xi_start, args.xi_step, args.xi_count)
    return fileio.format_function(out)


@_command("convolve", "idempotent convolution of two sampled functions",
          _arg("--phi", required=True),
          _arg("--psi", required=True))
def _run_convolve(args) -> str:
    phi = fileio.parse_function(fileio.read_text(args.phi))
    psi = fileio.parse_function(fileio.read_text(args.psi))
    return fileio.format_function(convolution(phi, psi))


@_command("hopflax", "evolve minplus initial data by the parabolic kernel",
          _arg("--input", required=True),
          _arg("--t", type=_positive_float, required=True),
          _arg("--m", type=_positive_float, default=1.0))
def _run_hopflax(args) -> str:
    s0 = fileio.parse_function(fileio.read_text(args.input))
    return fileio.format_function(hopf_lax_evolve(s0, args.t, args.m))


@_command("dequant-demo", "tabulate the deformed sum at a few h values",
          _arg("--h", type=_float_list, default=[1.0, 0.1, 0.01]),
          _arg("--u", type=float, default=0.0),
          _arg("--v", type=float, default=0.0))
def _run_dequant_demo(args) -> str:
    lines = []
    for h in args.h:
        lines.append(f"{fileio.fmt_float(h)}\t{fileio.fmt_float(deformed_add(args.u, args.v, h))}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _parser(names: tuple) -> argparse.ArgumentParser:
    """The parser of the subcommands names, built once per process: argparse
    builds its help formatter only when it prints, so reuse changes no byte."""
    p = argparse.ArgumentParser(
        prog="tropikit",
        description="idempotent semirings, tropical linear algebra, dequantization",
    )
    # a parser built for some of the subcommands still names all of them in its
    # usage; the full one keeps argparse's default, which its error messages use
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_, arguments, run = _COMMANDS[name]
        q = sub.add_parser(name, help=help_)
        q.add_argument("-o", "--output", help="write the artifact here instead of stdout")
        for flags, options in arguments:
            q.add_argument(*flags, **options)
        q.set_defaults(run=run)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named subcommand's parser; --help and a missing or unknown one need all
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    args = _parser(names).parse_args(argv)
    try:
        text = args.run(args)
        if args.output:
            fileio.write_text(args.output, text)
        else:
            sys.stdout.write(text)
    except FileFormatError as e:
        print(f"ERROR FileFormatError: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TropikitError as e:
        print(f"ERROR {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"ERROR OutOfMemory: {args.command}: {str(e) or 'allocation failed'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
