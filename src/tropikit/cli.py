"""Batch command-line interface.

Every subcommand reads plain-text inputs, writes one plain-text artifact to
--output (default stdout), and is deterministic byte for byte.  Exit codes:
0 on success, 1 for a library error (one line `ERROR <code>: <message>` on
stderr; running out of memory is the library error OutOfMemory), 2 for usage
or input-parse errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .dequant import (
    GenPolynomial,
    amoeba_line_sample,
    newton_set,
    tropical_curve_2d,
)
from .errors import FileFormatError, OutOfMemory, TropikitError
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
    try:
        return [float(t) for t in tok.split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {tok!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropikit",
        description="idempotent semirings, tropical linear algebra, dequantization",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("-o", "--output", help="write the artifact here instead of stdout")
        return sp

    q = cmd("axioms", "audit the semiring laws on random samples")
    q.add_argument("--semiring", type=_semiring, required=True)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)

    q = cmd("sp", "all-pairs shortest path weights of a graph file")
    q.add_argument("--graph", required=True)

    q = cmd("bellman", "least solution of X = H@X (+) F from matrix files")
    q.add_argument("--h-matrix", required=True, dest="h_matrix")
    q.add_argument("--f-matrix", required=True, dest="f_matrix")
    q.add_argument("--semiring", type=_semiring, required=True)
    q.add_argument("--method", choices=("jacobi", "gauss-seidel"), default="jacobi")
    q.add_argument("--max-iter", type=int, default=None)

    q = cmd("interval-bellman", "interval shortest distances to a target node")
    q.add_argument("--graph", required=True, help="interval graph file (src dst wmin wmax)")
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--max-iter", type=int, default=None)

    q = cmd("newton", "vertices of the Newton set of a polynomial file")
    q.add_argument("--poly", required=True)

    q = cmd("tropcurve", "corner locus pieces of a max-plus polynomial")
    q.add_argument("--poly", required=True)

    q = cmd("amoeba", "sample the log image of the line x + y + 1 = 0")
    q.add_argument("--h", type=_positive_float, required=True)
    q.add_argument("--samples", type=int, default=256)

    q = cmd("legendre", "slope transform of a sampled maxplus function")
    q.add_argument("--input", required=True)
    q.add_argument("--xi-start", type=float, required=True)
    q.add_argument("--xi-step", type=_positive_float, required=True)
    q.add_argument("--xi-count", type=int, required=True)

    q = cmd("convolve", "idempotent convolution of two sampled functions")
    q.add_argument("--phi", required=True)
    q.add_argument("--psi", required=True)

    q = cmd("hopflax", "evolve minplus initial data by the parabolic kernel")
    q.add_argument("--input", required=True)
    q.add_argument("--t", type=_positive_float, required=True)
    q.add_argument("--m", type=_positive_float, default=1.0)

    q = cmd("dequant-demo", "tabulate the deformed sum at a few h values")
    q.add_argument("--h", type=_float_list, default=[1.0, 0.1, 0.01])
    q.add_argument("--u", type=float, default=0.0)
    q.add_argument("--v", type=float, default=0.0)

    return p


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


def _run_sp(args) -> str:
    g = fileio.parse_graph(fileio.read_text(args.graph))
    return fileio.format_matrix(shortest_paths(g))


def _run_bellman(args) -> str:
    spec = args.semiring
    H = fileio.parse_matrix(fileio.read_text(args.h_matrix), spec)
    F = fileio.parse_matrix(fileio.read_text(args.f_matrix), spec)
    solver = solve_bellman_jacobi if args.method == "jacobi" else solve_bellman_gauss_seidel
    return fileio.format_matrix(solver(H, F, max_iter=args.max_iter))


def _run_interval_bellman(args) -> str:
    n, edges = fileio.parse_interval_graph(fileio.read_text(args.graph))
    if not 0 <= args.target < n:
        raise FileFormatError(f"target {args.target} out of range for {n} nodes")
    H = interval_adjacency(n, edges, MINPLUS)
    f = np.full((n, 1), MINPLUS.zero)
    f[args.target, 0] = MINPLUS.one
    F = IntervalMatrix.from_arrays(f, f, MINPLUS)
    return fileio.format_interval_matrix(interval_bellman(H, F, max_iter=args.max_iter))


def _run_newton(args) -> str:
    n, terms = fileio.parse_poly(fileio.read_text(args.poly))
    f = GenPolynomial(n, tuple((float(c), d) for c, d in terms))
    P = newton_set(f)
    verts = "; ".join(" ".join(fileio.fmt_frac(c) for c in v) for v in P.vertices)
    return verts + "\n"


def _run_tropcurve(args) -> str:
    n, terms = fileio.parse_poly(fileio.read_text(args.poly))
    if n != 2:
        raise FileFormatError(f"tropcurve needs a 2-variable polynomial, got n = {n}")
    return fileio.format_curve(tropical_curve_2d(terms))


def _run_amoeba(args) -> str:
    return fileio.format_points(amoeba_line_sample(args.h, args.samples))


def _run_legendre(args) -> str:
    phi = fileio.parse_function(fileio.read_text(args.input))
    out = legendre(phi, args.xi_start, args.xi_step, args.xi_count)
    return fileio.format_function(out)


def _run_convolve(args) -> str:
    phi = fileio.parse_function(fileio.read_text(args.phi))
    psi = fileio.parse_function(fileio.read_text(args.psi))
    return fileio.format_function(convolution(phi, psi))


def _run_hopflax(args) -> str:
    s0 = fileio.parse_function(fileio.read_text(args.input))
    return fileio.format_function(hopf_lax_evolve(s0, args.t, args.m))


def _run_dequant_demo(args) -> str:
    lines = []
    for h in args.h:
        lines.append(f"{fileio.fmt_float(h)}\t{fileio.fmt_float(deformed_add(args.u, args.v, h))}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "axioms": _run_axioms,
    "sp": _run_sp,
    "bellman": _run_bellman,
    "interval-bellman": _run_interval_bellman,
    "newton": _run_newton,
    "tropcurve": _run_tropcurve,
    "amoeba": _run_amoeba,
    "legendre": _run_legendre,
    "convolve": _run_convolve,
    "hopflax": _run_hopflax,
    "dequant-demo": _run_dequant_demo,
}


def _run(args) -> str:
    try:
        return _HANDLERS[args.command](args)
    except MemoryError as e:
        raise OutOfMemory(f"{args.command}: {str(e) or 'allocation failed'}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = _run(args)
    except FileFormatError as e:
        print(f"ERROR FileFormatError: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TropikitError as e:
        print(f"ERROR {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.output:
        fileio.write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
