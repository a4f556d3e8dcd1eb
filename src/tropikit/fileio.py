"""Plain-text formats for graphs, matrices, polynomials, curves, functions.

Floats are rendered with %.17g so parsing them back recovers the exact
double; the infinities are the tokens inf and -inf, rationals are p/q.
Writers always end with a newline and use LF regardless of platform.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .dequant import CurvePiece, TropicalCurve
from .errors import FileFormatError
from .interval import IntervalMatrix
from .linalg import Graph, SemiringMatrix
from .semiring import NEG_INF, POS_INF, SemiringSpec
from .transform import SampledFunction


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _float_lines(a: np.ndarray, sep: str) -> list:
    """One line per row of the 2-D array a: fmt_float of each entry, joined
    by sep.  One %-format per row, of that row's tolist() floats only, so no
    Python float outlives its row."""
    line = sep.join(["%.17g"] * a.shape[1])
    return [line % tuple(row.tolist()) for row in a]


def parse_float(tok: str) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise FileFormatError(f"not a number: {tok!r}") from None
    if math.isnan(x):
        raise FileFormatError("NaN is not a carrier value")
    return x


def fmt_frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(f"not a rational: {tok!r}") from None


def _data_lines(text: str):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield ln, line


def _header_int(lines, key: str) -> int:
    try:
        ln, line = next(lines)
    except StopIteration:
        raise FileFormatError(f"missing '{key} <count>' header") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise FileFormatError(f"line {ln}: expected '{key} <count>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise FileFormatError(f"line {ln}: bad count {parts[1]!r}") from None


# --- graphs -------------------------------------------------------------------


def parse_graph(text: str) -> Graph:
    lines = _data_lines(text)
    n = _header_int(lines, "n")
    edges = []
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise FileFormatError(f"line {ln}: expected 'src dst weight', got {line!r}")
        edges.append((int_token(parts[0], ln), int_token(parts[1], ln), parse_float(parts[2])))
    return Graph(n, tuple(edges))


def parse_interval_graph(text: str):
    """Returns (n, [(src, dst, wmin, wmax), ...]) with numeric bounds."""
    lines = _data_lines(text)
    n = _header_int(lines, "n")
    edges = []
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 4:
            raise FileFormatError(f"line {ln}: expected 'src dst wmin wmax', got {line!r}")
        lo = parse_float(parts[2])
        hi = parse_float(parts[3])
        if lo > hi:
            raise FileFormatError(f"line {ln}: wmin {lo!r} exceeds wmax {hi!r}")
        edges.append((int_token(parts[0], ln), int_token(parts[1], ln), lo, hi))
    return n, edges


def int_token(tok: str, ln: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FileFormatError(f"line {ln}: bad integer {tok!r}") from None


# --- matrices -------------------------------------------------------------------


def format_matrix(M: SemiringMatrix) -> str:
    return "\n".join(_float_lines(M.data, "\t")) + "\n"


def _float_rows(text: str, what: str) -> np.ndarray:
    """The data lines of text as a 2-D float array, if all have one width."""
    rows = []
    for ln, line in _data_lines(text):
        vals = [parse_float(t) for t in line.split()]
        if rows and len(vals) != len(rows[0]):
            raise FileFormatError(f"line {ln}: ragged row ({len(vals)} of {len(rows[0])} entries)")
        rows.append(vals)
    if not rows:
        raise FileFormatError(f"{what} file has no rows")
    return np.array(rows)


def parse_matrix(text: str, spec: SemiringSpec) -> SemiringMatrix:
    return SemiringMatrix(_float_rows(text, "matrix"), spec)


def format_interval_matrix(M: IntervalMatrix) -> str:
    lo, hi = M.numeric_bounds()
    # each row interleaves lower and upper bounds: lo[i, 0], hi[i, 0], lo[i, 1], ...
    cells = np.stack((lo, hi), axis=2).reshape(lo.shape[0], 2 * lo.shape[1])
    return "\n".join(_float_lines(cells, "\t")) + "\n"


def parse_interval_matrix(text: str, spec: SemiringSpec) -> IntervalMatrix:
    cells = _float_rows(text, "interval matrix")
    if cells.shape[1] % 2:
        raise FileFormatError(f"odd number of entries ({cells.shape[1]}) in interval rows")
    return IntervalMatrix.from_numeric(cells[:, 0::2], cells[:, 1::2], spec)


# --- generalized polynomials ---------------------------------------------------


def parse_poly(text: str):
    """Returns (n, [(coeff: Fraction, exps: tuple[Fraction, ...]), ...]).

    Coefficients parse exactly as rationals; callers needing floats convert.
    """
    lines = _data_lines(text)
    n = _header_int(lines, "n")
    terms = []
    for ln, line in lines:
        parts = line.split()
        if len(parts) != n + 1:
            raise FileFormatError(f"line {ln}: expected coeff and {n} exponents, got {line!r}")
        terms.append((parse_frac(parts[0]), tuple(parse_frac(t) for t in parts[1:])))
    if not terms:
        raise FileFormatError("polynomial file has no terms")
    return n, terms


# --- tropical curves -------------------------------------------------------------


_CURVE_HEADER = "base_x,base_y,dir_x,dir_y,t0,t1"


def _fmt_t(t) -> str:
    if t == POS_INF:
        return "inf"
    if t == NEG_INF:
        return "-inf"
    return fmt_frac(t)


def _parse_t(tok: str):
    if tok == "inf":
        return POS_INF
    if tok == "-inf":
        return NEG_INF
    return parse_frac(tok)


def format_curve(curve: TropicalCurve) -> str:
    out = [_CURVE_HEADER]
    for p in curve.pieces:
        out.append(
            ",".join(
                (
                    fmt_frac(p.base[0]),
                    fmt_frac(p.base[1]),
                    fmt_frac(p.direction[0]),
                    fmt_frac(p.direction[1]),
                    _fmt_t(p.t0),
                    _fmt_t(p.t1),
                )
            )
        )
    return "\n".join(out) + "\n"


def parse_curve(text: str) -> TropicalCurve:
    lines = list(_data_lines(text))
    if not lines or lines[0][1] != _CURVE_HEADER:
        raise FileFormatError(f"curve file must start with the header {_CURVE_HEADER!r}")
    pieces = []
    for ln, line in lines[1:]:
        toks = line.split(",")
        if len(toks) != 6:
            raise FileFormatError(f"line {ln}: expected 6 comma-separated fields")
        d = (parse_frac(toks[2]), parse_frac(toks[3]))
        if d[0].denominator != 1 or d[1].denominator != 1:
            raise FileFormatError(f"line {ln}: direction must be integer")
        pieces.append(
            CurvePiece(
                (parse_frac(toks[0]), parse_frac(toks[1])),
                (int(d[0]), int(d[1])),
                _parse_t(toks[4]),
                _parse_t(toks[5]),
            )
        )
    return TropicalCurve(tuple(pieces))


# --- point clouds ---------------------------------------------------------------


_POINTS_HEADER = "x,y"


def format_points(arr) -> str:
    arr = np.asarray(arr, dtype=float)
    return "\n".join([_POINTS_HEADER, *_float_lines(arr, ",")]) + "\n"


def parse_points(text: str) -> np.ndarray:
    lines = list(_data_lines(text))
    if not lines or lines[0][1] != _POINTS_HEADER:
        raise FileFormatError(f"points file must start with the header {_POINTS_HEADER!r}")
    rows = []
    for ln, line in lines[1:]:
        toks = line.split(",")
        if len(toks) != 2:
            raise FileFormatError(f"line {ln}: expected 2 comma-separated fields")
        rows.append([parse_float(toks[0]), parse_float(toks[1])])
    return np.array(rows, dtype=float).reshape(len(rows), 2)


# --- sampled functions ------------------------------------------------------------


def format_function(f: SampledFunction) -> str:
    head = f"start {fmt_float(f.start)} step {fmt_float(f.step)} convention {f.convention}"
    # the bytes of fmt_float: each np.float64 is a Python float
    return "\n".join([head, *map("%.17g".__mod__, f.values)]) + "\n"


def parse_function(text: str) -> SampledFunction:
    lines = _data_lines(text)
    try:
        ln, head = next(lines)
    except StopIteration:
        raise FileFormatError("function file is empty") from None
    parts = head.split()
    if len(parts) != 6 or parts[0] != "start" or parts[2] != "step" or parts[4] != "convention":
        raise FileFormatError(f"line {ln}: bad function header {head!r}")
    start = parse_float(parts[1])
    step = parse_float(parts[3])
    convention = parts[5]
    if convention not in ("maxplus", "minplus"):
        raise FileFormatError(f"line {ln}: unknown convention {convention!r}")
    vals = [parse_float(line) for _, line in lines]
    if not vals:
        raise FileFormatError("function file has no samples")
    return SampledFunction(start, step, np.array(vals), convention)


# --- path helpers -----------------------------------------------------------------


def read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
