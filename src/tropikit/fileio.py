"""Plain-text formats for graphs, matrices, polynomials, curves, functions.

Floats are rendered with %.17g so parsing them back recovers the exact
double; the infinities are the tokens inf and -inf, rationals are p/q.
The numeric writers format each distinct value of an array once, telling
values apart by their bits (so -0.0 still prints -0 beside 0.0), and
gather the strings: the bytes are those of fmt_float on every entry.
Writers always end with a newline and use LF regardless of platform.

The numeric readers hand their data lines to one np.loadtxt call, which
alone writes the message naming the file line at fault.  Two shapes skip
the per-line Python: matrix rows of mostly infinities go one np.fromstring
call a row, and a function file whose first line is its header and whose
body holds one number a line in the characters 0-9 . e E + - i n f goes
one np.fromstring call for the whole body.  They read the same doubles as
np.loadtxt, and a file they do not read whole goes to np.loadtxt.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .dequant import CurvePiece, TropicalCurve, _rational
from .errors import DomainError, FileFormatError, ShapeMismatch
from .interval import IntervalMatrix
from .linalg import Graph, SemiringMatrix
from .semiring import NEG_INF, POS_INF, SemiringSpec, _floats, _operands, _short
from .transform import _SPECS, SampledFunction


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_cells(a) -> np.ndarray:
    """fmt_float of every entry of a, as an object array of a's shape.

    Idempotent results repeat a few values many times, so each distinct
    bit pattern is formatted once and the strings are gathered back."""
    a = np.ascontiguousarray(a, dtype=float)
    bits, inv = np.unique(a.view(np.int64), return_inverse=True)
    strs = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    # numpy 1.x returns inv flat, numpy 2.x in a's shape
    return strs[inv.reshape(a.shape)]


def _float_lines(a: np.ndarray, sep: str) -> list:
    """One line per row of the 2-D array a: its cells joined by sep."""
    return [sep.join(row) for row in _fmt_cells(a).tolist()]


def _number(tok: str, kind):
    """kind(tok), kind int or float, in np.loadtxt's grammar for int64 or
    float, or None: int() or float() of an ASCII token with no '_'
    separator, and an int in the range of int64."""
    if not tok.isascii() or "_" in tok:
        return None
    try:
        x = kind(tok)
    except ValueError:
        return None
    return x if kind is float or -(2**63) <= x < 2**63 else None


def _token_fault(tok: str, dtype) -> str | None:
    """Why np.loadtxt reads tok as no value of dtype (np.int64 or float), or None."""
    if dtype is np.int64:
        return None if _number(tok, int) is not None else f"bad integer {tok!r}"
    x = _number(tok, float)
    if x is None:
        return f"not a number: {tok!r}"
    return "NaN is not a carrier value" if x != x else None


def parse_float(tok: str) -> float:
    """One float token, in the grammar of the array reader below."""
    fault = _token_fault(tok, float)
    if fault:
        raise FileFormatError(fault)
    return float(tok)


def fmt_frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(tok: str):
    try:
        return _rational(tok)
    except (ValueError, ZeroDivisionError):
        raise FileFormatError(f"not a rational: {_short(tok)}") from None


def _tokens(ln: int, read, toks) -> list:
    """[read(t) for t in toks], a fault naming the file line ln."""
    try:
        return list(map(read, toks))
    except FileFormatError as e:
        raise FileFormatError(f"line {ln}: {e}") from None


def _data_lines(text: str):
    """(file line numbers, stripped lines) of the lines that hold data: all
    but blank lines and # comment lines."""
    lines = [raw.strip() for raw in text.splitlines()]
    lns = [ln for ln, line in enumerate(lines, start=1) if line and line[0] != "#"]
    return lns, [lines[ln - 1] for ln in lns]


def _header_int(lns, lines, key: str) -> int:
    if not lines:
        raise FileFormatError(f"missing '{key} <count>' header")
    parts = lines[0].split()
    if len(parts) != 2 or parts[0] != key:
        raise FileFormatError(f"line {lns[0]}: expected '{key} <count>', got {lines[0]!r}")
    if _token_fault(parts[1], np.int64):
        raise FileFormatError(f"line {lns[0]}: bad count {parts[1]!r}")
    return int(parts[1])


def _fields_fault(toks, dtypes) -> str | None:
    """The first _token_fault of toks read as dtypes, or None."""
    return next(filter(None, map(_token_fault, toks, dtypes)), None)


def _no_nan(a) -> bool:
    return not np.isnan(a).any()


def _read(lns, lines, dtype, line_fault, rows_ok) -> np.ndarray:
    """The data lines as one array, converted by a single np.loadtxt call:
    a 2-D float array, or one record per line for a structured dtype.

    If numpy rejects the lines, or rows_ok(array) is false, the first line
    that line_fault(line) finds at fault raises FileFormatError naming its
    file line.  numpy's message is not used: it counts rows, not file lines.
    """
    try:
        with warnings.catch_warnings():
            # numpy releases with the int-via-float fallback read an int64
            # field '1.5' as 1 and only warn; that is a rejection here
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1 if dtype.names else 2)
        if rows_ok(arr):
            return arr
    except (ValueError, DeprecationWarning):
        pass
    for ln, line in zip(lns, lines):
        fault = line_fault(line)
        if fault:
            raise FileFormatError(f"line {ln}: {fault}")
    raise FileFormatError("unreadable numeric data")


# --- graphs -------------------------------------------------------------------


_EDGE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", float)])
_INTERVAL_EDGE = np.dtype([("src", np.int64), ("dst", np.int64), ("wmin", float), ("wmax", float)])


def _records(lns, lines, dtype: np.dtype, layout: str, rows_ok, record_fault=lambda toks: None):
    """The edge lines as one record array of dtype, each line reading layout."""

    def fault(line):
        toks = line.split()
        if len(toks) != len(dtype):
            return f"expected {layout!r}, got {line!r}"
        return _fields_fault(toks, [dtype[f].type for f in dtype.names]) or record_fault(toks)

    if not lines:
        return np.empty(0, dtype)
    return _read(lns, lines, dtype, fault, rows_ok)


def parse_graph(text: str) -> Graph:
    lns, lines = _data_lines(text)
    n = _header_int(lns, lines, "n")
    edges = _records(lns[1:], lines[1:], _EDGE, "src dst weight", lambda a: _no_nan(a["w"]))
    return Graph(n, edges)


def _order_fault(toks):
    lo, hi = float(toks[2]), float(toks[3])
    return f"wmin {lo!r} exceeds wmax {hi!r}" if lo > hi else None


def parse_interval_graph(text: str):
    """Returns (n, edges), edges a record array with fields src, dst, wmin, wmax."""
    lns, lines = _data_lines(text)
    n = _header_int(lns, lines, "n")
    edges = _records(lns[1:], lines[1:], _INTERVAL_EDGE, "src dst wmin wmax",
                     lambda a: bool(np.all(a["wmin"] <= a["wmax"])), _order_fault)
    return n, edges


# --- matrices -------------------------------------------------------------------


def format_matrix(M: SemiringMatrix) -> str:
    _operands(SemiringMatrix, M)
    return "\n".join(_float_lines(M.data, "\t")) + "\n"


# np.fromstring reads an inf token about twice as fast as np.loadtxt does,
# but a numeric one about half as fast, and costs about 1.7 us a call: it
# pays for rows that are wide and mostly infinities, the zero of minplus and
# maxplus in a sparse matrix.  The first row stands in for the file.
_WIDE = 48


def _tokenized(lines, width: int):
    """The lines as a (len(lines), width) float array, each line read by
    numpy's float tokenizer (np.fromstring) straight into its row; None if
    a line is not read whole or to width entries, or holds a NaN."""
    arr = np.empty((len(lines), width))
    try:
        with warnings.catch_warnings():
            # numpy 1.x only warns where a line is not read to its end
            warnings.simplefilter("error", DeprecationWarning)
            for row, line in zip(arr, lines):
                vals = np.fromstring(line, sep=" ")
                if vals.size != width:
                    return None
                row[...] = vals
    except (ValueError, DeprecationWarning):
        return None
    return arr if _no_nan(arr) else None


def _float_rows(text: str, what: str) -> np.ndarray:
    """The data lines of text as a 2-D float array, if all have one width.

    Rows of mostly infinities are read by _tokenized; the rest, and every
    file _tokenized does not read, by _read, which alone decides between
    the np.loadtxt result and the message naming the file line at fault."""
    lns, lines = _data_lines(text)
    if not lines:
        raise FileFormatError(f"{what} file has no rows")
    width = len(lines[0].split())
    infs = lines[0].count("inf")
    if infs >= _WIDE and 4 * infs >= 3 * width:
        arr = _tokenized(lines, width)
        if arr is not None:
            return arr

    def fault(line):
        toks = line.split()
        return _fields_fault(toks, [float] * len(toks)) or (
            len(toks) != width and f"ragged row ({len(toks)} of {width} entries)")

    return _read(lns, lines, np.dtype(float), fault, _no_nan)


def parse_matrix(text: str, spec: SemiringSpec) -> SemiringMatrix:
    return SemiringMatrix(_float_rows(text, "matrix"), spec)


def format_interval_matrix(M: IntervalMatrix) -> str:
    _operands(IntervalMatrix, M)
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
    """Returns (n, [(coeff, exps), ...]), each an exact rational read by
    parse_frac (an int for integer text); callers needing floats convert.
    """
    lns, lines = _data_lines(text)
    n = _header_int(lns, lines, "n")
    terms = []
    for ln, line in zip(lns[1:], lines[1:]):
        parts = line.split()
        if len(parts) != n + 1:
            raise FileFormatError(f"line {ln}: expected coeff and {n} exponents, got {line!r}")
        c, *d = _tokens(ln, parse_frac, parts)
        terms.append((c, tuple(d)))
    if not terms:
        raise FileFormatError("polynomial file has no terms")
    return n, terms


# --- tropical curves -------------------------------------------------------------


_CURVE_HEADER = "base_x,base_y,dir_x,dir_y,t0,t1"


def _fmt_t(t) -> str:
    return fmt_float(t) if t in (POS_INF, NEG_INF) else fmt_frac(t)


def _parse_t(tok: str):
    return float(tok) if tok in ("inf", "-inf") else parse_frac(tok)


def format_curve(curve: TropicalCurve) -> str:
    _operands(TropicalCurve, curve)
    rows = (",".join([*map(fmt_frac, (*p.base, *p.direction)), _fmt_t(p.t0), _fmt_t(p.t1)])
            for p in curve.pieces)
    return "\n".join([_CURVE_HEADER, *rows]) + "\n"


def parse_curve(text: str) -> TropicalCurve:
    lns, lines = _data_lines(text)
    if not lines or lines[0] != _CURVE_HEADER:
        raise FileFormatError(f"curve file must start with the header {_CURVE_HEADER!r}")
    pieces = []
    for ln, line in zip(lns[1:], lines[1:]):
        toks = line.split(",")
        if len(toks) != 6:
            raise FileFormatError(f"line {ln}: expected 6 comma-separated fields")
        bx, by, dx, dy = _tokens(ln, parse_frac, toks[:4])
        if dx.denominator != 1 or dy.denominator != 1:
            raise FileFormatError(f"line {ln}: direction must be integer")
        pieces.append(CurvePiece((bx, by), (int(dx), int(dy)), *_tokens(ln, _parse_t, toks[4:])))
    return TropicalCurve(tuple(pieces))


# --- point clouds ---------------------------------------------------------------


_POINTS_HEADER = "x,y"


def format_points(arr) -> str:
    """The header and one x,y line per row of arr, which parse_points reads
    back: a (k, 2) array with no NaN, or ShapeMismatch or DomainError."""
    arr = _floats(arr, "points", 2, "a (k, 2) array")
    if arr.shape[1] != 2:
        raise ShapeMismatch(f"points must be a (k, 2) array, got shape {arr.shape}")
    if not _no_nan(arr):
        raise DomainError("NaN is not a point coordinate")
    return "\n".join([_POINTS_HEADER, *_float_lines(arr, ",")]) + "\n"


def parse_points(text: str) -> np.ndarray:
    lns, lines = _data_lines(text)
    if not lines or lines[0] != _POINTS_HEADER:
        raise FileFormatError(f"points file must start with the header {_POINTS_HEADER!r}")
    rows = []
    for ln, line in zip(lns[1:], lines[1:]):
        toks = line.split(",")
        if len(toks) != 2:
            raise FileFormatError(f"line {ln}: expected 2 comma-separated fields")
        rows.append(_tokens(ln, parse_float, toks))
    return np.array(rows, dtype=float).reshape(len(rows), 2)


# --- sampled functions ------------------------------------------------------------


def format_function(f: SampledFunction) -> str:
    _operands(SampledFunction, f)
    head = f"start {fmt_float(f.start)} step {fmt_float(f.step)} convention {f.convention}"
    return "\n".join([head, *_fmt_cells(f.values).tolist()]) + "\n"


def _function_header(ln: int, head: str):
    """(start, step, convention) of the stripped header line head, file line ln."""
    parts = head.split()
    if len(parts) != 6 or parts[0] != "start" or parts[2] != "step" or parts[4] != "convention":
        raise FileFormatError(f"line {ln}: bad function header {head!r}")
    start, step = _tokens(ln, parse_float, (parts[1], parts[3]))
    if parts[5] not in _SPECS:
        raise FileFormatError(f"line {ln}: unknown convention {parts[5]!r}")
    return start, step, parts[5]


# The characters of a clean body.  Its lines hold no whitespace, so each is
# one field for np.loadtxt and one token for np.fromstring, and a token spelt
# with these reads to the same double in both, or fails in both.  An
# allow-list also shuts out the other line breaks and blanks of str.strip and
# str.splitlines ('\x1c'-'\x1f', '\x85', '\u2028').
_BLOCK_CHARS = b"0123456789.eE+-inf\n"


def _block(body: str):
    """The samples of a clean body, one a line, as one float array read by
    a single np.fromstring call; None if the body is not clean, or numpy
    does not read it to its end, or reads a NaN, or reads fewer values than
    the body has lines (a blank line gives no value)."""
    if not body.isascii() or body.encode().translate(None, _BLOCK_CHARS):
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x only warns where the body is not read to its end
            warnings.simplefilter("error", DeprecationWarning)
            vals = np.fromstring(body, sep="\n")
    except (ValueError, DeprecationWarning):
        return None
    lines = body.count("\n") + (body[-1:] != "\n")
    return vals if vals.size == lines and _no_nan(vals) else None


def parse_function(text: str) -> SampledFunction:
    """A function file: the header line, then one sample a line.

    A file whose first line is its header and whose body is clean is read
    by _block; every other file, and every body _block does not read, by
    _read, which alone writes the message naming the file line at fault."""
    raw, _, body = text.partition("\n")
    head = raw.strip()
    if raw.isascii() and raw.isprintable() and head[:1] not in ("", "#"):
        start, step, convention = _function_header(1, head)
        vals = _block(body)
        if vals is not None:
            return SampledFunction(start, step, vals, convention)
    lns, lines = _data_lines(text)
    if not lines:
        raise FileFormatError("function file is empty")
    start, step, convention = _function_header(lns[0], lines[0])
    if len(lines) == 1:
        raise FileFormatError("function file has no samples")

    def fault(line):
        return f"not a number: {line!r}" if len(line.split()) != 1 else _token_fault(line, float)

    vals = _read(lns[1:], lines[1:], np.dtype(float), fault, lambda a: a.shape[1] == 1 and _no_nan(a))
    return SampledFunction(start, step, vals[:, 0], convention)


# --- path helpers -----------------------------------------------------------------


def read_text(path) -> str:
    """The UTF-8 text of the file at path, its CR LF and CR line ends read
    as LF (as text mode reads them); FileFormatError names the offset of the
    first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"byte {e.start}: not UTF-8 ({e.reason})") from None
    # CPython finds one character by memchr, a two-character string far slower
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
