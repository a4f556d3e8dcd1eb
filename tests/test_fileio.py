import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    loadtxt_float_rows,
    per_entry_parse_interval_matrix,
    per_token_edges,
    per_token_float_rows,
    per_token_function_samples,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tropikit import (
    DomainError,
    FileFormatError,
    Graph,
    IntervalMatrix,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    SampledFunction,
    SemiringMatrix,
    TropicalCurve,
    TropikitError,
    adjacency_matrix,
    get_semiring,
    interval_adjacency,
    tropical_curve_2d,
)
from tropikit.fileio import (
    _data_lines,
    _float_rows,
    _token_fault,
    _tokenized,
    fmt_float,
    fmt_frac,
    format_curve,
    format_function,
    format_interval_matrix,
    format_matrix,
    format_points,
    parse_curve,
    parse_float,
    parse_frac,
    parse_function,
    parse_graph,
    parse_interval_graph,
    parse_interval_matrix,
    parse_matrix,
    parse_points,
    parse_poly,
)

INF = math.inf


def test_float_tokens_round_trip():
    for x in (0.0, -0.0, 1.0 / 3.0, 1e-300, -1.7976931348623157e308, INF, -INF):
        assert parse_float(fmt_float(x)) == x
    assert fmt_float(INF) == "inf"
    assert fmt_float(-0.5) == "-0.5"
    with pytest.raises(FileFormatError):
        parse_float("abc")
    with pytest.raises(FileFormatError):
        parse_float("nan")


def test_frac_tokens():
    assert fmt_frac(Fraction(0)) == "0/1"
    assert fmt_frac(Fraction(-3, 6)) == "-1/2"
    assert parse_frac("7/2") == Fraction(7, 2)
    with pytest.raises(FileFormatError):
        parse_frac("1/0")
    with pytest.raises(FileFormatError):
        parse_frac("x")


def test_parse_graph():
    g = parse_graph("# comment\nn 3\n\n0 1 2.5\n1 2 -1\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 2.5), (1, 2, -1.0))
    with pytest.raises(FileFormatError):
        parse_graph("n 2\n0 1\n")
    with pytest.raises(FileFormatError):
        parse_graph("m 2\n")
    with pytest.raises(FileFormatError):
        parse_graph("")
    with pytest.raises(FileFormatError):
        parse_graph("n 2\n0 x 1.0\n")


def test_parse_interval_graph():
    n, edges = parse_interval_graph("n 2\n0 1 1 3\n")
    assert n == 2 and edges.tolist() == [(0, 1, 1.0, 3.0)]
    assert edges.dtype.names == ("src", "dst", "wmin", "wmax")
    with pytest.raises(FileFormatError):
        parse_interval_graph("n 2\n0 1 3 1\n")
    with pytest.raises(FileFormatError):
        parse_interval_graph("n 2\n0 1 1\n")


def test_matrix_round_trip():
    M = SemiringMatrix([[INF, 1.0], [2.0, INF]], MINPLUS)
    text = format_matrix(M)
    assert text == "inf\t1\n2\tinf\n"
    assert parse_matrix(text, MINPLUS) == M
    with pytest.raises(FileFormatError):
        parse_matrix("1\t2\n3\n", MINPLUS)
    with pytest.raises(FileFormatError):
        parse_matrix("", MINPLUS)


def test_matrix_value_precision_survives():
    rng = np.random.default_rng(71)
    A = rng.standard_normal((4, 5)) * 1e3
    M = SemiringMatrix(A, MAXPLUS)
    assert parse_matrix(format_matrix(M), MAXPLUS) == M


def test_interval_matrix_round_trip():
    X = interval_adjacency(2, [(0, 1, 1.0, 3.0)])
    text = format_interval_matrix(X)
    got = parse_interval_matrix(text, MINPLUS)
    assert got.lower == X.lower and got.upper == X.upper
    with pytest.raises(FileFormatError):
        parse_interval_matrix("1 2 3\n", MINPLUS)  # odd token count


_TOKENS = ["0", "-0.0", "1.5", "-2.25", "7", "1e308", "-1e308", "inf", "-inf"]


@pytest.mark.parametrize("spec", [MINPLUS, MAXPLUS, MAXMIN], ids=lambda s: s.name)
def test_parse_interval_matrix_is_bitwise_the_per_entry_oracle(spec):
    rng = np.random.default_rng(43)
    outcomes = set()
    for _ in range(400):
        rows, cols = (int(k) for k in rng.integers(1, 5, 2))
        cells = rng.choice(_TOKENS, (rows, 2 * cols)).tolist()
        if rng.random() < 0.1:
            cells[rng.integers(rows)][rng.integers(2 * cols)] = "nan"
        if rng.random() < 0.1:
            cells[rng.integers(rows)].pop()  # an odd or ragged row
        lines = ["\t".join(row) for row in cells]
        lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "# note"]))
        text = "\n".join(lines) + "\n"
        try:
            want = per_entry_parse_interval_matrix(text, spec)
        except ValueError:
            with pytest.raises(FileFormatError):
                parse_interval_matrix(text, spec)
            outcomes.add("malformed")
            continue
        except TropikitError as e:
            with pytest.raises(TropikitError) as got:
                parse_interval_matrix(text, spec)
            assert type(got.value) is type(e)
            outcomes.add(type(e).__name__)
            continue
        got = parse_interval_matrix(text, spec)
        assert got.lower.data.tobytes() == want.lower.data.tobytes()
        assert got.upper.data.tobytes() == want.upper.data.tobytes()
        outcomes.add("equal")
    assert outcomes == {"equal", "malformed"} | ({"DomainError"} if spec is not MAXMIN else set())


def test_parse_poly():
    n, terms = parse_poly("n 2\n# c dx dy\n1/1 0/1 0/1\n5/2 2/1 1/1\n")
    assert n == 2
    assert terms == [
        (Fraction(1), (Fraction(0), Fraction(0))),
        (Fraction(5, 2), (Fraction(2), Fraction(1))),
    ]
    with pytest.raises(FileFormatError):
        parse_poly("n 2\n1/1 0/1\n")
    with pytest.raises(FileFormatError):
        parse_poly("n 1\n")


def test_curve_round_trip():
    curve = tropical_curve_2d([(0, (0, 0)), (0, (1, 0)), (0, (0, 1)), (-1, (1, 1))])
    text = format_curve(curve)
    assert text.splitlines()[0] == "base_x,base_y,dir_x,dir_y,t0,t1"
    got = parse_curve(text)
    assert got == curve
    # exact rationals and infinities survive the trip
    for p, q in zip(got.pieces, curve.pieces):
        assert p.base == q.base and type(p.base[0]) is Fraction
        assert p.direction == q.direction
        assert (p.t0, p.t1) == (q.t0, q.t1)


def test_curve_parse_errors():
    with pytest.raises(FileFormatError):
        parse_curve("x,y\n0/1,0/1\n")
    with pytest.raises(FileFormatError):
        parse_curve("base_x,base_y,dir_x,dir_y,t0,t1\n0/1,0/1,1/2,1/1,0/1,inf\n")
    with pytest.raises(FileFormatError):
        parse_curve("base_x,base_y,dir_x,dir_y,t0,t1\n0/1,0/1,1/1\n")


_HEADER = "base_x,base_y,dir_x,dir_y,t0,t1\n"


@pytest.mark.parametrize("parse,text,tok", [
    (parse_poly, "n 1\n1 1e99999999\n", "1e99999999"),
    (parse_poly, "n 1\n1E-99999999 1\n", "1E-99999999"),
    (parse_poly, "n 1\n1 1e4301\n", "1e4301"),
    (parse_curve, _HEADER + "1e99999999,0/1,1/1,1/1,0/1,inf\n", "1e99999999"),
    (parse_curve, _HEADER + "0/1,0/1,1/1,1/1,0/1,1.5e+99_999_999\n", "1.5e+99_999_999"),
], ids=["poly-exponent", "poly-negative-coefficient", "poly-one-past", "curve-base", "curve-t1"])
def test_rational_with_a_huge_decimal_exponent_is_refused_at_once(parse, text, tok):
    # Fraction would form 10**99999999 exactly, which takes seconds
    start = time.perf_counter()
    with pytest.raises(FileFormatError) as e:
        parse(text)
    assert time.perf_counter() - start < 0.5
    assert str(e.value) == f"not a rational: {tok!r}"


def test_rational_exponents_read_up_to_the_bound():
    _, terms = parse_poly("n 1\n1e400 1e-4300\n")
    assert terms == [(Fraction(10**400), (Fraction(1, 10**4300),))]
    assert parse_curve(_HEADER + "0/1,0/1,1/1,1/1,0/1,2e4300\n").pieces[0].t1 == 2 * 10**4300


def test_points_round_trip():
    pts = np.array([[0.5, -1.25], [1e-17, 3.0]])
    text = format_points(pts)
    assert text.splitlines()[0] == "x,y"
    assert np.array_equal(parse_points(text), pts)
    with pytest.raises(FileFormatError):
        parse_points("x,y\n1.0\n")
    with pytest.raises(FileFormatError):
        parse_points("a,b\n1.0,2.0\n")


def test_function_round_trip():
    f = SampledFunction(-1.0, 0.125, np.array([0.0, -INF, 2.5]), "maxplus")
    text = format_function(f)
    assert text.splitlines()[0] == "start -1 step 0.125 convention maxplus"
    assert parse_function(text) == f
    g = SampledFunction(0.0, 0.5, np.array([INF, 1.0]), "minplus")
    assert parse_function(format_function(g)) == g


def test_function_parse_errors():
    with pytest.raises(FileFormatError):
        parse_function("start 0 step 1 convention avg\n0\n")
    with pytest.raises(FileFormatError):
        parse_function("start 0 step 1\n0\n")
    with pytest.raises(FileFormatError):
        parse_function("start 0 step 1 convention maxplus\n")


def test_writers_match_per_element_fmt_float():
    # the writers %-format Python floats; each token must be the fmt_float
    # of the numpy element it replaces
    vals = [INF, -INF, -0.0, 5e-324, 2.2250738585072009e-308, 0.1, 1.0 / 3.0,
            -1.7976931348623157e308, 123456789.12345678, 1e-300]
    rng = np.random.default_rng(72)

    def table(rows, sep):
        return "\n".join(sep.join(fmt_float(v) for v in row) for row in rows) + "\n"

    grid = rng.permutation(vals * 3).reshape(5, 6)
    M = SemiringMatrix(grid, get_semiring("maxmin"))
    assert format_matrix(M) == table(M.data, "\t")

    lo, hi = np.sort(rng.permutation(vals * 2).reshape(2, 2, 5), axis=0)
    lo, hi = np.where(lo == -INF, 0.0, lo), np.where(hi == -INF, 0.0, hi)
    X = IntervalMatrix.from_arrays(hi, lo, MINPLUS)  # minplus: upper is the smaller
    nlo, nhi = X.numeric_bounds()
    pairs = [[v for j in range(nlo.shape[1]) for v in (nlo[i, j], nhi[i, j])]
             for i in range(nlo.shape[0])]
    assert format_interval_matrix(X) == table(pairs, "\t")

    pts = np.array(vals).reshape(5, 2)
    assert format_points(pts) == "x,y\n" + table(pts, ",")

    f = SampledFunction(-1.0, 0.125, np.array([v for v in vals if v != INF]), "maxplus")
    head = "start -1 step 0.125 convention maxplus\n"
    assert format_function(f) == head + table(f.values[:, None], "")


# --- the array reader against the per-token reader it replaced ------------------

_FORMATS = ("%.17g", "%.6g", "%.25e")
_SPECIAL_TOKENS = ("inf", "-inf", "1e308", "-1e308", "5e-324", "-2.2250738585072009e-308")
_float_tokens = st.one_of(
    st.builds(str.__mod__, st.sampled_from(_FORMATS), st.floats(allow_nan=False)),
    st.builds(str.__mod__, st.sampled_from(_FORMATS),
              st.floats(-2.3e-308, 2.3e-308, allow_nan=False)),  # subnormals
    st.sampled_from(_SPECIAL_TOKENS),
)
# a line the file may hold before a data line: nothing, a blank or a comment
_filler = st.lists(st.sampled_from(["", "   ", "\t", "# note", "  #  1 2 3", "#"]), max_size=2)
# each a fault of a data line: a NaN, a token numpy cannot read, an inline comment
_BAD_TOKENS = ("nan", "NaN", "-nan", "x", "1.5.2", "#", "1e")


@st.composite
def _number_file(draw, lines, head=()):
    """A file of head, then the token rows lines, with blanks and comments
    before any of them, and maybe one fault."""
    rows = [list(r) for r in lines]
    if rows and draw(st.booleans()) and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i])))
        if draw(st.booleans()):
            rows[i].insert(j, draw(st.sampled_from(_BAD_TOKENS)))  # also a ragged row
        elif len(rows[i]) > 1:
            rows[i].pop(j - 1)
    out = list(head)
    for row in rows:
        out += draw(_filler)
        out.append(draw(st.sampled_from([" ", "\t", "  \t "])).join(row))
    out += draw(_filler)
    return "\n".join(out) + draw(st.sampled_from(["\n", ""]))


def _same_fault(text, want_line, reader, *args):
    event("malformed")
    with pytest.raises(FileFormatError) as got:
        reader(text, *args)
    if want_line is not None:
        assert str(got.value).startswith(f"line {want_line}: ")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_rows_is_bitwise_the_per_token_reader(data):
    cols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(_float_tokens, min_size=cols, max_size=cols), min_size=1, max_size=6))
    text = data.draw(_number_file(rows))
    try:
        want = per_token_float_rows(text)
    except ValueError as e:
        return _same_fault(text, e.args[0], _float_rows, "matrix")
    got = _float_rows(text, "matrix")
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# --- the line tokenizer against the single np.loadtxt call -----------------------

_SPELLINGS = (
    "inf", "-inf", "+inf", "Inf", "-INF", "Infinity", "-infinity", "iNfInItY",
    "nan", "-nan", "NaN", "nan(1)", "1e400", "-1e400", "1.5e-400", "4.9e-324", "-0",
    "1_0", "0x10", "0x1p3", "1d5", "\uff11", "\uff12.5", "\u0661", "1e", "x", "#", "1,2", "--1",
    "infinf", "1-2",
)
_grammar_tokens = st.one_of(
    st.builds("".join, st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["0", "7", "12", "007", "1.5", ".5", "5.", "3.25"]),
        st.sampled_from(["", "e3", "E-2", "e+10", "e308", "e400", "e-400"]))),
    st.sampled_from(_SPELLINGS),
    st.floats(allow_nan=False).map(repr),
)


@st.composite
def _token_row(draw, width):
    """width tokens: all drawn from the grammar if narrow, else a row of one
    infinity with a few drawn ones; maybe one token more, one less, or only
    the first (which numpy would broadcast over a row)."""
    if width <= 3:
        toks = draw(st.lists(_grammar_tokens, min_size=width, max_size=width))
    else:
        toks = [draw(st.sampled_from(["inf", "-inf"]))] * width
        for j, tok in draw(st.lists(st.tuples(st.integers(0, width - 1), _grammar_tokens), max_size=4)):
            toks[j] = tok
    ragged = draw(st.sampled_from([0, 0, 0, 1, -1, 1 - width]))
    toks = toks + [draw(_grammar_tokens)] if ragged > 0 else toks[:len(toks) + ragged] or toks
    lead, tail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", "  ", "\t"]))
    return lead + draw(st.sampled_from([" ", "\t", "  ", " \t  "])).join(toks) + tail


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_rows_is_the_single_loadtxt_reader(data):
    # same dtype, shape and bytes, or the same message, as the one np.loadtxt
    # call; and the line tokenizer alone reads a file only as that call does
    width = data.draw(st.sampled_from([1, 2, 3, 49, 64]))
    out = []
    for row in data.draw(st.lists(_token_row(width), min_size=1, max_size=4)):
        out += data.draw(_filler) + [row]
    text = "\n".join(out + data.draw(_filler)) + "\n"
    lines = _data_lines(text)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _tokenized(lines, len(lines[0].split())) if lines else None
        try:
            want = loadtxt_float_rows(text, "matrix")
        except FileFormatError as e:
            event("malformed")
            with pytest.raises(FileFormatError) as got:
                _float_rows(text, "matrix")
            assert str(got.value) == str(e)
            assert fast is None
            return
        got = _float_rows(text, "matrix")
    event("tokenized" if fast is not None else "not tokenized")
    for arr in (got, fast if fast is not None else got):
        assert (arr.dtype, arr.shape, arr.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_wide_rows_of_infinities_are_read_without_loadtxt(monkeypatch):
    def loadtxt(*args, **kw):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    row = ["inf"] * 48 + ["-inf"] * 12 + ["1", "2.5", "-3", "1e3"]
    got = _float_rows("# sparse\n" + "\n".join("\t".join(row) for _ in range(3)) + "\n", "matrix")
    assert got.shape == (3, 64) and got[0, -1] == 1e3
    # narrow rows, rows of mostly numbers, a row the tokenizer does not read,
    # and a row of one entry, which numpy would broadcast over the row
    for text in ("inf inf\ninf 1\n", " ".join(["1"] * 64) + "\n",
                 " ".join(row) + "\n" + " ".join(row[:-1] + ["x"]) + "\n",
                 " ".join(row) + "\ninf\n"):
        with pytest.raises(AssertionError, match="np.loadtxt called"):
            _float_rows(text, "matrix")


# --- every reader: a NaN-free result or a typed failure ------------------------

_HEADS = (
    "n 3", "n 0", "n -1", "n 2.5", "n 1e3", "n x", "n",
    "start 0 step 1 convention maxplus", "start -1.5 step 0.25 convention minplus",
    "start 1e400 step 1 convention maxplus", "start 0 step 0 convention maxplus",
    "start nan step 1 convention minplus", "start 0 step -1e308 convention maxplus",
    "x,y", "base_x,base_y,dir_x,dir_y,t0,t1",
)
_NUMBERS = ("0", "1", "-3", "2.5", "inf", "-inf", "1e3", "1e400")
_RATIONALS = ("0", "1", "2", "1/2", "-3")
# per reader: its header (None: it has none), field separator, fields a
# line, and the tokens of a well-formed field
_LAYOUTS = {
    "matrix": (None, " ", 3, _NUMBERS),
    "interval-matrix": (None, " ", 4, _NUMBERS),
    "function": ("start 0 step 1 convention minplus", " ", 1, _NUMBERS),
    "graph": ("n 3", " ", 3, ("0", "1", "2")),
    "interval-graph": ("n 3", " ", 4, ("0", "1", "2")),
    "poly": ("n 2", " ", 3, _RATIONALS),
    "points": ("x,y", ",", 2, _NUMBERS),
    "curve": ("base_x,base_y,dir_x,dir_y,t0,t1", ",", 6, _RATIONALS + ("inf",)),
}
_ODD_FIELDS = _grammar_tokens | st.sampled_from(["3/0", "", "1/2/3", "1e400", "-1e400"])


def _nan_free(x) -> bool:
    """No NaN anywhere in a reader's result."""
    if isinstance(x, SemiringMatrix):
        return _nan_free(x.data)
    if isinstance(x, IntervalMatrix):
        return _nan_free(x.numeric_bounds())
    if isinstance(x, SampledFunction):
        return _nan_free((x.start, x.step, x.values))
    if isinstance(x, Graph):
        return _nan_free(x.w)
    if isinstance(x, TropicalCurve):
        return _nan_free([(p.base, p.direction, p.t0, p.t1) for p in x.pieces])
    if isinstance(x, np.ndarray):
        fields = [x[f] for f in x.dtype.names] if x.dtype.names else [x]
        return not any(f.dtype.kind == "f" and np.isnan(f).any() for f in fields)
    if isinstance(x, (tuple, list)):
        return all(map(_nan_free, x))
    return x == x


_READERS = {
    "matrix": lambda t: parse_matrix(t, MINPLUS),
    "interval-matrix": lambda t: parse_interval_matrix(t, MAXMIN),
    "function": parse_function,
    "graph": parse_graph,
    "interval-graph": parse_interval_graph,
    "poly": parse_poly,
    "points": parse_points,
    "curve": parse_curve,
}


@pytest.mark.parametrize("reader", list(_READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_return_nan_free_results_or_typed_errors(reader, data):
    # mostly the reader's own layout, with fields of its width or one off,
    # some of them bad; or a wide row of infinities for the line tokenizer
    head, sep, width, plain = _LAYOUTS[reader]
    good = st.lists(st.sampled_from(plain), min_size=width, max_size=width)
    fields = st.integers(max(1, width - 1), width + 1).flatmap(
        lambda k: st.lists(st.sampled_from(plain) | _ODD_FIELDS, min_size=k, max_size=k))
    line = st.one_of(good.map(sep.join), good.map(sep.join), good.map(sep.join),
                     fields.map(sep.join), _token_row(64), st.sampled_from(["", "# c"]))
    heads = [] if head is None else [data.draw(st.sampled_from([head, head, *_HEADS]))]
    text = "\n".join(heads + data.draw(st.lists(line, max_size=6))) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = _READERS[reader](text)
        except TropikitError as e:
            event(type(e).__name__)
            return
    event("read")
    assert _nan_free(got)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_function_is_bitwise_the_per_token_reader(data):
    tokens = _float_tokens.filter(lambda t: float(t) != INF)  # maxplus has no +inf
    samples = data.draw(st.lists(tokens.map(lambda t: [t]), max_size=8))
    head = ["# f", "start -1.5 step 0.25 convention maxplus"]
    text = data.draw(_number_file(samples, head))
    try:
        want = per_token_function_samples(text)
    except ValueError as e:
        return _same_fault(text, e.args[0], parse_function)
    got = parse_function(text)
    assert got.values.tobytes() == (want + 0.0).tobytes()
    assert (got.start, got.step, got.convention) == (-1.5, 0.25, "maxplus")


@pytest.mark.parametrize("weights", [1, 2], ids=["graph", "interval-graph"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_graph_readers_are_bitwise_the_per_token_reader(weights, data):
    n = data.draw(st.integers(1, 6))
    ids = st.integers(0, n - 1).map(str)
    finite = _float_tokens.filter(lambda t: math.isfinite(float(t)))
    if weights == 1:
        ws = finite.map(lambda t: [t])
    else:  # ordered bounds; infinite ones are the interval reader's to accept
        ws = st.lists(_float_tokens, min_size=2, max_size=2).map(
            lambda p: sorted(p, key=float))
    rows = data.draw(st.lists(st.builds(lambda s, d, w: [s, d, *w], ids, ids, ws), max_size=8))
    text = data.draw(_number_file(rows, ["n %d" % n]))
    parse = parse_graph if weights == 1 else parse_interval_graph
    try:
        n_want, edges = per_token_edges(text, weights)
    except ValueError as e:
        return _same_fault(text, e.args[0], parse)
    cols = np.array([e[2:] for e in edges], dtype=float).reshape(len(edges), weights)
    if weights == 1:
        g = parse(text)
        got_n, src, dst, got_w = g.n, g.src, g.dst, g.w[:, None]
    else:
        got_n, rec = parse(text)
        src, dst = rec["src"], rec["dst"]
        got_w = np.stack([rec["wmin"], rec["wmax"]], axis=1)
    assert got_n == n_want
    assert src.tolist() == [e[0] for e in edges] and dst.tolist() == [e[1] for e in edges]
    assert got_w.tobytes() == cols.tobytes()


# --- what the array reader settles differently, or keeps ------------------------


_AFTER_TWO_FILLERS = "# a comment\n\n"


@pytest.mark.parametrize("tok", ["1_000", "\u0661\u0662", "\uff11", "\u0663.5"])
def test_underscores_and_non_ascii_digits_are_rejected(tok):
    # float() and int() read all of these; the array reader reads ASCII only
    with pytest.raises(FileFormatError, match="^line 4: not a number"):
        parse_matrix(_AFTER_TWO_FILLERS + "1 2\n3 " + tok + "\n", MAXMIN)
    with pytest.raises(FileFormatError, match="^line 4: not a number"):
        parse_function("start 0 step 1 convention maxplus\n" + _AFTER_TWO_FILLERS + tok + "\n")
    with pytest.raises(FileFormatError, match="^line 4: bad integer"):
        parse_graph("n 3\n" + _AFTER_TWO_FILLERS + "0 " + tok + " 1.5\n")
    with pytest.raises(FileFormatError, match="^line 4: bad integer"):
        parse_interval_graph("n 3\n" + _AFTER_TWO_FILLERS + tok + " 0 1 2\n")
    with pytest.raises(FileFormatError, match="^line 3: bad count"):
        parse_graph(_AFTER_TWO_FILLERS + "n " + tok + "\n")
    with pytest.raises(FileFormatError, match="^not a number"):
        parse_float(tok)


@pytest.mark.parametrize("tok", ["nan", "NaN", "-nan", "NAN"])
def test_nan_is_rejected_with_its_line(tok):
    want = "^line 4: NaN is not a carrier value$"
    with pytest.raises(FileFormatError, match=want):
        parse_matrix(_AFTER_TWO_FILLERS + "1 2\n3 " + tok + "\n", MAXMIN)
    with pytest.raises(FileFormatError, match=want):
        parse_interval_matrix(_AFTER_TWO_FILLERS + "1 2\n" + tok + " 4\n", MAXMIN)
    with pytest.raises(FileFormatError, match=want):
        parse_function("start 0 step 1 convention maxplus\n" + _AFTER_TWO_FILLERS + tok + "\n")
    with pytest.raises(FileFormatError, match=want):
        parse_graph("n 3\n" + _AFTER_TWO_FILLERS + "0 1 " + tok + "\n")
    with pytest.raises(FileFormatError, match=want):
        parse_interval_graph("n 3\n" + _AFTER_TWO_FILLERS + "0 1 " + tok + " 2\n")
    with pytest.raises(FileFormatError, match="^NaN is not a carrier value$"):
        parse_float(tok)


def test_inline_comments_are_rejected_with_their_line():
    with pytest.raises(FileFormatError, match="^line 4: not a number: '#'$"):
        parse_matrix(_AFTER_TWO_FILLERS + "1 2\n3 1.5 # tail\n", MAXMIN)
    with pytest.raises(FileFormatError, match="^line 4: not a number: '1.5 # tail'$"):
        parse_function("start 0 step 1 convention maxplus\n" + _AFTER_TWO_FILLERS + "1.5 # tail\n")
    with pytest.raises(FileFormatError, match="^line 4: expected 'src dst weight'"):
        parse_graph("n 3\n" + _AFTER_TWO_FILLERS + "0 1 1.5 # tail\n")
    with pytest.raises(FileFormatError, match="^line 4: not a number: '#tail'$"):
        parse_interval_graph("n 3\n" + _AFTER_TWO_FILLERS + "0 1 1.5 #tail\n")


def test_every_fault_names_its_file_line():
    # blanks and comments before each faulty line; the message names the
    # line of the file, not the row of the data
    head = "# header comment\n\n"
    cases = [
        (lambda t: parse_matrix(t, MAXMIN), head + "1 2\n# c\n\n3\n", "line 6: ragged row (1 of 2 entries)"),
        (lambda t: parse_matrix(t, MAXMIN), head + "1 2\n\n3 4 5\n", "line 5: ragged row (3 of 2 entries)"),
        (lambda t: parse_matrix(t, MAXMIN), head + "1 2\n\n3 x\n", "line 5: not a number: 'x'"),
        (parse_graph, head + "n 3\n\n0 1 2\n# c\n0 1\n", "line 7: expected 'src dst weight', got '0 1'"),
        (parse_graph, head + "n 3\n0 1 2\n\n0 1.0 2\n", "line 6: bad integer '1.0'"),
        (parse_graph, head + "n 3\n\n0 1 x\n", "line 5: not a number: 'x'"),
        (parse_graph, head + "m 3\n", "line 3: expected 'n <count>', got 'm 3'"),
        (parse_interval_graph, head + "n 2\n0 1 1 2\n\n# c\n0 1 3 1\n",
         "line 7: wmin 3.0 exceeds wmax 1.0"),
        (parse_function, head + "start 0 step 1 convention maxplus\n1\n\n1 2\n",
         "line 6: not a number: '1 2'"),
        (parse_function, head + "start 0 step 1 convention avg\n1\n",
         "line 3: unknown convention 'avg'"),
    ]
    for parse, text, want in cases:
        with pytest.raises(FileFormatError) as got:
            parse(text)
        assert str(got.value) == want


def test_the_first_faulty_line_is_named():
    # a NaN before a ragged row, and a bad bound order before a bad token
    with pytest.raises(FileFormatError, match="^line 2: NaN"):
        parse_matrix("1 2\nnan 2\n3\n", MAXMIN)
    with pytest.raises(FileFormatError, match="^line 2: wmin"):
        parse_interval_graph("n 2\n0 1 3 1\n0 x 1 2\n")


def test_header_only_graph_is_edgeless():
    g = parse_graph("# no edges\nn 3\n\n")
    assert g.n == 3 and g.edges == () and g.src.dtype == np.int64
    assert adjacency_matrix(g).data.tolist() == [[INF] * 3] * 3
    n, edges = parse_interval_graph("n 2\n")
    assert n == 2 and len(edges) == 0
    assert interval_adjacency(n, edges).lower.data.tolist() == [[INF] * 2] * 2


def test_empty_numeric_files_are_rejected_without_a_warning():
    with pytest.raises(FileFormatError, match="no rows"):
        parse_matrix("# only a comment\n\n", MINPLUS)
    with pytest.raises(FileFormatError, match="no samples"):
        parse_function("start 0 step 1 convention maxplus\n# none\n")
    with pytest.raises(FileFormatError, match="header"):
        parse_graph("\n# nothing\n")


_NOT_INTEGERS = [
    (parse_graph, "n 2\n0 1.5 1\n", "line 2: bad integer '1.5'"),
    (parse_graph, "n 2\n0 -0.5 1\n", "line 2: bad integer '-0.5'"),
    (parse_graph, "n 2000\n1e3 0 1\n", "line 2: bad integer '1e3'"),
    (parse_graph, "n 2\n0 99999999999999999999 1\n", "line 2: bad integer '99999999999999999999'"),
    (parse_graph, "n 3.5\n", "line 1: bad count '3.5'"),
    (parse_interval_graph, "n 2\n# c\n0 1.5 1 2\n", "line 3: bad integer '1.5'"),
]


@pytest.mark.parametrize("parse,text,want", _NOT_INTEGERS)
def test_non_integer_ids_and_counts_are_rejected_with_warnings_ignored(parse, text, want):
    # the filters of a plain run, where a DeprecationWarning is not an error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(FileFormatError) as got:
            parse(text)
    assert str(got.value) == want


def test_an_int_via_float_warning_is_a_rejection(monkeypatch):
    # numpy releases with the int-via-float fallback return '1.5' as the
    # int 1 and only warn; the reader must reject the line all the same
    loadtxt = np.loadtxt

    def truncating_loadtxt(lines, dtype, **kw):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([line.replace("1.5", "1") for line in lines], dtype=dtype, **kw)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(FileFormatError, match=r"^line 2: bad integer '1\.5'$"):
            parse_graph("n 2\n0 1.5 1\n")


_TRICKY_TOKENS = [
    "+2", "-0", "007", "+-2", "0x10", "1e3", "1.0", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "inf", "-inf", "+inf", "Infinity", "INF",
    "nan", "-nan", "nan(1)", ".5", "5.", "1e", "1e400", "4.9e-324", "1e-400", "1_0", "1.5j",
    "1d5", "0x1p3", "\u0661", "\uff11",
]


@settings(max_examples=300, deadline=None)
@given(tok=st.sampled_from(_TRICKY_TOKENS) | st.text("0123456789+-.eEinfatyx_", min_size=1, max_size=6))
def test_token_check_is_numpys_grammar(tok):
    # the per-token check of the error path accepts exactly what the bulk
    # np.loadtxt call accepts, and reads NaN where numpy does
    for dtype in (np.int64, float):
        try:
            x = np.loadtxt([tok], dtype=dtype, comments=None)
        except ValueError:
            want = "bad integer" if dtype is np.int64 else "not a number"
        else:
            want = "NaN" if np.isnan(x) else None
        fault = _token_fault(tok, dtype)
        assert fault == want if want is None else fault.startswith(want)


def test_out_of_range_ids_are_a_domain_error_after_parsing():
    with pytest.raises(DomainError, match=r"edge \(0, 3\) out of range for 3 nodes"):
        parse_graph("n 3\n0 1 1\n0 3 1\n")
