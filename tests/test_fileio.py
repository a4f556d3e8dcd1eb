import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import per_entry_parse_interval_matrix

from tropikit import (
    FileFormatError,
    IntervalMatrix,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    SampledFunction,
    SemiringMatrix,
    TropikitError,
    get_semiring,
    interval_adjacency,
    tropical_curve_2d,
)
from tropikit.fileio import (
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
    assert n == 2 and edges == [(0, 1, 1.0, 3.0)]
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
