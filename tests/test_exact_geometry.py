"""The planar hull and the corner locus on scaled integers, against the
Fraction oracles in helpers: the same bytes, the same values, the same types.
"""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import fraction_hull_2d, fraction_tropical_curve_2d, segment_1d
from hypothesis import given, settings
from hypothesis import strategies as st

from tropikit import (
    DegenerateInput,
    DomainError,
    GenPolynomial,
    Polytope,
    newton_set,
    tropical_curve_2d,
)
from tropikit import cli
from tropikit.fileio import fmt_frac, format_curve, parse_poly


def lattice_points(rng, k, lo, hi):
    side = hi - lo + 1
    flat = rng.choice(side * side, k, replace=False)
    return [(int(f // side) + lo, int(f % side) + lo) for f in flat]


def bench_like_terms(rng, k):
    """k distinct lattice exponents on [0, 10]^2, constants p/q with q in 1..4."""
    pts = lattice_points(rng, k, 0, 10)
    return [(Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 5))), d) for d in pts]


def fields(piece):
    return (*piece.base, *piece.direction, piece.t0, piece.t1)


def assert_same_curve(terms):
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        curve = tropical_curve_2d(terms)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        ref = fraction_tropical_curve_2d(terms)
    assert [w.category for w in got] == [w.category for w in want]
    assert format_curve(curve) == format_curve(ref)
    assert curve == ref
    for p, q in zip(curve.pieces, ref.pieces):
        assert [type(v) for v in fields(p)] == [type(v) for v in fields(q)]
    return curve


def assert_same_hull(points):
    verts = Polytope(2, points).vertices
    ref = fraction_hull_2d([tuple(Fraction(c) for c in p) for p in points])
    assert verts == tuple(ref)
    assert all(type(c) is Fraction for v in verts for c in v)
    return verts


# --- the corner locus ------------------------------------------------------------


def test_curve_is_bitwise_the_fraction_scan_on_bench_like_polynomials():
    rng = np.random.default_rng(70)
    for _ in range(20):
        assert_same_curve(bench_like_terms(rng, int(rng.integers(8, 25))))


def test_curve_with_mixed_exponent_denominators():
    rng = np.random.default_rng(71)
    for _ in range(150):
        k = int(rng.integers(2, 9))
        terms = [(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                  tuple(Fraction(int(rng.integers(-12, 13)), int(rng.choice([1, 2, 3, 5, 7])))
                        for _ in range(2)))
                 for _ in range(k)]
        assert_same_curve(terms)


def test_curve_with_numerators_beyond_int64():
    big = Fraction(10**30, 7)
    terms = [(big, (0, 0)), (-big, (Fraction(10**25 + 1, 3), 1)), (Fraction(1, 3), (2, 10**20)),
             (0, (Fraction(-(10**22), 11), Fraction(5, 2))), (big / 3, (1, 1))]
    curve = assert_same_curve(terms)
    assert any(abs(c.numerator) > 2**63 for p in curve.pieces for c in p.base)


def test_curve_with_all_exponents_collinear():
    rng = np.random.default_rng(72)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        ts = rng.choice(np.arange(-8, 9), k, replace=False)
        terms = [(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))),
                  (Fraction(int(t), 2), Fraction(int(3 * t - 1), 2))) for t in ts]
        curve = assert_same_curve(terms)
        assert all(p.t0 == -np.inf and p.t1 == np.inf for p in curve.pieces)


def test_curve_with_all_constants_tied():
    rng = np.random.default_rng(73)
    for _ in range(30):
        k = int(rng.integers(3, 16))
        assert_same_curve([(Fraction(5, 3), d) for d in lattice_points(rng, k, -4, 4)])


def test_third_term_tied_on_an_edge_keeps_the_overlapping_pieces():
    # (1, 1) lies on the edge from (2, 0) to (0, 2) with a tied constant, so
    # the scan emits the ray x = y >= 0 from three different pairs
    curve = assert_same_curve([(0, (0, 0)), (0, (2, 0)), (0, (0, 2)), (0, (1, 1))])
    rays = [fields(p) for p in curve.pieces if p.direction == (1, 1)]
    assert len(rays) == 3 and len(set(rays)) == 1
    assert_same_curve([(0, (1, 0)), (0, (0, 1)), (0, (0, 0)), (0, (Fraction(1, 2), Fraction(1, 2)))])


def test_repeated_exponents_warn_once_and_match_the_fraction_scan():
    terms = [(0, (1, 0)), (-5, (1, 0)), (Fraction(7, 2), (0, 1)), (3, ("0", "1")), (0, (0, 0))]
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        tropical_curve_2d(terms)
    assert [w.category for w in got] == [DegenerateInput]
    assert_same_curve(terms)


def test_sixty_term_curve_is_fast_and_bitwise_the_fraction_scan():
    rng = np.random.default_rng(74)
    terms = bench_like_terms(rng, 60)
    t = time.perf_counter()
    curve = tropical_curve_2d(terms)
    assert time.perf_counter() - t < 1.0
    assert format_curve(curve) == format_curve(fraction_tropical_curve_2d(terms))


# --- the planar hull -------------------------------------------------------------


def test_hull_is_bitwise_the_fraction_chain_on_point_clouds():
    rng = np.random.default_rng(75)
    for _ in range(200):
        k = int(rng.integers(1, 40))
        pts = [tuple(Fraction(int(v), int(rng.choice([1, 1, 2, 3, 4]))) for v in rng.integers(-9, 10, 2))
               for _ in range(k)]
        pts += [pts[int(i)] for i in rng.integers(0, k, int(rng.integers(0, 5)))]  # duplicates
        assert_same_hull(pts)


def test_hull_of_degenerate_clouds():
    assert assert_same_hull([(3, "1/2")]) == ((Fraction(3), Fraction(1, 2)),)
    assert len(assert_same_hull([(1, 1)] * 5)) == 1
    assert len(assert_same_hull([(t, 2 * t - 1) for t in range(-6, 7)] * 2)) == 2
    assert len(assert_same_hull([(Fraction(t, 3), 4) for t in (5, -2, 7, 0)])) == 2
    assert len(assert_same_hull([(0, 0), (4, 0), (0, 4), (4, 4), (2, 0), (2, 2), (0, 4)])) == 4
    big = 10**30
    assert_same_hull([(Fraction(big, 7), 0), (0, Fraction(big, 3)), (-big, -1), (1, 1)])


# every coordinate form the readers take: ints, Fractions, "p/q" strings, floats
_COORD = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 6)),
    st.integers(-64, 64).map(lambda k: k / 8),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 4))
    # one set in two on a 3 x 3 lattice, where collinear points are common
    coord = draw(st.sampled_from([_COORD, st.integers(0, 2)]))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=9))
    repeats = draw(st.lists(st.sampled_from(pts), max_size=4))
    return n, draw(st.permutations(pts + repeats))


def per_dimension_vertices(n, points):
    """Polytope vertices as each dimension computed them on Fractions before
    every dimension read its points into scaled integers."""
    if n == 1:
        return segment_1d(points)
    fracs = [tuple(Fraction(c) for c in p) for p in points]
    return tuple(fraction_hull_2d(fracs) if n == 2 else sorted(set(fracs)))


@settings(max_examples=400, deadline=None)
@given(point_sets())
def test_every_dimension_is_the_per_dimension_fraction_result(case):
    n, points = case
    P = Polytope(n, points)
    want = per_dimension_vertices(n, points)
    assert P.vertices == want
    assert all(type(c) is Fraction for v in P.vertices for c in v)
    assert P.reduced == (n <= 2)
    assert repr(P) == f"Polytope({n}, {want!r}, reduced={n <= 2})"


def test_newton_set_of_twenty_thousand_points_is_fast_and_bitwise_the_fraction_chain():
    pts = lattice_points(np.random.default_rng(76), 20000, -500, 500)
    f = GenPolynomial(2, tuple((1.0, p) for p in pts))
    t = time.perf_counter()
    P = newton_set(f)
    assert time.perf_counter() - t < 1.0
    assert P.vertices == tuple(fraction_hull_2d([d for _, d in f.terms]))


# --- integers from the file to the hull ------------------------------------------


def poly_text(coeffs, pts):
    return "n 2\n" + "".join(f"{c} {x} {y}\n" for c, (x, y) in zip(coeffs, pts))


def test_integers_stay_ints_until_the_output():
    n, terms = parse_poly("n 2\n3 0 1\n-2 4 0\n1/2 1 1\n5 2 2\n0.5 3 1\n")
    assert [type(c) for c, _ in terms] == [int, int, Fraction, int, Fraction]
    assert all(type(e) is int for _, d in terms for e in d)
    f = GenPolynomial(n, tuple(terms))
    assert all(type(e) is int for _, d in f.terms for e in d)
    # equal and hash-equal to the same polynomial read as Fractions
    g = GenPolynomial(n, tuple((c, tuple(map(Fraction, d))) for c, d in terms))
    assert f == g and hash(f) == hash(g)
    mixed = GenPolynomial(2, ((1.0, (1, Fraction(1, 2))), (2.0, ("3", "2/4"))))
    assert [tuple(map(type, d)) for _, d in mixed.terms] == [(int, Fraction)] * 2
    assert all(type(c) is Fraction for v in newton_set(f).vertices for c in v)
    for p in tropical_curve_2d(terms).pieces:
        assert [type(v) for v in (*p.base, *p.direction)] == [Fraction, Fraction, int, int]
        assert type(p.t0) is Fraction or p.t0 == -np.inf
        assert type(p.t1) is Fraction or p.t1 == np.inf


def test_an_integer_file_builds_fractions_only_for_the_vertices(monkeypatch):
    rng = np.random.default_rng(78)
    text = poly_text(rng.integers(1, 10, 500) * rng.choice([-1, 1], 500),
                     lattice_points(rng, 500, -60, 60))
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    n, terms = parse_poly(text)
    P = newton_set(GenPolynomial(n, tuple(terms)))
    monkeypatch.undo()
    assert len(P.vertices) > 2 and len(built) == 2 * len(P.vertices)


@pytest.mark.parametrize("seed,size", [(80, 200), (81, 900), (82, 2000)])
def test_newton_cli_on_an_integer_file_is_the_fraction_chain(tmp_path, capsys, seed, size):
    rng = np.random.default_rng(seed)
    pts = lattice_points(rng, size, -60, 60)
    path = tmp_path / "p.poly"
    path.write_text(poly_text(rng.integers(1, 10, size) * rng.choice([-1, 1], size), pts))
    assert cli.main(["newton", "--poly", str(path)]) == 0
    hull = fraction_hull_2d([tuple(map(Fraction, p)) for p in pts])
    want = "; ".join(" ".join(fmt_frac(c) for c in v) for v in hull) + "\n"
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("seed,integer_constants", [(83, False), (84, False), (85, True), (86, True)])
def test_tropcurve_cli_on_a_lattice_file_is_the_fraction_scan(tmp_path, capsys, seed,
                                                              integer_constants):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(8, 25))
    pts = lattice_points(rng, k, 0, 10)
    coeffs = [f"{p}" if integer_constants else f"{p}/{q}"
              for p, q in zip(rng.integers(-30, 31, k), rng.integers(1, 5, k))]
    path = tmp_path / "p.poly"
    path.write_text(poly_text(coeffs, pts))
    assert cli.main(["tropcurve", "--poly", str(path)]) == 0
    want = format_curve(fraction_tropical_curve_2d([(Fraction(c), d) for c, d in zip(coeffs, pts)]))
    assert capsys.readouterr() == (want, "")


# --- typed failures ----------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: tropical_curve_2d([(float("inf"), (1, 0)), (0, (0, 1))]),
    lambda: tropical_curve_2d([(float("nan"), (1, 0)), (0, (0, 1))]),
    lambda: tropical_curve_2d([(0, (1, float("-inf"))), (0, (0, 1))]),
    lambda: tropical_curve_2d([("1/0", (1, 0)), (0, (0, 1))]),
    lambda: GenPolynomial(1, ((1.0, (float("inf"),)),)),
    lambda: GenPolynomial(2, ((1.0, (0, float("nan"))),)),
    lambda: GenPolynomial(1, ((10**400, (1,)),)),
    lambda: GenPolynomial(1, (("one", (1,)),)),
    lambda: Polytope(2, [(float("inf"), 0)]),
    lambda: Polytope(1, [(float("-inf"),)]),
    lambda: Polytope(3, [(0, 0, float("nan"))]),
], ids=["curve-inf-constant", "curve-nan-constant", "curve-inf-exponent", "curve-zero-denominator",
        "poly-inf-exponent", "poly-nan-exponent", "poly-huge-coefficient", "poly-text-coefficient",
        "polytope-2d-inf", "polytope-1d-inf", "polytope-3d-nan"])
def test_unreadable_numbers_are_a_domain_error(make):
    with pytest.raises(DomainError):
        make()
