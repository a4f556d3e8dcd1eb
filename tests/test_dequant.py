import math
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from helpers import is_canonical_polytope_2d, point_in_polytope_2d, segment_1d
from hypothesis import given, settings
from hypothesis import strategies as st

from tropikit import (
    AmbiguousLimit,
    CancellationAtPoint,
    CurvePiece,
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    GenPolynomial,
    Polytope,
    TropicalCurve,
    TropikitError,
    amoeba_line_sample,
    dequantize_limit,
    eval_dequantized,
    log_h,
    newton_set,
    tropical_curve_2d,
    poly_add,
    poly_mul,
    polytope_add,
    polytope_mul,
)


def positive_poly(rng, n, max_terms=6, span=4):
    k = int(rng.integers(1, max_terms + 1))
    seen = set()
    terms = []
    while len(terms) < k:
        d = tuple(int(v) for v in rng.integers(-span, span + 1, n))
        if d in seen:
            continue
        seen.add(d)
        terms.append((float(rng.uniform(0.1, 10.0)), d))
    return GenPolynomial(n, tuple(terms))


# --- polynomials --------------------------------------------------------------


def test_genpolynomial_validation():
    with pytest.raises(DomainError):
        GenPolynomial(1, ((0.0, (1,)),))
    with pytest.raises(DomainError):
        GenPolynomial(1, ((1.0, (1,)), (2.0, (1,))))
    with pytest.raises(DimensionMismatch):
        GenPolynomial(2, ((1.0, (1,)),))
    f = GenPolynomial(2, ((1.0, ("1/2", 0)), (-2.0, (0, 3))))
    assert f.terms[0][1] == (Fraction(1, 2), Fraction(0))
    assert not f.positive


def test_poly_arithmetic_combines_like_terms():
    f = GenPolynomial(1, ((2.0, (1,)),))
    g = GenPolynomial(1, ((3.0, (1,)), (1.0, (0,))))
    s = poly_add(f, g)
    assert s.terms == ((1.0, (Fraction(0),)), (5.0, (Fraction(1),)))
    p = poly_mul(g, g)
    assert p.terms == ((1.0, (Fraction(0),)), (6.0, (Fraction(1),)), (9.0, (Fraction(2),)))
    with pytest.raises(DomainError):
        poly_add(f, GenPolynomial(1, ((-2.0, (1,)),)))


# --- dequantized evaluation -----------------------------------------------------


def test_eval_dequantized_monomial():
    f = GenPolynomial(1, ((5.0, (2,)),))
    assert abs(eval_dequantized(f, (3.0,), 0.5) - (6.0 + 0.5 * math.log(5.0))) < 1e-12


def test_eval_dequantized_three_terms_at_origin():
    f = GenPolynomial(2, ((1.0, (1, 0)), (1.0, (0, 1)), (1.0, (0, 0))))
    assert abs(eval_dequantized(f, (0.0, 0.0), 1.0) - math.log(3.0)) < 1e-15


def test_eval_dequantized_no_overflow_for_tiny_h():
    f = GenPolynomial(1, ((2.0, (1,)), (3.0, (0,))))
    v = eval_dequantized(f, (1000.0,), 1e-4)
    assert abs(v - (1000.0 + 1e-4 * math.log(2.0))) < 1e-12


def test_eval_dequantized_exact_cancellation_warns():
    f = GenPolynomial(2, ((1.0, (1, 0)), (-1.0, (0, 1))))
    with pytest.warns(CancellationAtPoint):
        v = eval_dequantized(f, (2.0, 2.0), 0.5)
    assert v == float("-inf")


@pytest.mark.parametrize("x", [("1/2",), (10**400,), ("x",), (None,)],
                         ids=["fraction-text", "huge-int", "text", "none"])
def test_unreadable_points_are_a_domain_error(x):
    f = GenPolynomial(1, ((1.0, (1,)),))
    with pytest.raises(DomainError, match="^cannot read evaluation point"):
        eval_dequantized(f, x, 1.0)
    with pytest.raises(DomainError, match="^cannot read evaluation point"):
        dequantize_limit(f, x)


@pytest.mark.parametrize("call", [
    lambda: log_h((10**400,), 1.0),
    lambda: log_h((10**5000,), 1.0),  # past the digits repr will print
    lambda: log_h((math.inf,) * 100, 1.0),
    lambda: GenPolynomial(1, ((Fraction(10**400), (1,)),)),
    lambda: GenPolynomial(1, ((1.0, (1,)), (2.0, (Fraction(1, 3**300),)), (3.0, (Fraction(1, 3**300),)))),
    lambda: Polytope(1, [("x" * 1000,)]),
    lambda: Polytope(2, 10**400),
    lambda: eval_dequantized(GenPolynomial(1, ((1.0, (1,)),)), ("x" * 5000,), 1.0),
    lambda: amoeba_line_sample(10**5000, 10),
    lambda: amoeba_line_sample(1.0, -(10**400)),
], ids=["log-huge-int", "log-unprintable-int", "log-long-point", "coefficient",
        "repeated-exponent", "polytope-point", "polytope-points", "eval-point", "h", "samples"])
def test_long_values_are_cut_in_error_messages(call):
    with pytest.raises(DomainError) as e:
        call()
    assert len(str(e.value)) <= 120 and ("..." in str(e.value) or "too long" in str(e.value))


@pytest.mark.parametrize("call,want", [
    (lambda: Polytope("2", [(0, 0)]), "n must be an integer >= 1, got '2'"),
    (lambda: Polytope(True, [(0,)]), "n must be an integer >= 1, got True"),
    (lambda: Polytope(1.5, [(0,)]), "n must be an integer >= 1, got 1.5"),
    (lambda: Polytope(0, [(0,)]), "n must be an integer >= 1, got 0"),
    (lambda: Polytope(2, None), "points must be iterable, got None"),
    (lambda: Polytope(2, 7), "points must be iterable, got 7"),
    (lambda: GenPolynomial("1", ((1.0, (1,)),)), "n must be an integer >= 1, got '1'"),
    (lambda: GenPolynomial(False, ((1.0, (1,)),)), "n must be an integer >= 1, got False"),
    (lambda: GenPolynomial(1, None), "terms must be iterable, got None"),
    (lambda: GenPolynomial(1, (1.0,)), "a term is a (coefficient, exponents) pair, got 1.0"),
    (lambda: GenPolynomial(1, ((1.0, (1,), 2),)),
     "a term is a (coefficient, exponents) pair, got (1.0, (1,), 2)"),
], ids=["polytope-n-text", "polytope-n-bool", "polytope-n-fraction", "polytope-n-zero",
        "points-none", "points-int", "poly-n-text", "poly-n-bool", "terms-none", "term-float",
        "term-triple"])
def test_dimensions_and_lists_are_typed(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as e:
            call()
    assert str(e.value) == want


def test_integral_dimensions_are_read_as_int():
    for n in (2, 2.0, np.int64(2)):
        P = Polytope(n, [(0, 0), (1, 0)])
        assert type(P.n) is int and repr(P).startswith("Polytope(2, ")
        assert type(GenPolynomial(n, ((1.0, (1, 0)),)).n) is int


def test_exponent_text_with_a_huge_decimal_exponent_is_refused_at_once():
    # the bound of the file readers: Fraction would form 10**99999999 exactly
    start = time.perf_counter()
    with pytest.raises(DomainError) as e:
        GenPolynomial(1, ((1.0, ("1e99999999",)),))
    assert time.perf_counter() - start < 0.5
    assert str(e.value) == "cannot read ('1e99999999',) as a rational vector"
    assert GenPolynomial(1, ((1.0, ("1e-4300",)),)).terms[0][1] == (Fraction(1, 10**4300),)


def test_decimal_exponents_share_the_text_bound():
    # a Decimal is read through its exact text, so the one bound covers it
    start = time.perf_counter()
    with pytest.raises(DomainError, match="as a rational vector"):
        GenPolynomial(1, ((1.0, (Decimal("1e999999"),)),))
    assert time.perf_counter() - start < 0.5
    assert GenPolynomial(1, ((1.0, (Decimal("1.50"),)),)).terms[0][1] == (Fraction(3, 2),)
    for bad in ("NaN", "-Infinity", "sNaN"):
        with pytest.raises(DomainError):
            GenPolynomial(1, ((1.0, (Decimal(bad),)),))


def test_overflowing_dot_products_are_a_domain_error():
    # (10**300, -10**300) . (1e300, 1e300) is inf - inf in float64
    f = GenPolynomial(2, ((1.0, (10**300, -10**300)), (1.0, (0, 0))))
    with pytest.raises(DomainError):
        dequantize_limit(f, (1e300, 1e300))
    with pytest.raises(DomainError):
        eval_dequantized(f, (1e300, 1e300), 1.0)
    g = GenPolynomial(1, ((1.0, (10**400,)),))  # an exponent beyond float64
    with pytest.raises(DomainError, match="overflows? float64"):
        dequantize_limit(g, (0.0,))
    with pytest.raises(DomainError, match="overflows? float64"):
        eval_dequantized(g, (0.0,), 1.0)
    # h*ln(1e308) at h = 1e308 is beyond float64
    with pytest.raises(DomainError, match="overflows? float64"):
        eval_dequantized(GenPolynomial(1, ((1e308, (0,)),)), (0.0,), 1e308)


def test_terms_far_below_the_maximum_vanish_without_warning():
    # s = (5e307, -1.5e308): s_2 - M is below -float max, so its term is 0
    f = GenPolynomial(2, ((1.0, (Fraction(1, 2), 0)), (1.0, (Fraction(-3, 2), 0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_dequantized(f, (1e308, 0), 1.0) == 5e307


def test_eval_dequantized_input_checks():
    f = GenPolynomial(1, ((1.0, (1,)),))
    with pytest.raises(DomainError):
        eval_dequantized(f, (1.0,), 0.0)
    with pytest.raises(DomainError):
        eval_dequantized(f, (math.inf,), 1.0)
    with pytest.raises(DimensionMismatch):
        eval_dequantized(f, (1.0, 2.0), 1.0)


def test_eval_dequantized_rejects_overflowing_exponents():
    f = GenPolynomial(1, ((1.0, (1,)), (1.0, (0,))))
    with pytest.raises(DomainError):
        eval_dequantized(f, (1e300,), 1e-10)  # x/h overflows to inf
    with pytest.raises(DomainError):
        eval_dequantized(f, (1.0,), 1e-320)  # 1/h overflows to inf
    # a non-leading exponent at -inf contributes exp(-inf) = 0 exactly
    assert eval_dequantized(f, (-1e300,), 1e-10) == 0.0


def test_dequantize_limit_is_support_maximum():
    f = GenPolynomial(2, ((1.0, (1, 0)), (1.0, (0, 1)), (1.0, (0, 0))))
    assert dequantize_limit(f, (2.0, 1.0)) == 2.0
    assert dequantize_limit(f, (-1.0, -2.0)) == 0.0
    # ties are fine when every coefficient is positive
    assert dequantize_limit(f, (0.0, 0.0)) == 0.0


def test_dequantize_limit_constant_is_zero():
    c = GenPolynomial(1, ((7.5, (0,)),))
    assert dequantize_limit(c, (3.0,)) == 0.0
    assert eval_dequantized(c, (3.0,), 0.25) == 0.25 * math.log(7.5)


def test_dequantize_limit_ambiguity():
    f = GenPolynomial(2, ((1.0, (1, 0)), (-1.0, (0, 1))))
    with pytest.raises(AmbiguousLimit):
        dequantize_limit(f, (1.0, 1.0))
    # unique leading term decides even with mixed signs
    assert dequantize_limit(f, (2.0, 1.0)) == 2.0


def test_uniform_convergence_bound():
    rng = np.random.default_rng(31)
    for _ in range(25):
        f = positive_poly(rng, 2)
        T = len(f.terms)
        bound_scale = math.log(T) + max(abs(math.log(abs(c))) for c, _ in f.terms)
        x = tuple(rng.uniform(-3, 3, 2))
        lim = dequantize_limit(f, x)
        h = 1.0
        prev_err = None
        for _ in range(11):
            err = abs(eval_dequantized(f, x, h) - lim)
            assert err <= h * bound_scale + 1e-12
            prev_err = err
            h /= 2.0


def test_homomorphism_properties_at_fixed_h():
    rng = np.random.default_rng(32)
    for _ in range(30):
        f = positive_poly(rng, 2)
        g = positive_poly(rng, 2)
        x = tuple(rng.uniform(-2, 2, 2))
        for h in (1.0, 0.25, 0.05):
            lhs = eval_dequantized(poly_mul(f, g), x, h)
            rhs = eval_dequantized(f, x, h) + eval_dequantized(g, x, h)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_limit_of_sum_is_max_of_limits():
    rng = np.random.default_rng(33)
    for _ in range(50):
        f = positive_poly(rng, 2)
        g = positive_poly(rng, 2)
        x = tuple(rng.uniform(-2, 2, 2))
        assert dequantize_limit(poly_add(f, g), x) == max(
            dequantize_limit(f, x), dequantize_limit(g, x)
        )
        assert dequantize_limit(poly_mul(f, g), x) == pytest.approx(
            dequantize_limit(f, x) + dequantize_limit(g, x), abs=1e-9
        )


def test_limit_is_sublinear():
    rng = np.random.default_rng(34)
    f = positive_poly(rng, 2)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        y = rng.uniform(-2, 2, 2)
        c = float(rng.uniform(0, 3))
        fx = dequantize_limit(f, tuple(x))
        assert dequantize_limit(f, tuple(c * x)) == pytest.approx(c * fx, abs=1e-9)
        assert dequantize_limit(f, tuple(x + y)) <= (
            fx + dequantize_limit(f, tuple(y)) + 1e-12
        )


# --- polytopes -------------------------------------------------------------------


def test_newton_set_triangle():
    f = GenPolynomial(2, ((1.0, (0, 0)), (1.0, (2, 1)), (1.0, (1, 2))))
    P = newton_set(f)
    assert P.reduced
    assert P.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(1)),
        (Fraction(1), Fraction(2)),
    )


def test_newton_set_drops_interior_and_collinear_points():
    f = GenPolynomial(
        2,
        (
            (1.0, (0, 0)),
            (1.0, (4, 0)),
            (1.0, (0, 4)),
            (1.0, (1, 1)),  # interior
            (1.0, (2, 0)),  # edge-interior
        ),
    )
    P = newton_set(f)
    assert P.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(4), Fraction(0)),
        (Fraction(0), Fraction(4)),
    )


def test_newton_set_one_dimensional_degree():
    n = 7
    f = GenPolynomial(1, tuple((1.0, (k,)) for k in range(n + 1)))
    P = newton_set(f)
    assert P.vertices == ((Fraction(0),), (Fraction(n),))
    Q = polytope_mul(P, P)
    assert Q.vertices == ((Fraction(0),), (Fraction(2 * n),))


def test_polytope_canonical_form_properties():
    rng = np.random.default_rng(41)
    for _ in range(120):
        pts = [tuple(int(v) for v in rng.integers(-6, 7, 2)) for _ in range(int(rng.integers(1, 9)))]
        P = Polytope(2, pts)
        assert is_canonical_polytope_2d(P.vertices)
        assert set(P.vertices) <= {tuple(Fraction(c) for c in p) for p in pts}
        for p in pts:
            assert point_in_polytope_2d(p, P.vertices)


def test_polytope_rational_vertices():
    P = Polytope(2, [("1/2", "1/3"), (2, 0), ("1/2", 3)])
    assert all(isinstance(c, Fraction) for v in P.vertices for c in v)


@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
)
def test_minkowski_sum_matches_pairwise_oracle(pa, pb):
    P, Q = Polytope(2, pa), Polytope(2, pb)
    R = polytope_mul(P, Q)
    sums = [tuple(a + b for a, b in zip(p, q)) for p in pa for q in pb]
    sums = [tuple(Fraction(c) for c in s) for s in sums]
    # hull(sums) == R, shown by mutual containment plus canonical shape
    assert is_canonical_polytope_2d(R.vertices)
    for s in sums:
        assert point_in_polytope_2d(s, R.vertices)
    assert set(R.vertices) <= set(sums)


@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=7),
)
def test_polytope_add_is_hull_of_union(pa, pb):
    P, Q = Polytope(2, pa), Polytope(2, pb)
    R = polytope_add(P, Q)
    union = [tuple(Fraction(c) for c in p) for p in pa + pb]
    assert is_canonical_polytope_2d(R.vertices)
    for p in union:
        assert point_in_polytope_2d(p, R.vertices)
    assert set(R.vertices) <= set(union)
    assert polytope_add(P, P) == P  # idempotent


def test_polytope_semiring_distributivity():
    rng = np.random.default_rng(43)
    for _ in range(40):
        mk = lambda: Polytope(2, [tuple(int(v) for v in rng.integers(-4, 5, 2))
                                  for _ in range(int(rng.integers(1, 6)))])
        P, Q, R = mk(), mk(), mk()
        assert polytope_mul(P, polytope_add(Q, R)) == polytope_add(
            polytope_mul(P, Q), polytope_mul(P, R)
        )
        assert polytope_mul(P, Q) == polytope_mul(Q, P)
        assert polytope_add(P, Q) == polytope_add(Q, P)


def test_newton_homomorphism_2d():
    rng = np.random.default_rng(44)
    for _ in range(60):
        f = positive_poly(rng, 2)
        g = positive_poly(rng, 2)
        assert newton_set(poly_mul(f, g)) == polytope_mul(newton_set(f), newton_set(g))
        assert newton_set(poly_add(f, g)) == polytope_add(newton_set(f), newton_set(g))


def test_newton_homomorphism_1d():
    rng = np.random.default_rng(45)
    for _ in range(40):
        f = positive_poly(rng, 1)
        g = positive_poly(rng, 1)
        assert newton_set(poly_mul(f, g)) == polytope_mul(newton_set(f), newton_set(g))
        assert newton_set(poly_add(f, g)) == polytope_add(newton_set(f), newton_set(g))
        assert newton_set(f).vertices == segment_1d(f.exponents())


def test_subdifferential_laws():
    # the Newton set is the subdifferential at 0 of max_i (d_i, x):
    # sums of the sublinear functions go to Minkowski sums, maxima to hulls
    rng = np.random.default_rng(46)
    for _ in range(30):
        V1 = {tuple(int(v) for v in rng.integers(-4, 5, 2)) for _ in range(4)}
        V2 = {tuple(int(v) for v in rng.integers(-4, 5, 2)) for _ in range(4)}
        p1 = GenPolynomial(2, tuple((1.0, d) for d in V1))
        p2 = GenPolynomial(2, tuple((1.0, d) for d in V2))
        sub1, sub2 = newton_set(p1), newton_set(p2)
        # p1 + p2 pointwise is the product polynomial's limit
        assert newton_set(poly_mul(p1, p2)) == polytope_mul(sub1, sub2)
        # max(p1, p2) pointwise is the sum polynomial's limit
        assert newton_set(poly_add(p1, p2)) == polytope_add(sub1, sub2)
        # and the sublinear functionals are recovered as support functions
        for _ in range(10):
            x = tuple(Fraction(int(v)) for v in rng.integers(-3, 4, 2))
            support = sub1.support(x)
            direct = max(d[0] * x[0] + d[1] * x[1] for d in V1)
            assert support == direct


def test_high_dimensional_unreduced_path():
    f = GenPolynomial(3, ((1.0, (1, 0, 0)), (1.0, (0, 1, 0)), (1.0, (0, 0, 1))))
    P = newton_set(f)
    assert not P.reduced
    g = GenPolynomial(3, ((1.0, (2, 0, 0)), (1.0, (0, 2, 0)), (1.0, (0, 0, 2))))
    # support-function equality certificate in 3-D
    assert newton_set(poly_mul(f, g)) == polytope_mul(P, newton_set(g))
    assert newton_set(poly_add(f, g)) == polytope_add(P, newton_set(g))


def test_reduced_is_derived_from_the_dimension():
    assert [Polytope(n, [(0,) * n]).reduced for n in (1, 2, 3, 4)] == [True, True, False, False]
    with pytest.raises(TypeError):
        Polytope(2, [(0, 0)], reduced=False)
    with pytest.raises(AttributeError):
        Polytope(3, [(0, 0, 0)]).reduced = True


def test_polytope_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        polytope_add(Polytope(1, [(0,)]), Polytope(2, [(0, 0)]))


# --- typed failures ---------------------------------------------------------------

# every value the readers must refuse or survive: zeros, infinities, NaN, the
# float64 extremes, ints beyond float64 and beyond repr, and text that is no number
_EDGE = st.sampled_from([0, 0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
                         10**400, -(10**400), 10**5000, "x", "x" * 500, "", "1/0", "nan",
                         "1/2", None])
_VALUE = _EDGE | st.integers(-3, 3) | st.floats(-4.0, 4.0)


def _has_nan(r):
    if isinstance(r, float):
        return math.isnan(r)
    if isinstance(r, Polytope):
        return _has_nan(r.vertices)
    if isinstance(r, TropicalCurve):
        return _has_nan(r.pieces)
    if isinstance(r, CurvePiece):
        return _has_nan((r.base, r.direction, r.t0, r.t1))
    if isinstance(r, (tuple, list)):
        return any(_has_nan(v) for v in r)
    return False


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 2), st.data())
def test_dequant_returns_clean_results_or_typed_errors(n, data):
    # each public reader either returns a result with no NaN or raises a
    # TropikitError; no other exception and no warning but the two domain ones.
    # log_h and the limit are finite where defined, eval_dequantized is finite
    # or -inf (exact cancellation); each h-reader also runs at h = 1
    def vec(k):
        return st.lists(_VALUE, min_size=k, max_size=k).map(tuple)

    terms = data.draw(st.lists(st.tuples(_VALUE, vec(n)), min_size=1, max_size=4))
    curve = data.draw(st.lists(st.tuples(_VALUE, vec(2)), min_size=2, max_size=4))
    x, h = data.draw(vec(n)), data.draw(_VALUE)
    z = data.draw(st.lists(_VALUE, min_size=1, max_size=3))

    def poly():
        return GenPolynomial(n, tuple(terms))

    def below_inf(v):
        return v < math.inf

    calls = [
        (lambda: log_h(z, h), math.isfinite),
        (lambda: log_h(z, 1.0), math.isfinite),
        (lambda: eval_dequantized(poly(), x, h), below_inf),
        (lambda: eval_dequantized(poly(), x, 1.0), below_inf),
        (lambda: dequantize_limit(poly(), x), math.isfinite),
        (lambda: newton_set(poly()), None),
        (lambda: Polytope(n, [d for _, d in terms]), None),
        (lambda: tropical_curve_2d(curve), None),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", CancellationAtPoint)
        warnings.simplefilter("ignore", DegenerateInput)
        for call, ok in calls:
            try:
                result = call()
            except TropikitError as e:
                assert len(str(e)) <= 200  # long values are cut
                continue
            assert not _has_nan(result)
            assert ok is None or all(map(ok, np.ravel(result).tolist()))
