import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from helpers import per_sample_amoeba_line_sample, point_to_ray_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from tropikit import (
    DegenerateInput,
    DomainError,
    OutOfMemory,
    amoeba_line_sample,
    log_h,
    tropical_curve_2d,
)

INF = float("inf")


def eval_terms(terms, x):
    return [c + d[0] * x[0] + d[1] * x[1] for c, d in terms]


def check_corner_locus(curve, terms, n_params=100):
    """Every sampled point lies where the top two term values tie exactly."""
    terms = [(Fraction(c), tuple(Fraction(e) for e in d)) for c, d in terms]
    for piece in curve.pieces:
        lo = piece.t0 if piece.t0 != -INF else Fraction(-50)
        hi = piece.t1 if piece.t1 != INF else lo + 100
        for j in range(n_params):
            t = lo + (hi - lo) * Fraction(j, n_params - 1)
            vals = sorted(eval_terms(terms, piece.point(t)), reverse=True)
            assert vals[0] == vals[1]


def test_tripod_frozen_geometry():
    # max(x, y, 0): three rays from the origin
    curve = tropical_curve_2d([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])
    got = [(p.base, p.direction, p.t0, p.t1) for p in curve.pieces]
    O = (Fraction(0), Fraction(0))
    assert got == [
        (O, (-1, 0), 0, INF),
        (O, (0, -1), 0, INF),
        (O, (1, 1), 0, INF),
    ]
    check_corner_locus(curve, [(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])


def test_tripod_shifted_vertex():
    # max(x + 1, y, 0) moves the vertex to (-1, 0)
    terms = [(1, (1, 0)), (0, (0, 1)), (0, (0, 0))]
    curve = tropical_curve_2d(terms)
    assert len(curve.pieces) == 3
    V = (Fraction(-1), Fraction(0))
    assert all(p.base == V for p in curve.pieces)
    assert sorted(p.direction for p in curve.pieces) == [(-1, 0), (0, -1), (1, 1)]
    check_corner_locus(curve, terms)


def test_two_terms_full_line():
    curve = tropical_curve_2d([(0, (1, 0)), (0, (0, 1))])
    assert len(curve.pieces) == 1
    p = curve.pieces[0]
    assert (p.t0, p.t1) == (-INF, INF)
    assert p.base == (Fraction(0), Fraction(0))
    assert p.direction == (1, 1)  # lex-positive representative
    check_corner_locus(curve, [(0, (1, 0)), (0, (0, 1))])


def test_full_line_base_is_perpendicular_foot():
    # max(x + 3, y): tie line x - y = -3, foot of perpendicular at (-3/2, 3/2)
    curve = tropical_curve_2d([(3, (1, 0)), (0, (0, 1))])
    p = curve.pieces[0]
    assert p.base == (Fraction(-3, 2), Fraction(3, 2))
    assert p.direction == (1, 1)
    assert p.base[0] * p.direction[0] + p.base[1] * p.direction[1] == 0


def test_bounded_edge_appears():
    # a conic-like support set gives a segment between two vertices
    terms = [(0, (0, 0)), (0, (1, 0)), (0, (0, 1)), (-1, (1, 1))]
    curve = tropical_curve_2d(terms)
    check_corner_locus(curve, terms)
    segs = [p for p in curve.pieces if p.t0 == 0 and p.t1 != INF]
    assert len(segs) == 1
    seg = segs[0]
    ends = {seg.point(seg.t0), seg.point(seg.t1)}
    assert ends == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    rays = [p for p in curve.pieces if p.t1 == INF]
    assert len(rays) == 4


def test_rational_coefficients_are_exact():
    terms = [(Fraction(1, 3), (1, 0)), (Fraction(-1, 7), (0, 1)), (0, (0, 0))]
    curve = tropical_curve_2d(terms)
    check_corner_locus(curve, terms)
    for p in curve.pieces:
        assert all(isinstance(b, Fraction) for b in p.base)
        assert all(isinstance(d, int) for d in p.direction)
        g = math.gcd(abs(p.direction[0]), abs(p.direction[1]))
        assert g == 1


def test_duplicate_exponents_warn_and_combine():
    with pytest.warns(DegenerateInput):
        curve = tropical_curve_2d(
            [(0, (1, 0)), (-5, (1, 0)), (0, (0, 1)), (0, (0, 0))]
        )
    ref = tropical_curve_2d([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])
    assert curve == ref


def test_dominated_term_leaves_no_pieces_of_its_own():
    # x + y ties with nothing on a region: max(x, y, x/2 + y/2 - 10) locus
    # only keeps the x = y line; the third term never reaches the top
    terms = [(0, (1, 0)), (0, (0, 1)), (-10, (Fraction(1, 2), Fraction(1, 2)))]
    curve = tropical_curve_2d(terms)
    assert len(curve.pieces) == 1
    assert (curve.pieces[0].t0, curve.pieces[0].t1) == (-INF, INF)
    check_corner_locus(curve, terms)


def test_needs_two_terms():
    with pytest.raises(DomainError):
        tropical_curve_2d([(0, (1, 0))])
    with pytest.raises(DomainError):
        tropical_curve_2d(iter([(0, (1, 0))]))


def test_random_curves_satisfy_tie_invariant():
    rng = np.random.default_rng(51)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        seen = set()
        terms = []
        while len(terms) < k:
            d = tuple(int(v) for v in rng.integers(-3, 4, 2))
            if d in seen:
                continue
            seen.add(d)
            terms.append((int(rng.integers(-4, 5)), d))
        curve = tropical_curve_2d(terms)
        check_corner_locus(curve, terms, n_params=40)


def test_determinism():
    terms = [(0, (0, 0)), (0, (1, 0)), (0, (0, 1)), (-1, (1, 1))]
    assert tropical_curve_2d(terms) == tropical_curve_2d(list(reversed(terms)))


# --- amoebas ----------------------------------------------------------------


def test_log_h_spot_values():
    assert log_h((1.0, 1.0), 1.0) == (0.0, 0.0)
    x, y = log_h((-0.5, -0.5), 1.0)
    assert x == y == -math.log(2.0)
    assert log_h((math.e,), 0.5) == (0.5,)
    with pytest.raises(DomainError):
        log_h((0.0,), 1.0)
    with pytest.raises(DomainError):
        log_h((1.0,), 0.0)


def test_amoeba_sample_shape_and_grid():
    pts = amoeba_line_sample(1.0, 256)
    assert pts.shape == (256, 2)
    assert np.all(np.isfinite(pts))
    pts2 = amoeba_line_sample(1.0, 256)
    assert np.array_equal(pts, pts2)


def test_amoeba_samples_lie_on_the_line_image():
    # each point must be (h ln|t|, h ln|1+t|) for some t: check the second
    # coordinate is consistent with a solution of |x + y + 1| = 0 sized by h
    for h in (1.0, 0.1):
        pts = amoeba_line_sample(h, 100)
        for x, y in pts:
            r1, r2 = math.exp(x / h), math.exp(y / h)
            # |t| = r1 and |1 + t| = r2 solvable iff triangle inequality holds
            assert r2 <= r1 + 1.0 + 1e-9
            assert r2 >= abs(r1 - 1.0) - 1e-9


def test_amoeba_avoids_punctures():
    # grid radii satisfy |ln|t|| >= 3/n_r > 0, so t never hits 0 or -1
    pts = amoeba_line_sample(1.0, 300)
    assert pts.shape == (300, 2)
    assert np.all(np.isfinite(pts))


def test_amoeba_contracts_to_tropical_line():
    spine = [(1, 1), (-1, 0), (0, -1)]

    def max_dist(h):
        pts = amoeba_line_sample(h, 400)
        return max(min(point_to_ray_distance(p, d) for d in spine) for p in pts)

    d1, d01 = max_dist(1.0), max_dist(0.1)
    assert d01 < d1
    # the deviation scales like h (exactly: the point set scales by h)
    assert d01 == pytest.approx(0.1 * d1, rel=1e-9)
    assert d1 <= math.log(2.0) + 1e-12


def test_amoeba_input_validation():
    with pytest.raises(DomainError):
        amoeba_line_sample(-1.0, 10)
    with pytest.raises(DomainError):
        amoeba_line_sample(1.0, 0)


@pytest.mark.parametrize("samples", [10**30, 2**62])
def test_amoeba_beyond_numpy_largest_array_is_out_of_memory(samples):
    # numpy refuses these sizes before it allocates anything
    with pytest.raises(OutOfMemory, match=f"^{samples} samples are too many to allocate$"):
        amoeba_line_sample(1.0, samples)


@pytest.mark.parametrize("z", [(math.nan,), (complex(math.inf, 0),), (1.0, complex(0, -math.inf)),
                               ("x",), (10**400,), (None,)],
                         ids=["nan", "inf-complex", "imaginary-inf", "text", "huge-int", "none"])
def test_log_h_refuses_what_is_no_finite_complex_number(z):
    with pytest.raises(DomainError):
        log_h(z, 1.0)


def test_log_h_zero_coordinate_keeps_its_message():
    with pytest.raises(DomainError, match="^log image undefined at a zero coordinate$"):
        log_h((1.0, 0j), 1.0)


@pytest.mark.parametrize("h", [2, 1, 0.5, 0.25, 0.1, 1e-3])
def test_amoeba_is_bitwise_the_per_sample_loop(h):
    for samples in [*range(1, 300), 2000, 3001, 4096, 7999, 8000]:
        got, want = amoeba_line_sample(h, samples), per_sample_amoeba_line_sample(h, samples)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), samples


def test_log_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^log_h: h\*ln\|z\| overflows float64$"):
        log_h((math.exp(3.0),), 1e308)
    with pytest.raises(DomainError, match=r"^amoeba_line_sample: h\*ln\|z\| overflows float64$"):
        amoeba_line_sample(1e308, 256)


_H_LOG_UNIFORM = st.floats(math.log(5e-324), math.log(1.7e308)).map(math.exp).filter(lambda h: h > 0)


@settings(max_examples=300, deadline=None)
@given(_H_LOG_UNIFORM | st.just(1e308), st.integers(1, 300),
       st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False).filter(bool),
                min_size=1, max_size=3))
def test_log_images_are_finite_or_a_domain_error(h, samples, z):
    # h*ln|z| as the per-point float expression, or DomainError exactly when
    # that expression leaves float64; never a warning
    def per_point(zi):
        try:
            return h * math.log(abs(zi))  # a Python float product overflows to inf
        except OverflowError:  # |zi| itself is beyond float64
            return math.inf

    with np.errstate(over="ignore"):
        want_amoeba = h * per_sample_amoeba_line_sample(1.0, samples)
    want_log = np.array([per_point(complex(c)) for c in z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args, want in ((amoeba_line_sample, (h, samples), want_amoeba),
                              (log_h, (z, h), want_log)):
            try:
                got = np.asarray(f(*args))
            except DomainError:
                assert not np.isfinite(want).all()
                continue
            assert np.isfinite(got).all()
            assert got.tobytes() == want.tobytes()
