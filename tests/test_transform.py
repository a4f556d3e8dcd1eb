import itertools
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (brute_hopf_lax, brute_legendre, chain_upper_hull, dyadic, fold_convolution,
                     upper_concave_envelope)
from hypothesis import given, settings
from hypothesis import strategies as st

from tropikit import (
    DomainError,
    GridMismatch,
    TropikitError,
    SampledFunction,
    convolution,
    hopf_lax_evolve,
    idempotent_integral,
    integral_wrt_measure,
    legendre,
    pointwise_add,
    scalar_mul,
)
from tropikit.transform import _frame, _upper_hull

INF = math.inf
DELTA = 2.0 ** -52


def grid_fn(start, step, values, convention="maxplus"):
    return SampledFunction(start, step, np.asarray(values, dtype=float), convention)


# --- construction -------------------------------------------------------------


def test_sampled_function_validation():
    f = grid_fn(-1.0, 0.5, [0.0, 1.0, 2.0])
    assert len(f) == 3
    assert np.array_equal(f.grid(), [-1.0, -0.5, 0.0])
    with pytest.raises(DomainError):
        grid_fn(0.0, 0.0, [1.0])
    with pytest.raises(DomainError):
        grid_fn(0.0, 1.0, [])
    with pytest.raises(DomainError):
        grid_fn(0.0, 1.0, [np.nan])
    with pytest.raises(DomainError):
        grid_fn(0.0, 1.0, [INF])  # +inf is outside the max-plus carrier
    with pytest.raises(DomainError):
        grid_fn(0.0, 1.0, [-INF], convention="minplus")
    with pytest.raises(DomainError):
        grid_fn(0.0, 1.0, [0.0], convention="avg")
    assert grid_fn(0.0, 1.0, [-INF]).values[0] == -INF


def test_values_are_frozen():
    f = grid_fn(0.0, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


# --- integrals ---------------------------------------------------------------


def test_integral_is_extremum():
    assert idempotent_integral(grid_fn(0.0, 1.0, [1.0, 3.0, 2.0])) == 3.0
    assert idempotent_integral(grid_fn(0.0, 1.0, [1.0, 3.0, 2.0], "minplus")) == 1.0
    assert idempotent_integral(grid_fn(0.0, 1.0, [-INF, -INF])) == -INF


def test_integral_wrt_measure():
    phi = grid_fn(0.0, 1.0, [0.0, 5.0, 1.0])
    psi = grid_fn(0.0, 1.0, [2.0, -10.0, 3.0])
    assert integral_wrt_measure(phi, psi) == 4.0
    with pytest.raises(GridMismatch):
        integral_wrt_measure(phi, grid_fn(0.5, 1.0, [0.0, 0.0, 0.0]))
    with pytest.raises(GridMismatch):
        integral_wrt_measure(phi, grid_fn(0.0, 1.0, [0.0, 0.0, 0.0], "minplus"))


def test_scalar_mul_and_integral_overflow_is_a_domain_error():
    f = grid_fn(0.0, 1.0, [1e308])
    low = grid_fn(0.0, 1.0, [-1e308, -INF])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: scalar_mul(1e308, f), lambda: integral_wrt_measure(f, f),
                     # -1e308 + -1e308 would read as the zero -inf
                     lambda: scalar_mul(-1e308, low), lambda: integral_wrt_measure(low, low)):
            with pytest.raises(DomainError, match="overflows float64"):
                call()
        # an overflowing term that does not win is harmless, and the zero stays
        g = grid_fn(0.0, 1.0, [-1e308, 5.0, -INF])
        assert integral_wrt_measure(g, g) == 10.0
        assert list(scalar_mul(1.0, g).values) == [1.0 - 1e308, 6.0, -INF]


def test_integral_linearity_is_exact():
    # integral(a*phi (+) b*psi) = a*integral(phi) (+) b*integral(psi), bitwise
    rng = np.random.default_rng(61)
    for conv in ("maxplus", "minplus"):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            phi = grid_fn(-1.0, 0.25, dyadic(rng, n), conv)
            psi = grid_fn(-1.0, 0.25, dyadic(rng, n), conv)
            a, b = dyadic(rng), dyadic(rng)
            lhs = idempotent_integral(
                pointwise_add(scalar_mul(a, phi), scalar_mul(b, psi))
            )
            red = max if conv == "maxplus" else min
            rhs = red(a + idempotent_integral(phi), b + idempotent_integral(psi))
            assert lhs == rhs


# --- convolution ---------------------------------------------------------------


def test_convolution_worked_example():
    phi = grid_fn(0.0, 1.0, [0.0, 2.0])
    psi = grid_fn(0.0, 1.0, [1.0, 0.0, 5.0])
    out = convolution(phi, psi)
    assert out.start == 0.0 and out.step == 1.0 and len(out) == 4
    # out[k] = max(phi[i] + psi[k-i])
    assert list(out.values) == [1.0, 3.0, 5.0, 7.0]


def test_convolution_delta_is_neutral():
    rng = np.random.default_rng(62)
    for conv, zero in (("maxplus", -INF), ("minplus", INF)):
        values = dyadic(rng, 9)
        phi = grid_fn(-2.0, 0.5, values, conv)
        delta = grid_fn(0.0, 0.5, [0.0, zero], conv)
        out = convolution(phi, delta)
        assert out.start == phi.start and len(out) == 10
        assert np.array_equal(out.values[:9], values)
        assert out.values[9] == zero


def test_convolution_commutes_bitwise():
    rng = np.random.default_rng(63)
    for conv in ("maxplus", "minplus"):
        for _ in range(30):
            phi = grid_fn(dyadic(rng), 0.5, dyadic(rng, int(rng.integers(1, 12))), conv)
            psi = grid_fn(dyadic(rng), 0.5, dyadic(rng, int(rng.integers(1, 12))), conv)
            assert convolution(phi, psi) == convolution(psi, phi)


def test_convolution_matches_brute_force():
    rng = np.random.default_rng(64)
    for conv in ("maxplus", "minplus"):
        red = max if conv == "maxplus" else min
        for trial in range(26):
            if trial < 25:
                na, nb = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            else:  # a short operand folded over a long one
                na, nb = 300, 7
            a, b = dyadic(rng, na), dyadic(rng, nb)
            out = convolution(grid_fn(0.0, 1.0, a, conv), grid_fn(0.0, 1.0, b, conv))
            for k in range(na + nb - 1):
                want = red(
                    a[i] + b[k - i]
                    for i in range(max(0, k - nb + 1), min(na - 1, k) + 1)
                )
                assert out.values[k] == want


def assert_convolution_is_the_fold(phi, psi):
    """convolution(phi, psi) has the bits of the fold, or raises its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = fold_convolution(phi, psi)
        except DomainError as err:
            with pytest.raises(DomainError, match=re.escape(str(err))):
                convolution(phi, psi)
            return
        got = convolution(phi, psi)
    assert (got.start, got.step, got.convention) == (want.start, want.step, want.convention)
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


def bench_fn(rng, n, conv):
    """Samples like the benchmark's: x on 2**-6, values v * 2**-8, |v| <= 2**11."""
    return grid_fn(-(n // 2) / 64, 1 / 64, rng.integers(-(1 << 11), (1 << 11) + 1, n) / 256, conv)


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_is_bitwise_the_fold_on_bench_shaped_inputs(conv):
    rng = np.random.default_rng(65)
    for n, m in [(1000, 1000), (2500, 1800), (3000, 3000), (700, 4000), (200, 200)]:
        assert_convolution_is_the_fold(bench_fn(rng, n, conv), bench_fn(rng, m, conv))


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_is_bitwise_the_fold_on_arbitrary_floats(conv):
    # rounded sums, near-ties a few ulps apart, values far from 1
    rng = np.random.default_rng(70)
    for n, m in [(1200, 900), (2000, 2000)]:
        for draw in (rng.standard_normal, rng.random):
            scale = 10.0 ** rng.integers(-300, 300)
            phi = grid_fn(0.0, 0.1, draw(n) * scale, conv)
            psi = grid_fn(0.3, 0.1, draw(m) * scale, conv)
            assert_convolution_is_the_fold(phi, psi)
    # a few levels with their ties broken by an ulp or two: block values
    # that miss the threshold by an ulp, beaten by a pair outside the block
    for _ in range(12):
        n, m, levels = int(rng.integers(200, 600)), int(rng.integers(200, 600)), int(rng.integers(2, 64))
        phi, psi = (grid_fn(0.0, 0.5, rng.integers(0, levels, k) / 4 * (1.0 + rng.integers(0, 3, k) * 2.0**-52), conv)
                    for k in (n, m))
        assert_convolution_is_the_fold(phi, psi)


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_is_bitwise_the_fold_on_inputs_that_certify_little(conv):
    # the best samples of these settle few outputs: the fold finishes them
    n = 1500
    i = np.arange(n, dtype=float) / 8
    shapes = {
        "constant": np.full(n, 0.5),
        "tied": np.repeat([1.0, 2.0, 1.0], n // 3),
        "concave": -i * i,
        "convex": i * i,
    }
    for a in shapes.values():
        for b in shapes.values():
            assert_convolution_is_the_fold(grid_fn(0.0, 0.25, a, conv), grid_fn(1.0, 0.25, b, conv))


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_is_bitwise_the_fold_on_thin_operands(conv):
    rng = np.random.default_rng(66)
    for n, m in [(1, 5000), (5000, 1), (300, 7), (7, 300), (40, 3000), (1, 40000), (20000, 3), (1, 1)]:
        assert_convolution_is_the_fold(bench_fn(rng, n, conv), bench_fn(rng, m, conv))


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_is_bitwise_the_fold_with_zero_samples(conv):
    # runs of the zero, supports with gaps, a lone finite sample, no support
    rng = np.random.default_rng(67)
    zero = -INF if conv == "maxplus" else INF

    def with_runs(n):
        f = bench_fn(rng, n, conv)
        values = f.values.copy()
        for _ in range(int(rng.integers(1, 12))):
            lo = int(rng.integers(0, n))
            values[lo : lo + int(rng.integers(1, n // 4))] = zero
        return grid_fn(f.start, f.step, values, conv)

    def gapped(n):
        values = np.full(n, zero)
        values[: n // 10] = bench_fn(rng, n // 10, conv).values
        values[-n // 10 :] = bench_fn(rng, n // 10, conv).values
        return grid_fn(0.0, 1 / 64, values, conv)

    lone = np.full(2000, zero)
    lone[700] = 1.5
    for _ in range(8):
        assert_convolution_is_the_fold(with_runs(int(rng.integers(200, 2500))), with_runs(2000))
    assert_convolution_is_the_fold(gapped(3000), gapped(2000))
    assert_convolution_is_the_fold(gapped(3000), with_runs(2000))
    assert_convolution_is_the_fold(grid_fn(0.0, 1 / 64, lone, conv), bench_fn(rng, 2000, conv))
    assert_convolution_is_the_fold(grid_fn(0.0, 1 / 64, np.full(1000, zero), conv), bench_fn(rng, 2000, conv))


@pytest.mark.parametrize("conv", ["maxplus", "minplus"])
def test_convolution_overflow_verdicts_are_the_folds(conv):
    sign = 1.0 if conv == "maxplus" else -1.0
    zero = -INF * sign
    small = [
        ([1e308, 0.0], [1e308, 0.0]),
        ([-1e308], [-1e308]),
        ([zero, 1.0], [2.0, zero]),
        ([-1e308, 5.0], [5.0, -1e308]),
        ([1e308, -1e308, zero], [-1e308, zero, 1e308]),
    ]
    for a, b in small:
        assert_convolution_is_the_fold(grid_fn(0.0, 1.0, a, conv), grid_fn(0.0, 1.0, b, conv))
    # the same values sprinkled into operands long enough for the block
    rng = np.random.default_rng(68)
    for trial in range(24):
        # odd trials may overflow either way, even ones only onto the zero
        pool = [1e308, -1e308, zero] if trial % 2 else [-sign * 1e308, zero]
        fs = []
        for n in (int(rng.integers(200, 1500)), int(rng.integers(200, 1500))):
            values = bench_fn(rng, n, conv).values.copy()
            hit = rng.random(n) < rng.choice([0.001, 0.01, 0.3, 0.9])
            values[hit] = rng.choice(pool, int(hit.sum()))
            fs.append(grid_fn(0.0, 1.0, values, conv))
        assert_convolution_is_the_fold(*fs)


def test_convolution_temporary_memory_is_bounded():
    rng = np.random.default_rng(69)
    n = 8000
    for conv in ("maxplus", "minplus"):
        for phi, psi in [(bench_fn(rng, n, conv), bench_fn(rng, n, conv)),
                         (grid_fn(0.0, 1.0, np.zeros(n), conv),) * 2]:
            tracemalloc.start()
            try:
                convolution(phi, psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20


def test_convolution_is_subquadratic_on_random_inputs():
    # the fold needs about 14 s at this size on a 2-core VM; the certified
    # block and the direct ends need a fraction of a second
    n = 100_000
    rng = np.random.default_rng(85)
    phi = grid_fn(-n / 128, 1 / 64, dyadic(rng, n))
    psi = grid_fn(-n / 128, 1 / 64, dyadic(rng, n), "maxplus")
    begin = time.perf_counter()
    convolution(phi, psi)
    convolution(grid_fn(phi.start, phi.step, phi.values, "minplus"), grid_fn(psi.start, psi.step, psi.values, "minplus"))
    assert time.perf_counter() - begin < 3.0


def test_convolution_grid_checks():
    phi = grid_fn(0.0, 1.0, [0.0])
    with pytest.raises(GridMismatch):
        convolution(phi, grid_fn(0.0, 0.5, [0.0]))
    with pytest.raises(GridMismatch):
        convolution(phi, grid_fn(0.0, 1.0, [0.0], "minplus"))


# --- Legendre transform ---------------------------------------------------------


def test_legendre_of_concave_parabola():
    # phi(x) = -x^2/2 has transform xi^2/2
    step = 1.0 / 512
    xs = np.arange(-3.0, 3.0 + step / 2, step)
    phi = grid_fn(xs[0], step, -(xs * xs) / 2.0)
    for xi in (0.0, 0.5, -1.0, 2.0):
        got = legendre(phi, xi, 1.0, 1).values[0]
        # grid maximizer sits within step/2 of xi, quadratic error ~ step^2/8,
        # plus float rounding of the inner products
        assert abs(got - xi * xi / 2.0) <= step * step / 8.0 + 4 * DELTA * (
            1.0 + abs(xi) * 3.0
        )


def test_legendre_of_indicator_is_absolute_value():
    # phi = 0 on [-1, 1] gives the support function |xi|, exactly on this grid
    phi = grid_fn(-1.0, 0.25, np.zeros(9))
    out = legendre(phi, -2.0, 0.5, 9)
    xs = np.arange(-2.0, 2.5, 0.5)
    assert np.array_equal(out.values, np.abs(xs))
    assert out.start == -2.0 and out.step == 0.5 and out.convention == "maxplus"


def test_legendre_is_convex_and_monotone_in_phi():
    rng = np.random.default_rng(65)
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.125)
    for _ in range(20):
        vals = dyadic(rng, len(xs), lo=-4.0, hi=4.0)
        phi = grid_fn(xs[0], 0.125, vals)
        out = legendre(phi, -3.0, 0.125, 49).values
        second = out[2:] - 2.0 * out[1:-1] + out[:-2]
        assert np.all(second >= -1e-9)
        bigger = legendre(grid_fn(xs[0], 0.125, vals + 1.0), -3.0, 0.125, 49).values
        assert np.all(bigger >= out)


def test_legendre_swaps_shift_and_tilt():
    # adding a linear term a*x to phi shifts the transform: (phi + a x)~(xi)
    # = phi~(xi + a), exact when grid points and a are dyadic
    rng = np.random.default_rng(66)
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.25)
    vals = dyadic(rng, len(xs), lo=-2.0, hi=2.0)
    a = 0.5
    base = legendre(grid_fn(xs[0], 0.25, vals), -1.0 + a, 0.25, 9).values
    tilted = legendre(grid_fn(xs[0], 0.25, vals + a * xs), -1.0, 0.25, 9).values
    assert np.array_equal(base, tilted)


def test_double_transform_is_concave_majorant():
    rng = np.random.default_rng(67)
    xs = np.arange(-2.0, 2.0 + 1e-9, 0.125)
    n = len(xs)
    for _ in range(10):
        vals = dyadic(rng, n, lo=-3.0, hi=3.0)
        phi = grid_fn(xs[0], 0.125, vals)
        # second conjugation via the involution T(T(phi)) with T f = -f~(-.)
        xi_step, xi_span = 0.0625, 64.0
        m = int(2 * xi_span / xi_step) + 1
        tr = legendre(phi, -xi_span, xi_step, m)
        rec = legendre(
            grid_fn(-xi_span, xi_step, -tr.values[::-1]), xs[0], 0.125, n
        )
        rec_vals = -rec.values[::-1]
        env = upper_concave_envelope(xs, vals)
        # never below the envelope by more than rounding, never above it by
        # more than the xi-grid resolution allows
        assert np.all(rec_vals >= vals - 1e-9)
        assert np.all(rec_vals >= env - 1e-9)
        assert np.all(rec_vals <= env + xi_step * (xs[-1] - xs[0]) / 2 + 1e-9)


def test_legendre_requires_maxplus():
    with pytest.raises(DomainError):
        legendre(grid_fn(0.0, 1.0, [0.0], "minplus"), 0.0, 1.0, 1)
    with pytest.raises(DomainError):
        legendre(grid_fn(0.0, 1.0, [0.0]), 0.0, -1.0, 3)
    with pytest.raises(DomainError):
        legendre(grid_fn(0.0, 1.0, [0.0]), 0.0, 1.0, 0)


def test_grids_reaching_infinity_are_rejected():
    # start and step are finite, but start + 2*step overflows to inf
    with pytest.raises(DomainError, match="bad grid"):
        grid_fn(-1e308, 1e308, [0.0, 1.0, 2.0])
    with pytest.raises(DomainError, match="bad grid"):
        legendre(grid_fn(0.0, 1.0, [0.0, 1.0]), -1e308, 1e308, 3)
    # the same grid one point shorter ends at 0 and is fine
    assert np.array_equal(grid_fn(-1e308, 1e308, [0.0, 1.0]).grid(), [-1e308, 0.0])


# --- Hamilton-Jacobi evolution ---------------------------------------------------


def test_hopf_lax_parabola():
    # s0(x) = x^2/2 evolves to x^2/(2(1+t)); t = 1 gives x^2/4
    step = 1.0 / 256
    xs = np.arange(-4.0, 4.0 + step / 2, step)
    s0 = grid_fn(xs[0], step, (xs * xs) / 2.0, "minplus")
    out = hopf_lax_evolve(s0, 1.0)
    mid = np.abs(xs) <= 1.5  # keep the true minimizer interior to the grid
    err = np.abs(out.values - (xs * xs) / 4.0)[mid]
    assert err.max() <= step * step + 1e-12


def test_hopf_lax_propagates_minima():
    # pointy initial data spreads into exact parabolas min_j (c_j + (x-y_j)^2/2t)
    step = 0.25
    xs = np.arange(-2.0, 2.0 + 1e-9, step)
    vals = np.full(len(xs), INF)
    vals[4] = 1.0   # x = -1
    vals[12] = 0.0  # x = +1
    s0 = grid_fn(xs[0], step, vals, "minplus")
    out = hopf_lax_evolve(s0, 2.0, m=1.0)
    want = np.minimum(1.0 + (xs + 1.0) ** 2 / 4.0, (xs - 1.0) ** 2 / 4.0)
    assert np.allclose(out.values, want, rtol=0, atol=1e-12)


def test_hopf_lax_superposition_is_exact():
    # the evolution is min-plus linear: evolve(min(a+f, b+g)) =
    # min(a+evolve(f), b+evolve(g)), bitwise on any inputs
    rng = np.random.default_rng(68)
    xs_start, step, n = -2.0, 0.125, 33
    for _ in range(20):
        f = grid_fn(xs_start, step, dyadic(rng, n), "minplus")
        g = grid_fn(xs_start, step, dyadic(rng, n), "minplus")
        a, b = dyadic(rng), dyadic(rng)
        t = 0.5
        lhs = hopf_lax_evolve(pointwise_add(scalar_mul(a, f), scalar_mul(b, g)), t)
        rhs = pointwise_add(
            scalar_mul(a, hopf_lax_evolve(f, t)), scalar_mul(b, hopf_lax_evolve(g, t))
        )
        assert lhs == rhs


def test_hopf_lax_semigroup():
    rng = np.random.default_rng(69)
    step, n = 0.0625, 129
    xs = np.arange(n) * step - 4.0
    vals = dyadic(rng, n, lo=0.0, hi=4.0)
    s0 = grid_fn(xs[0], step, vals, "minplus")
    one = hopf_lax_evolve(hopf_lax_evolve(s0, 1.0), 1.0)
    two = hopf_lax_evolve(s0, 2.0)
    # evolving twice searches a coarser set of paths, so it can only be
    # larger; on interior points the gap is O(step) kinetic-term resolution
    mid = slice(32, 97)
    assert np.all(one.values[mid] >= two.values[mid] - 1e-12)
    assert np.max(one.values[mid] - two.values[mid]) <= 0.5 * step + 4 * DELTA * 16.0


def test_hopf_lax_validation():
    s0 = grid_fn(0.0, 1.0, [0.0], "minplus")
    with pytest.raises(DomainError):
        hopf_lax_evolve(grid_fn(0.0, 1.0, [0.0]), 1.0)
    with pytest.raises(DomainError):
        hopf_lax_evolve(s0, 0.0)
    with pytest.raises(DomainError):
        hopf_lax_evolve(s0, 1.0, m=-1.0)


def test_grids_whose_points_coincide_in_float64_are_accepted():
    # 1e16 + 1 rounds back to 1e16: two samples share one x
    f = grid_fn(1e16, 1.0, [0.0, 1.0])
    assert list(f.grid()) == [1e16, 1e16]
    assert scalar_mul(2.0, f) == grid_fn(1e16, 1.0, [2.0, 3.0])
    # the slope grid -1e200 + {0, 1, 2} is three times -1e200
    phi = grid_fn(0.0, 1.0, [0.0, 1.0])
    assert np.array_equal(legendre(phi, -1e200, 1.0, 3).values, brute_legendre(phi, -1e200, 1.0, 3))


# --- envelope kernels against the brute-force oracles -----------------------------


def _holes(rng, values, zero):
    """values with a random share of samples (none to all) set to zero."""
    share = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
    out = values.copy()
    out[rng.random(values.size) < share] = zero
    return out


def test_hopf_lax_is_bitwise_the_brute_force_on_dyadic_inputs():
    rng = np.random.default_rng(81)
    for trial in range(300):
        n = int(rng.integers(1, 400)) if trial >= 4 else 1 + trial
        vals = _holes(rng, dyadic(rng, n, grain=256), INF)
        if trial % 50 == 7:  # a single finite sample
            vals[:] = INF
            vals[int(rng.integers(n))] = dyadic(rng)
        step = 2.0 ** -int(rng.integers(0, 7))
        s0 = grid_fn(float(rng.integers(-64, 64)) * step, step, vals, "minplus")
        t = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        m = float(rng.choice([1.0, 0.25, 3.0, 5.0]))
        out = hopf_lax_evolve(s0, t, m)
        assert out.values.tobytes() == brute_hopf_lax(s0, t, m).tobytes()
        if np.all(vals == INF):
            assert np.all(out.values == INF)


def test_legendre_is_bitwise_the_brute_force_on_dyadic_inputs():
    rng = np.random.default_rng(82)
    for trial in range(300):
        n = int(rng.integers(1, 400)) if trial >= 4 else 1 + trial
        vals = _holes(rng, dyadic(rng, n, grain=256), -INF)
        if trial % 50 == 7:
            vals[:] = -INF
            vals[int(rng.integers(n))] = dyadic(rng)
        step = 2.0 ** -int(rng.integers(0, 7))
        phi = grid_fn(float(rng.integers(-64, 64)) * step, step, vals)
        xi_count = int(rng.integers(1, 400))
        if trial % 3:
            xi_step = 2.0 ** -int(rng.integers(0, 9))
            xi_start = -xi_step * float(rng.integers(0, 2 * xi_count))
        else:  # slopes beyond the steepest chord, 16/step, on both sides
            xi_step = 2.0 ** math.ceil(math.log2(64 / step / xi_count))
            xi_start = -xi_step * (xi_count // 2)
        out = legendre(phi, xi_start, xi_step, xi_count)
        want = brute_legendre(phi, xi_start, xi_step, xi_count)
        assert out.values.tobytes() == want.tobytes()
        if np.all(vals == -INF):
            assert np.all(out.values == -INF)


def test_envelopes_stay_within_two_ulps_on_non_dyadic_inputs():
    # with a step of 0.01 grid points are rounded and the kernels may pick
    # a different near-tied winner than the plain extremum; the gap is at
    # most 2 ulps of the largest term magnitude (|s0| or |xi*x| + |phi|)
    rng = np.random.default_rng(83)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        vals = np.round(rng.uniform(-3.0, 3.0, n), 2)
        if rng.random() < 0.3:  # collinear and parabolic values tie often
            xs = -0.37 + 0.01 * np.arange(n)
            vals = 0.37 * xs + 0.1 if rng.random() < 0.5 else 0.5 * xs * xs
        s0 = grid_fn(-0.37, 0.01, vals, "minplus")
        t, m = float(rng.choice([0.3, 0.7, 1.0])), float(rng.choice([0.1, 1.0, 3.0]))
        got, want = hopf_lax_evolve(s0, t, m).values, brute_hopf_lax(s0, t, m)
        ulp = np.spacing(np.maximum(np.abs(want), np.max(np.abs(vals))))
        assert np.all(np.abs(got - want) <= 2 * ulp)

        phi = grid_fn(-0.37, 0.01, vals)
        xi_start, xi_step = float(rng.choice([-2.0, -0.37])), float(rng.choice([0.01, 0.053]))
        xi_count = int(rng.integers(1, 300))
        got, want = legendre(phi, xi_start, xi_step, xi_count).values, brute_legendre(
            phi, xi_start, xi_step, xi_count)
        xis = xi_start + xi_step * np.arange(xi_count)
        scale = np.abs(xis) * np.max(np.abs(phi.grid())) + np.max(np.abs(vals))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.maximum(np.abs(want), scale)))


def test_envelopes_follow_the_grid_as_float64_rounds_it():
    # 1e16 + 3*i is 1e16 + {0, 4, 6, 8, 12, 16}: uneven gaps; an envelope
    # built from indices dropped the winner at x = 1e16 + 12 and gave 16
    s0 = grid_fn(1e16, 3.0, [INF, INF, INF, 0.0, 10.0, 0.0], "minplus")
    out = hopf_lax_evolve(s0, 1.0, 2.0).values
    assert out[4] == 10.0
    assert out.tobytes() == brute_hopf_lax(s0, 1.0, 2.0).tobytes()
    # nanosecond timestamps (ulp 256 at step 1000) and grids whose points
    # coincide, with integer values: every term is exact, so bitwise
    rng = np.random.default_rng(85)
    for trial in range(200):
        n = int(rng.integers(1, 120))
        start, step = [(1.7e18 + 1000.0 * int(rng.integers(0, 999)), 1000.0),
                       (1e16, 3.0), (-1e16, 1.0), (1e16, 0.5)][trial % 4]
        vals = rng.integers(-50, 50, n).astype(float) * float(rng.choice([1.0, 1e6]))
        vals[rng.random(n) < 0.3] = INF
        s0 = grid_fn(start, step, vals, "minplus")
        t, m = float(rng.choice([0.5, 1.0, 1e6])), float(rng.choice([1.0, 2.0]))
        assert hopf_lax_evolve(s0, t, m).values.tobytes() == brute_hopf_lax(s0, t, m).tobytes()
        phi = grid_fn(start, step, -vals)
        xi_count = int(rng.integers(1, 120))
        xi_step = float(rng.choice([1.0, 0.053, 1e-5]))
        xi_start = -xi_step * xi_count * float(rng.random())
        got = legendre(phi, xi_start, xi_step, xi_count).values
        want = brute_legendre(phi, xi_start, xi_step, xi_count)
        # xi*x rounds here: within 2 ulps of the largest term, as below
        xis = xi_start + xi_step * np.arange(xi_count)
        finite = want > -INF
        assert np.array_equal(got > -INF, finite)
        scale = np.abs(xis) * np.max(np.abs(phi.grid())) + np.max(np.abs(vals[vals < INF]), initial=0.0)
        bound = 2 * np.spacing(np.maximum(np.abs(want), scale))
        assert np.all(np.abs(got[finite] - want[finite]) <= bound[finite])


def test_envelope_decisions_survive_extreme_scales():
    # decisions at extreme scales: a threshold (phi difference / x gap) of
    # 1e-600 must keep its sign against xi = 0; subnormal slopes meet gaps
    # of 1e300; a slope of -3e-310 shares its grid with slopes up to 8e300
    cases = [
        (grid_fn(0.0, 1e300, [1e-300, 0.0]), 0.0, 1.0, 1),
        (grid_fn(-3e-310, 1e300, [0.0, 1e-300, 1e-300, 5e-324, 5e-324]), 0.0, 5e-324, 9),
        (grid_fn(-3e-310, 1000.0, [1e-300, 1e-300]), -3e-310, 1e300, 9),
    ]
    for phi, xi_start, xi_step, xi_count in cases:
        got = legendre(phi, xi_start, xi_step, xi_count).values
        assert got.tobytes() == brute_legendre(phi, xi_start, xi_step, xi_count).tobytes()
    # all points are 1e300 and c = 2.5e299 dwarfs the values: the lower
    # value must still win among samples that share one point
    s0 = grid_fn(1e300, 1.0, [7.0, 0.5], "minplus")
    assert list(hopf_lax_evolve(s0, 1e-300, 0.5).values) == [0.5, 0.5]


# --- the pruned hull against the one-pass chain -----------------------------------

# dyadic grids, and grids far from 0 whose points float64 rounds onto uneven
# gaps or onto one another (1e16 + 3*i is 1e16 + {0, 4, 6, 8, 12, 16, ...})
_HULL_GRIDS = st.sampled_from([(-2.0, 0.25), (-0.5, 2.0**-6), (1e16, 3.0), (-1e16, 1.0), (1.7e18, 1000.0)])


@st.composite
def _hull_samples(draw):
    """(x, v): n grid points and dyadic values of one of three shapes, with
    -inf holes: random; a concave parabola, all on the hull on a dyadic
    grid, so no round removes a point; and that parabola with a spike at
    its end, which uncovers one point per round (the cascade), so the
    rounds stop at once and the chord test takes the rest; or all of it
    mirrored, the spike first."""
    n = draw(st.integers(1, 80))
    start, step = draw(_HULL_GRIDS)
    shape = draw(st.sampled_from(["random", "parabola", "spike"]))
    if shape == "random":
        v = np.array(draw(st.lists(st.integers(-(1 << 11), 1 << 11), min_size=n, max_size=n))) / 256
    else:
        i = np.arange(n, dtype=float)
        v = -(i * i) / 64
        if shape == "spike":
            v[-1] = 2.0**12
    if draw(st.booleans()):
        v = v[::-1].copy()
    v[draw(st.lists(st.integers(0, n - 1), max_size=n))] = -INF
    return start + step * np.arange(n), v


@settings(max_examples=400, deadline=None)
@given(_hull_samples(), st.sampled_from([0.0, 0.5, 3.0, 2.0**20]))
def test_pruned_hull_is_the_chains_on_dyadic_frames(samples, c):
    X, V, K, _, _ = _frame(*samples, c)
    got = _upper_hull(X, V, K)
    assert got.dtype.kind == "i"
    assert got.tolist() == chain_upper_hull(X, V, K)


def test_pruned_hull_on_zero_to_three_samples():
    assert _upper_hull(np.empty(0), np.empty(0), 0.0).tolist() == []
    levels = [-INF, -1.0, 0.0, 0.5]
    for n in (1, 2, 3):
        for v in itertools.product(levels, repeat=n):
            for start, step in [(-1.0, 0.5), (1e16, 1.0)]:  # at 1e16 the points coincide
                for c in (0.0, 0.5):
                    X, V, K, _, _ = _frame(start + step * np.arange(n), np.array(v), c)
                    assert _upper_hull(X, V, K).tolist() == chain_upper_hull(X, V, K)


@pytest.mark.parametrize("kind", ["legendre", "hopflax"])
def test_pruned_hull_is_the_chains_on_bench_shaped_frames(kind):
    rng = np.random.default_rng(86)
    for _ in range(3):
        f = bench_fn(rng, 8000, "maxplus")
        if kind == "legendre":
            frame = _frame(f.grid(), f.values, 0.0)
        else:  # hopf_lax_evolve frames -s0 with c = m/(2t)
            frame = _frame(f.grid(), -f.values, 1.0 / (2.0 * float(rng.choice([0.5, 1.0, 2.0, 4.0]))))
        X, V, K, _, _ = frame
        assert _upper_hull(X, V, K).tolist() == chain_upper_hull(X, V, K)


def _best_hull_ms(X, V, K):
    best = math.inf
    for _ in range(7):
        t = time.perf_counter()
        _upper_hull(X, V, K)
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


@pytest.mark.parametrize("end", ["last", "first"])
def test_an_end_spike_over_a_concave_run_is_pruned_in_one_test(end):
    # the rounds drop one point a round from this frame and stop at once;
    # the chord from the first to the last candidate takes the whole run
    i = np.arange(8000, dtype=float)
    v = -(i * i) / 64
    v[-1] = 2.0**12
    X, V, K, _, _ = _frame((i - 4000) / 64, v if end == "last" else v[::-1].copy(), 0.0)
    assert _upper_hull(X, V, K).tolist() == chain_upper_hull(X, V, K) == [0, 7999]
    f = bench_fn(np.random.default_rng(87), 8000, "maxplus")
    bench = _frame(f.grid(), f.values, 0.0)[:3]
    assert _best_hull_ms(X, V, K) < 3 * _best_hull_ms(*bench)  # the chain walked 8000 points: about 9x


def test_legendre_drops_minus_inf_and_types_the_overflow():
    # the -inf sample used to meet an infinite xi*x and form NaN
    phi = grid_fn(1e200, 1e200, [0.0, -INF])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            legendre(phi, 1e200, 1.0, 1)
        # the same function at a slope whose products stay finite
        assert legendre(phi, 1e-200, 1.0, 1).values[0] == 1.0
        # xi*x overflows to -inf at x = -3 and -2, but not at the winner x = 0
        tilted = grid_fn(-3.0, 1.0, [0.0, 2.0, 3.0, 3.5])
        assert legendre(tilted, 1.7e308, 1.0, 1).values[0] == 3.5


def test_hopf_lax_rejects_an_underflowing_kernel_and_overflowing_terms():
    # c = m/(2t) underflowed to 0 and met an infinite squared distance: NaN
    s0 = grid_fn(-1e200, 1e200, [0.0, 0.0, 0.0], "minplus")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="underflows"):
            hopf_lax_evolve(s0, 1e300, 1e-300)
        with pytest.raises(DomainError, match="overflows"):
            hopf_lax_evolve(s0, 1e-300, 1e300)  # c overflows
        # c is fine, but the only finite term at x = 1e200 is 1e400
        with pytest.raises(DomainError, match="overflows float64"):
            hopf_lax_evolve(grid_fn(-1e200, 1e200, [0.0, INF, INF], "minplus"), 1.0)
        # every sample its own winner: nothing overflows
        assert np.array_equal(hopf_lax_evolve(s0, 1.0).values, [0.0, 0.0, 0.0])
        # values near the float64 limit: the hull tests must not overflow
        big = [-5e307, 1.5e308, 1.0, 1.0, 5e307, 1.0]
        out = hopf_lax_evolve(grid_fn(0.0, 1e300, big, "minplus"), 1.0)
        assert np.array_equal(out.values, big)


def test_convolution_overflow_is_a_domain_error():
    big = grid_fn(0.0, 1.0, [1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            convolution(big, big)
        # -1e308 + -1e308 would read as the zero -inf: also an overflow
        low = grid_fn(0.0, 1.0, [-1e308])
        with pytest.raises(DomainError, match="overflows float64"):
            convolution(low, low)
        # outputs that no finite pair reaches are the zero, not an overflow
        out = convolution(grid_fn(0.0, 1.0, [-INF, 1.0]), grid_fn(0.0, 1.0, [2.0, -INF]))
        assert list(out.values) == [-INF, 3.0, -INF]
        # an overflowing pair that does not win is harmless
        out = convolution(grid_fn(0.0, 1.0, [-1e308, 5.0]), grid_fn(0.0, 1.0, [5.0, -1e308]))
        assert list(out.values) == [5.0 - 1e308, 10.0, 5.0 - 1e308]


_VALUES = st.sampled_from([0.0, 0.5, -1.25, 3.0, 1e308, -1e308, 5e-324, None])
_SCALES = st.sampled_from([5e-324, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e10, 1e300, 1e308])
_STARTS = st.sampled_from([0.0, -1.0, 2.5, -1e200, 1e200, -1e308, 1e300])


@settings(max_examples=400, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=10), st.lists(_VALUES, min_size=1, max_size=10),
       st.sampled_from(["maxplus", "minplus"]), _STARTS, _SCALES, _SCALES, _SCALES,
       _STARTS, _SCALES, st.integers(1, 10))
def test_transforms_never_form_nan(a, b, conv, start, step, t, m, xi_start, xi_step, xi_count):
    # values mix small dyadics, +-1e308, a subnormal and the zero (None)
    def fn(values, convention):
        zero = -INF if convention == "maxplus" else INF
        return grid_fn(start, step, [zero if v is None else v for v in values], convention)

    calls = (
        lambda: hopf_lax_evolve(fn(a, "minplus"), t, m),
        lambda: legendre(fn(a, "maxplus"), xi_start, xi_step, xi_count),
        lambda: convolution(fn(a, conv), fn(b, conv)),
        lambda: scalar_mul(xi_start, fn(a, conv)),
        lambda: integral_wrt_measure(fn(a, conv), fn(a[::-1], conv)),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = call()
            except TropikitError:
                continue
        assert not np.any(np.isnan(getattr(out, "values", out)))


def test_envelopes_are_linear_time():
    # the pairwise kernels needed minutes at this size; the envelopes need
    # well under a second
    n = 100_000
    rng = np.random.default_rng(84)
    vals = dyadic(rng, n)
    begin = time.perf_counter()
    hopf_lax_evolve(grid_fn(-n / 128, 1 / 64, vals, "minplus"), 1.0)
    legendre(grid_fn(-n / 128, 1 / 64, vals), -n / 2048, 1 / 1024, n)
    assert time.perf_counter() - begin < 5.0
