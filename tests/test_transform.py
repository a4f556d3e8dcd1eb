import math

import numpy as np
import pytest
from helpers import dyadic, upper_concave_envelope

from tropikit import (
    DomainError,
    GridMismatch,
    SampledFunction,
    convolution,
    hopf_lax_evolve,
    idempotent_integral,
    integral_wrt_measure,
    legendre,
    pointwise_add,
    scalar_mul,
)

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
