"""Idempotent calculus for functions sampled on uniform 1-D grids.

With (+) = max (or min) and (x) = +, the usual integral becomes a supremum,
measures become weight functions added under the sup, convolution becomes
sup-convolution, and the Fourier kernel collapses to x*xi: the transform
sup_x(xi*x + phi(x)) is precisely a Legendre transform.  Every operation
here is linear over the ambient idempotent semiring, which is why the
Hopf-Lax evolution below superposes solutions exactly.

Grid values are float64; a maxplus function may take -inf where it has no
mass, a minplus one +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch
from .semiring import MAXPLUS, MINPLUS, SemiringSpec, _no_overflow, _positive_finite

# The idempotent semiring each convention integrates in.
_SPECS = {"maxplus": MAXPLUS, "minplus": MINPLUS}


def _check_grid(start, step, count: int):
    """(start, step) as floats, if all count >= 1 points of the grid are finite."""
    start, step = float(start), float(step)
    # the last point is finite only if start and step are (inf * 0 is NaN)
    if not (step > 0 and math.isfinite(start + step * (count - 1))):
        raise DomainError(f"bad grid: start={start!r} step={step!r} count={count}")
    return start, step


@dataclass(frozen=True)
class SampledFunction:
    """Function values on the uniform grid start + step*i, i = 0..len-1."""

    start: float
    step: float
    values: np.ndarray
    convention: str = "maxplus"

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("values must be a nonempty 1-D array")
        start, step = _check_grid(self.start, self.step, vals.size)
        if self.convention not in _SPECS:
            raise DomainError(f"convention must be one of {tuple(_SPECS)}")
        if np.any(np.isnan(vals)):
            raise DomainError("NaN is not a carrier value")
        if not np.all(_SPECS[self.convention].contains(vals)):
            raise DomainError(f"{self.convention} functions cannot take that infinity")
        vals = vals + 0.0
        vals.setflags(write=False)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, SampledFunction):
            return NotImplemented
        return (
            self.start == other.start
            and self.step == other.step
            and self.convention == other.convention
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.start, self.step, self.convention, self.values.tobytes()))


def _same_convention(phi: SampledFunction, psi: SampledFunction) -> SemiringSpec:
    if phi.convention != psi.convention:
        raise GridMismatch(f"mixed conventions: {phi.convention} vs {psi.convention}")
    return _SPECS[phi.convention]


def _same_grid(phi: SampledFunction, psi: SampledFunction) -> SemiringSpec:
    spec = _same_convention(phi, psi)
    if phi.start != psi.start or phi.step != psi.step or len(phi) != len(psi):
        raise GridMismatch("functions are sampled on different grids")
    return spec


def idempotent_integral(phi: SampledFunction) -> float:
    """Integral with values in the idempotent semiring: the grid extremum."""
    return float(_SPECS[phi.convention].add_reduce(phi.values, axis=0)) + 0.0


def integral_wrt_measure(phi: SampledFunction, psi: SampledFunction) -> float:
    """Integral of phi against the density psi: extremum of phi + psi.
    DomainError if the winning phi(x) + psi(x) overflows float64."""
    spec = _same_grid(phi, psi)
    # a losing pair may overflow harmlessly, so only the winner is judged
    with np.errstate(over="ignore"):
        out = float(spec.add_reduce(phi.values + psi.values, axis=0)) + 0.0
    # an infinite result is the zero only if no finite pair reaches it
    if math.isinf(out) and np.any(np.isfinite(phi.values) & np.isfinite(psi.values)):
        raise DomainError("integral_wrt_measure: phi(x) + psi(x) overflows float64")
    return out


def pointwise_add(phi: SampledFunction, psi: SampledFunction) -> SampledFunction:
    """(+) of functions: pointwise max (or min)."""
    values = _same_grid(phi, psi).add(phi.values, psi.values)
    return SampledFunction(phi.start, phi.step, values, phi.convention)


def scalar_mul(c: float, phi: SampledFunction) -> SampledFunction:
    """(x) by a scalar: shift the whole function by c.  DomainError if
    some finite phi(x) + c overflows float64."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"scalar must be finite, got {c!r}")
    with _no_overflow("scalar_mul: phi(x) + c"):
        values = phi.values + c
    return SampledFunction(phi.start, phi.step, values, phi.convention)


def convolution(phi: SampledFunction, psi: SampledFunction) -> SampledFunction:
    """Idempotent convolution (phi (*) psi)(g) = extremum_x phi(x) + psi(g - x).

    Grids must share step and convention; the output grid spans
    [start_phi + start_psi, end_phi + end_psi] at the same step.  A single
    sample at 0 with value 0 is the unit.  DomainError if a winning
    phi(x) + psi(g - x) overflows.
    """
    spec = _same_convention(phi, psi)
    if phi.step != psi.step:
        raise GridMismatch(f"mixed steps: {phi.step!r} vs {psi.step!r}")
    # one Python step per sample of the shorter operand
    a, b = sorted((phi.values, psi.values), key=len)
    nb = b.size
    out = np.full(a.size + nb - 1, spec.zero)
    # a losing pair may overflow harmlessly, so only the winners are judged
    with np.errstate(over="ignore"):
        for i in range(a.size):
            spec.add(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    if math.isinf(out.min()) or math.isinf(out.max()):
        # an infinite output is the zero only if no finite pair reaches it
        # (a float convolution of the 0/1 masks: exact counts, and faster than int64)
        finite_pair = np.convolve(np.isfinite(a).astype(float), np.isfinite(b).astype(float)) > 0
        if np.any(np.isinf(out) & finite_pair):
            raise DomainError("convolution: phi(x) + psi(g - x) overflows float64")
    return SampledFunction(phi.start + psi.start, phi.step, out, phi.convention)


def _frame(x: np.ndarray, v: np.ndarray, c: float):
    """The points (x[j], v[j] - c*x[j]**2) in a frame where no hull test or
    walk step overflows: X = x * 2**-ex lies in (-1, 1), V = v * 2**s and
    K = c * 2**(2*ex + s), with the larger of max|V| and K below 2**1000
    (v has no +inf or NaN; -inf marks a sample that takes no part).  Powers
    of two change no decision.  x is a grid as float64 rounds it, so far
    from 0 neighbours may coincide: of the samples at one x only the
    highest take part.  Returns X, V, K, ex and s."""
    same = x[1:] == x[:-1]
    if same.any():
        first = np.flatnonzero(np.r_[True, ~same])
        best = np.repeat(np.maximum.reduceat(v, first), np.diff(np.r_[first, v.size]))
        v = np.where(v == best, v, -math.inf)
    ex = math.frexp(max(abs(float(x[0])), abs(float(x[-1]))))[1]  # x is sorted
    finite = v[v > -math.inf]
    top = math.frexp(float(np.max(np.abs(finite))))[1] if finite.size else 0
    if c:
        top = max(top, math.frexp(c)[1] + 2 * ex)
    s = 1000 - top
    return np.ldexp(x, -ex), np.ldexp(v, s), math.ldexp(c, 2 * ex + s), ex, s


def _upper_hull(X: np.ndarray, V: np.ndarray, K: float) -> list:
    """Indices of the vertices of the upper convex hull of the points
    (X[j], V[j] - K*X[j]**2) over the j with V[j] > -inf, left to right, in
    one pass, O(len(V)); the arguments come from _frame.

    X is non-decreasing, but its gaps need not be equal; of the samples at
    one X, which _frame left with equal V, the first is kept.  A hull test
    is the sign of a*(V[q]-V[p]) + b*(V[r]-V[p]) - K*a*b*d for the actual
    gaps a, b, d between X[r] < X[p] < X[q], made of differences only, so
    it is exact whenever those few products are (dyadic inputs).
    """
    X, V, hull = X.tolist(), V.tolist(), []
    for q, vq in enumerate(V):
        if vq == -math.inf:
            continue
        xq = X[q]
        if hull and X[hull[-1]] == xq:
            continue
        while len(hull) > 1:
            r, p = hull[-2], hull[-1]
            xp, vp = X[p], V[p]
            a, b = xp - X[r], xq - xp
            # keep p while it lies strictly above the chord from r to q
            if a * (vq - vp) + b * (V[r] - vp) < K * (a * b * (xq - X[r])):
                break
            hull.pop()
        hull.append(q)
    return hull


def _walk(hull: list, P, A, B, R, queries: list) -> np.ndarray:
    """For each query q, the vertex of hull it selects: the walk moves from
    vertex h to h + 1 while P[h] * ((q - A[h]) + (q - B[h])) >= R[h].

    That test must say, for the edge from hull[h] to hull[h + 1], whether
    the later vertex scores at least as high, and be non-decreasing in q
    for non-decreasing queries: the winners then move right, and one pass
    finds them all, O(len(hull) + len(queries)).  Each decision is taken
    at its own query from differences only, so a near-tie decided by
    rounding costs the rounding of that query's terms and no more.
    """
    starts, h, last = [], 0, len(hull) - 1  # hull[h] wins from starts[h - 1] on
    for i, q in enumerate(queries):
        while h < last and P[h] * ((q - A[h]) + (q - B[h])) >= R[h]:
            h += 1
            starts.append(i)
    return np.repeat(hull[: h + 1], np.diff([0, *starts, len(queries)]))


def legendre(
    phi: SampledFunction, xi_start: float, xi_step: float, xi_count: int
) -> SampledFunction:
    """phi~(xi) = max_x (xi*x + phi(x)) on the requested slope grid.

    Requires the maxplus convention (the transform is the sup-kernel
    integral with kernel xi*x).  The result is convex in xi: it is a finite
    max of affine functions with slopes on the x grid.

    Linear-time Legendre transform (Lucet, Numerical Algorithms 1997): the
    upper hull of the finite points (x, phi(x)) is merged with the
    increasing slopes, O(len(phi) + xi_count).  Each output is the winner's
    xi*x + phi(x), the float expression of the plain maximum, so dyadic
    inputs give bitwise the same values.  Samples at -inf drop out; if all
    samples are -inf, so is every output.  DomainError if a winning xi*x
    overflows.
    """
    if phi.convention != "maxplus":
        raise DomainError("the slope transform is defined for maxplus functions")
    xi_count = int(xi_count)
    if xi_count < 1:
        raise DomainError("need at least one output sample")
    xi_start, xi_step = _check_grid(xi_start, xi_step, xi_count)
    xs, xis = phi.grid(), xi_start + xi_step * np.arange(xi_count)
    X, V, _, ex, s = _frame(xs, phi.values, 0.0)
    hull = _upper_hull(X, V, 0.0)
    if not hull:
        return SampledFunction(xi_start, xi_step, np.full(xi_count, MAXPLUS.zero), "maxplus")
    # x[h + 1] wins over x[h] at xi iff xi*(x[h + 1] - x[h]) >= phi[h] - phi[h + 1].
    # With the gap 2**(ex + k) * G, 1/2 <= G < 1, and xi = q * 2**e, where
    # e <= 0 scales tiny slopes up, that reads q * G >= (V[h] - V[h + 1]) * 2**r:
    # no side overflows, and a right side that overflows or underflows keeps its sign.
    h = np.array(hull)
    G, k = np.frexp(np.diff(X[h]))
    e = min(0, math.frexp(max(abs(xi_start), abs(float(xis[-1]))))[1])
    D = V[h[:-1]] - V[h[1:]]
    with np.errstate(over="ignore"):
        R = np.ldexp(D, -s - ex - k - e)
    R = np.where(R == 0.0, np.sign(D) * 5e-324, R)
    zero = [0.0] * G.size
    w = _walk(hull, G.tolist(), zero, zero, R.tolist(), np.ldexp(xis, -e - 1).tolist())
    with _no_overflow("legendre: xi*x + phi(x)"):
        out = xis * xs[w] + phi.values[w]
    return SampledFunction(xi_start, xi_step, out, "maxplus")


def hopf_lax_evolve(s0: SampledFunction, t: float, m: float = 1.0) -> SampledFunction:
    """Value function at time t of the free Hamilton-Jacobi flow:

        S(x, t) = min_y ( s0(y) + m*(x - y)^2 / (2t) )

    i.e. the min-plus integral operator with the parabolic Green kernel; s0
    must be a minplus function.  The output lives on the same grid.

    The lower envelope of the parabolas s0(y) + c*(x - y)^2, c = m/(2t), is
    found over the grid points as float64 rounds them (Felzenszwalb &
    Huttenlocher, "Distance transforms of sampled functions", Theory of
    Computing 2012), O(len(s0)).  Each output is the winner's
    s0(y) + c*((x - y)*(x - y)), the float expression of the plain minimum,
    so dyadic inputs give bitwise the same values.  Samples at +inf drop out; if all samples are +inf, so is every
    output.  DomainError if c underflows to 0 or overflows, or a winning
    term overflows.
    """
    if s0.convention != "minplus":
        raise DomainError("the evolution acts on minplus initial data")
    t = _positive_finite(float(t), "time")
    m = _positive_finite(float(m), "mass")
    c = m / (2.0 * t)
    if not 0.0 < c < math.inf:
        how = "underflows to 0" if c == 0.0 else "overflows"
        raise DomainError(f"hopf_lax_evolve: m/(2t) {how} in float64 (m={m!r}, t={t!r})")
    a, y0, dy, ys = s0.values, s0.start, s0.step, s0.grid()
    # the lower envelope of the parabolas is the upper hull of (y, -s0(y) - c*y*y)
    Y, V, K, _, _ = _frame(ys, -a, c)
    hull = _upper_hull(Y, V, K)
    if not hull:
        return SampledFunction(y0, dy, np.full(a.size, MINPLUS.zero), "minplus")
    # y[h + 1] wins over y[h] at y iff
    # c*(y[h + 1] - y[h])*((y - y[h]) + (y - y[h + 1])) >= s0[h + 1] - s0[h]
    h = np.array(hull)
    A, B = Y[h[:-1]], Y[h[1:]]
    w = _walk(hull, (K * (B - A)).tolist(), A.tolist(), B.tolist(), (V[h[:-1]] - V[h[1:]]).tolist(), Y.tolist())
    with _no_overflow("hopf_lax_evolve: s0(y) + m*(x - y)^2/(2t)"):
        diff = ys - ys[w]
        out = a[w] + c * (diff * diff)
    return SampledFunction(y0, dy, out, "minplus")
