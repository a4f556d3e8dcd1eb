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

import bisect
import math

import numpy as np

from .errors import DomainError, GridMismatch
from .linalg import _BLOCK
from .semiring import (MAXPLUS, MINPLUS, SemiringSpec, _allocatable, _count, _floats, _Frozen, _no_overflow,
                       _operands, _positive_finite, _real)

# The idempotent semiring each convention integrates in.
_SPECS = {"maxplus": MAXPLUS, "minplus": MINPLUS}


def _check_grid(start, step, count: int):
    """(start, step) as floats, if all count >= 1 points of the grid are finite."""
    start, step = _real(start, "grid start"), _real(step, "grid step")
    # the last point is finite only if start and step are (inf * 0 is NaN)
    if not (step > 0 and math.isfinite(start + step * (count - 1))):
        raise DomainError(f"bad grid: start={start!r} step={step!r} count={count}")
    return start, step


class SampledFunction(_Frozen):
    """Function values on the uniform grid start + step*i, i = 0..len-1;
    immutable, with a read-only values array."""

    __slots__ = ("start", "step", "values", "convention")

    def __init__(self, start: float, step: float, values, convention: str = "maxplus"):
        vals = _floats(values, "values", 1, "a nonempty 1-D array")
        if vals.size == 0:
            raise DomainError("values must be a nonempty 1-D array")
        start, step = _check_grid(start, step, vals.size)
        if not (isinstance(convention, str) and convention in _SPECS):
            raise DomainError(f"convention must be one of {tuple(_SPECS)}")
        if np.any(np.isnan(vals)):
            raise DomainError("NaN is not a carrier value")
        if not np.all(_SPECS[convention].contains(vals)):
            raise DomainError(f"{convention} functions cannot take that infinity")
        np.add(vals, 0.0, out=vals)  # -0.0 to +0.0, on the one copy
        vals.setflags(write=False)
        self._set(start=start, step=step, values=vals, convention=convention)

    def __len__(self):
        return self.values.size

    def grid(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.values.size)

    def _key(self):
        return (self.start, self.step, self.convention, self.values.tobytes())


def _same_grid(phi: SampledFunction, psi: SampledFunction) -> SemiringSpec:
    spec = _SPECS[_operands(SampledFunction, phi, psi)]
    if phi.start != psi.start or phi.step != psi.step or len(phi) != len(psi):
        raise GridMismatch("functions are sampled on different grids")
    return spec


def idempotent_integral(phi: SampledFunction) -> float:
    """Integral with values in the idempotent semiring: the grid extremum."""
    return float(_SPECS[_operands(SampledFunction, phi)].add_reduce(phi.values, axis=0)) + 0.0


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
    _operands(SampledFunction, phi)
    c = _real(c, "scalar")
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

    Output-sensitive and exact, after the threshold idea of Bussieck,
    Hassler, Woeginger & Zimmermann ("Fast algorithms for the maximum
    convolution", Oper. Res. Lett. 15, 1994): the sums of the best k x k
    samples of each operand certify every output they bring to at least
    the threshold that no other pair can beat, the outputs left are reduced
    directly over their own pairs, and k doubles while the block is a small
    share of N*M.  Inputs that certify little (constant, concave, tied)
    fall back to the O(N*M) fold of the shorter operand.  Each output is
    the extremum of the same float sums as the fold's, so the result is
    bitwise the fold's.
    """
    spec = _SPECS[_operands(SampledFunction, phi, psi)]
    if phi.step != psi.step:
        raise GridMismatch(f"mixed steps: {phi.step!r} vs {psi.step!r}")
    # min-plus is max-plus on the negated values: fl(-x + -y) == -fl(x + y)
    sign = 1.0 if spec is MAXPLUS else -1.0
    a, b = (phi.values, psi.values) if sign > 0 else (-phi.values, -psi.values)
    # a losing pair may overflow harmlessly, so only the winners are judged
    with np.errstate(over="ignore"):
        out = _max_convolve(a, b)
        # no operand is +inf, so an output there is a finite pair that won
        over = out.max() == math.inf
        if not over and _lowest_sum(a, b) == -math.inf:
            # a finite pair may overflow onto the zero: an error where it is
            # the best pair of its output, i.e. where an output at -inf has a
            # finite pair, which the convolution of the supports tells
            zero = out == -math.inf
            support = _max_convolve(np.where(a > -math.inf, 0.0, -math.inf),
                                    np.where(b > -math.inf, 0.0, -math.inf))
            over = bool(np.any(zero & (support == 0.0)))
    if over:
        raise DomainError("convolution: phi(x) + psi(g - x) overflows float64")
    return SampledFunction(phi.start + psi.start, phi.step, sign * out, phi.convention)


def _lowest_sum(a: np.ndarray, b: np.ndarray) -> float:
    """The least sum of a finite sample of a and one of b (inf if there is none)."""
    fa, fb = a[a > -math.inf], b[b > -math.inf]
    return float(fa.min()) + float(fb.min()) if fa.size and fb.size else math.inf


# The side of the first block of _max_convolve.
_FIRST_K = 32


def _max_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[g] = max over i + j = g of a[i] + b[j], for samples that are
    finite or -inf (-inf takes no part), bitwise the fold's; run it with
    overflow ignored.

    The finite samples of each operand are sorted best-first, sa and sb.
    Every pair outside the block sa[:k] x sb[:k] sums to at most
    T = max(sa[k] + sb[0], sa[0] + sb[k]), since fl(x + y) is monotone in
    each argument; so an output the block brings to T or above is final.
    k doubles from 32 while k*k stays within N*M/32, the outputs left have
    more than 4*k*k pairs, and the last ring of the block settled outputs
    with at least 16 pairs for each pair it formed (a formed pair costs
    several pairs of the fold; inputs that certify little stop at once).
    The outputs left are then reduced over their own pairs, or, when those
    are over a quarter of N*M, the fold of the shorter operand finishes all.
    """
    n, m = a.size, b.size
    out = np.full(n + m - 1, -math.inf)
    cap = n * m // 32
    if _FIRST_K * _FIRST_K > cap:
        return _fold(a, b, out)
    kmax = _FIRST_K
    while 4 * kmax * kmax <= cap:
        kmax *= 2
    # ufunc.at runs about twice as fast on int32 indices as on int64
    index = np.int32 if n + m <= 2**31 else np.intp
    ia, na = _best_first(a, kmax + 1)
    ib, nb = _best_first(b, kmax + 1)
    if not na or not nb:
        return out
    ia, ib = ia.astype(index), ib.astype(index)
    sa, sb = a[ia], b[ib]
    k, ka, kb, pairs = _FIRST_K, 0, 0, n * m
    while True:
        ka1, kb1 = min(k, na), min(k, nb)
        _scatter(out, ia[:ka], sa[:ka], ib[kb:kb1], sb[kb:kb1])
        _scatter(out, ia[ka:ka1], sa[ka:ka1], ib[:kb1], sb[:kb1])
        ring, ka, kb = ka1 * kb1 - ka * kb, ka1, kb1
        if ka == na and kb == nb:  # the block holds every finite pair
            return out
        t = max(float(sa[ka]) + float(sb[0]) if ka < na else -math.inf,
                float(sa[0]) + float(sb[kb]) if kb < nb else -math.inf)
        left = np.flatnonzero(out < t)
        # output g has min(g + 1, n + m - 1 - g, n, m) pairs
        settled, pairs = pairs, int(np.minimum(np.minimum(left + 1, n + m - 1 - left), min(n, m)).sum())
        if pairs <= 4 * k * k or k == kmax or settled - pairs < 16 * ring:
            break
        k *= 2
    if 4 * pairs < n * m:
        return _direct(a, b, out, left)
    return _fold(a, b, out)


def _best_first(v: np.ndarray, count: int):
    """Indices of the count largest finite samples of v (all, if fewer are
    finite), largest first; and the number of finite samples."""
    idx = np.flatnonzero(v > -math.inf)
    finite = idx.size
    if finite > count:
        idx = idx[np.argpartition(-v[idx], count - 1)[:count]]
    return idx[np.argsort(-v[idx])], finite


def _scatter(out, ia, sa, ib, sb):
    """out[ia[p] + ib[q]] = max(out[...], sa[p] + sb[q]) over all p, q, in
    blocks of rows of at most _BLOCK pairs (one row at least)."""
    rows = max(1, _BLOCK // max(1, ib.size))
    for lo in range(0, ia.size, rows):
        r = slice(lo, lo + rows)
        np.maximum.at(out, (ia[r, None] + ib).ravel(), (sa[r, None] + sb).ravel())


def _direct(a: np.ndarray, b: np.ndarray, out: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Set out[g], for each g in left (ascending), to the max over all of
    its pairs: rows of a padded with -inf on both sides against b reversed,
    in blocks of consecutive outputs of left whose pairs fit _BLOCK (one
    output at least)."""
    if a.size < b.size:
        a, b = b, a
    n, m = a.size, b.size
    # win[g, t] + rb[t] is the pair a[g + t - m + 1] + b[m - 1 - t] of output g,
    # and those pairs are t in [max(0, m - 1 - g), min(m, n + m - 1 - g))
    win = np.lib.stride_tricks.sliding_window_view(np.pad(a, m - 1, constant_values=-math.inf), m)
    rb = b[::-1].copy()
    gs, p = left.tolist(), 0
    while p < len(gs):
        hi = min(m, n + m - 1 - gs[p])
        # the block left[p:q] spans the pairs of its two ends; that grows with q
        q = bisect.bisect_right(range(len(gs)), _BLOCK, p + 1, len(gs),
                                key=lambda i: (i - p + 1) * (hi - max(0, m - 1 - gs[i])))
        lo, rows = max(0, m - 1 - gs[q - 1]), left[p:q]
        pairs = win[rows, lo:hi]
        pairs += rb[lo:hi]
        out[rows] = pairs.max(axis=1)
        del pairs  # before the next block is gathered
        p = q
    return out


def _fold(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out (+)= a (*) b by folding the finite samples of the shorter
    operand into out one at a time: O(N*M), whatever the values."""
    a, b = sorted((a, b), key=len)
    nb, tmp = b.size, np.empty(b.size)
    for i in np.flatnonzero(a > -math.inf).tolist():
        seg = out[i : i + nb]
        np.maximum(seg, np.add(a[i], b, out=tmp), out=seg)
    return out


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


def _upper_hull(X: np.ndarray, V: np.ndarray, K: float) -> np.ndarray:
    """Indices of the vertices of the upper convex hull of the points
    (X[j], V[j] - K*X[j]**2) over the j with V[j] > -inf, left to right, as
    an int array, O(len(V)); the arguments come from _frame.

    X is non-decreasing, but its gaps need not be equal; of the samples at
    one X, which _frame left with equal V, the first is kept.  A hull test
    is the sign of a*(V[q]-V[p]) + b*(V[r]-V[p]) - K*a*b*d for the actual
    gaps a, b, d between X[r] < X[p] < X[q], made of differences only, so
    it is exact whenever those few products are (dyadic inputs).

    The candidates are pruned in vectorized rounds before the monotone
    chain (after Akl & Toussaint, "A fast convex hull algorithm", Inf.
    Process. Lett. 7, 1978): each round tests every interior candidate
    against its two current neighbours with the chain's own test and drops
    those not strictly above the chord.  A point on or below a chord
    between two other points is no vertex of the strict upper hull, so
    where the test is exact the chain finds the same vertices among the
    survivors.  The rounds stop once one removes less than a quarter of
    the candidates; every earlier round shrank them by a quarter, so the
    rounds cost O(len(V)) numpy work.  One more test then drops the
    candidates not strictly above the chord from the first to the last: a
    concave run closed by an end spike loses one point a round, and this
    test removes it at once.  The chain runs in Python over the survivors
    only.
    """
    def above(r, p, q):  # the chain's test, on arrays
        xp, vp = X[p], V[p]
        a, b = xp - X[r], X[q] - xp
        return a * (V[q] - vp) + b * (V[r] - vp) < K * (a * b * (X[q] - X[r]))

    idx = np.flatnonzero(V > -math.inf)
    idx = idx[np.diff(X[idx], prepend=-math.inf) > 0]  # the first at each X
    while idx.size > 2:
        n, idx = idx.size, idx[np.r_[True, above(idx[:-2], idx[1:-1], idx[2:]), True]]
        if 4 * (n - idx.size) < n:
            break
    if idx.size > 2:  # then every candidate against the chord from the first to the last
        idx = idx[np.r_[True, above(idx[0], idx[1:-1], idx[-1]), True]]
    X, V, hull = X[idx].tolist(), V[idx].tolist(), []
    for q, (xq, vq) in enumerate(zip(X, V)):
        while len(hull) > 1:
            r, p = hull[-2], hull[-1]
            xp, vp = X[p], V[p]
            a, b = xp - X[r], xq - xp
            # keep p while it lies strictly above the chord from r to q
            if a * (vq - vp) + b * (V[r] - vp) < K * (a * b * (xq - X[r])):
                break
            hull.pop()
        hull.append(q)
    return idx[hull]


def _walk(hull: np.ndarray, P, A, B, R, queries: list) -> np.ndarray:
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
    if _operands(SampledFunction, phi) != "maxplus":
        raise DomainError("the slope transform is defined for maxplus functions")
    xi_count = _count(xi_count, "xi_count")
    _allocatable(f"{xi_count} slopes are too many to allocate", xi_count)
    xi_start, xi_step = _check_grid(xi_start, xi_step, xi_count)
    xs, xis = phi.grid(), xi_start + xi_step * np.arange(xi_count)
    X, V, _, ex, s = _frame(xs, phi.values, 0.0)
    h = _upper_hull(X, V, 0.0)
    if not h.size:
        return SampledFunction(xi_start, xi_step, np.full(xi_count, MAXPLUS.zero), "maxplus")
    # x[h + 1] wins over x[h] at xi iff xi*(x[h + 1] - x[h]) >= phi[h] - phi[h + 1].
    # With the gap 2**(ex + k) * G, 1/2 <= G < 1, and xi = q * 2**e, where
    # e <= 0 scales tiny slopes up, that reads q * G >= (V[h] - V[h + 1]) * 2**r:
    # no side overflows, and a right side that overflows or underflows keeps its sign.
    G, k = np.frexp(np.diff(X[h]))
    e = min(0, math.frexp(max(abs(xi_start), abs(float(xis[-1]))))[1])
    D = V[h[:-1]] - V[h[1:]]
    with np.errstate(over="ignore"):
        R = np.ldexp(D, -s - ex - k - e)
    R = np.where(R == 0.0, np.sign(D) * 5e-324, R)
    zero = [0.0] * G.size
    w = _walk(h, G.tolist(), zero, zero, R.tolist(), np.ldexp(xis, -e - 1).tolist())
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
    if _operands(SampledFunction, s0) != "minplus":
        raise DomainError("the evolution acts on minplus initial data")
    t = _positive_finite(t, "time")
    m = _positive_finite(m, "mass")
    c = m / (2.0 * t)
    if not 0.0 < c < math.inf:
        how = "underflows to 0" if c == 0.0 else "overflows"
        raise DomainError(f"hopf_lax_evolve: m/(2t) {how} in float64 (m={m!r}, t={t!r})")
    a, y0, dy, ys = s0.values, s0.start, s0.step, s0.grid()
    # the lower envelope of the parabolas is the upper hull of (y, -s0(y) - c*y*y)
    Y, V, K, _, _ = _frame(ys, -a, c)
    h = _upper_hull(Y, V, K)
    if not h.size:
        return SampledFunction(y0, dy, np.full(a.size, MINPLUS.zero), "minplus")
    # y[h + 1] wins over y[h] at y iff
    # c*(y[h + 1] - y[h])*((y - y[h]) + (y - y[h + 1])) >= s0[h + 1] - s0[h]
    A, B = Y[h[:-1]], Y[h[1:]]
    w = _walk(h, (K * (B - A)).tolist(), A.tolist(), B.tolist(), (V[h[:-1]] - V[h[1:]]).tolist(), Y.tolist())
    with _no_overflow("hopf_lax_evolve: s0(y) + m*(x - y)^2/(2t)"):
        diff = ys - ys[w]
        out = a[w] + c * (diff * diff)
    return SampledFunction(y0, dy, out, "minplus")
