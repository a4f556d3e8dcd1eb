"""Dequantization of generalized polynomials and the geometry it produces.

A generalized polynomial f(y) = sum_i a_i * y^{d_i} (rational, possibly
negative or fractional exponents; y in the open positive orthant) is pushed
through the change of variables y = exp(x/h):

    fhat_h(x) = h * ln|f(exp(x1/h), ..., exp(xn/h))|

As h -> 0 this converges to the piecewise-linear sublinear function
fhat(x) = max_i (d_i, x), uniformly at speed h.  The exponent geometry that
survives the limit is carried by convex sets: Newton sets multiply by
Minkowski sum and add by convex hull of the union, corner loci of max-plus
polynomials are tropical curves, and log-images of complex varieties shrink
onto them as h -> 0.  All polytope and curve arithmetic here is exact over
the rationals.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AmbiguousLimit,
    CancellationAtPoint,
    DegenerateInput,
    DimensionMismatch,
    DomainError,
    UnsupportedDimension,
)
from .semiring import NEG_INF, POS_INF, _positive_finite


def _frac_vec(v, n: Optional[int] = None) -> Tuple[Fraction, ...]:
    try:
        t = tuple(Fraction(c) for c in v)
    except (TypeError, ValueError) as e:
        raise DomainError(f"cannot read {v!r} as a rational vector: {e}") from None
    if n is not None and len(t) != n:
        raise DimensionMismatch(f"expected a {n}-vector, got {len(t)} components")
    return t


def _dot_float(d: Tuple[Fraction, ...], x: Sequence[float]) -> float:
    return float(sum(float(dk) * xk for dk, xk in zip(d, x)))


# --- generalized polynomials -------------------------------------------------


@dataclass(frozen=True)
class GenPolynomial:
    """Finite sum of monomials a * y1^d1 * ... * yn^dn with rational exponents.

    Coefficients are nonzero reals; exponent vectors are distinct.  On the
    open positive orthant every monomial is single-valued, which is all the
    dequantization map needs.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("need at least one variable")
        seen = set()
        norm = []
        for c, d in self.terms:
            c = float(c)
            if c == 0.0 or not math.isfinite(c):
                raise DomainError(f"coefficients must be nonzero finite reals, got {c!r}")
            dv = _frac_vec(d, self.n)
            if dv in seen:
                raise DomainError(f"repeated exponent vector {dv}; combine terms first")
            seen.add(dv)
            norm.append((c, dv))
        if not norm:
            raise DomainError("polynomial needs at least one term")
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def positive(self) -> bool:
        return all(c > 0 for c, _ in self.terms)

    def exponents(self):
        return [d for _, d in self.terms]


def poly_add(f: GenPolynomial, g: GenPolynomial) -> GenPolynomial:
    """f + g with like exponents combined; exact float zeros are dropped."""
    if f.n != g.n:
        raise DimensionMismatch(f"mixed dimensions {f.n} and {g.n}")
    acc = {}
    for c, d in f.terms + g.terms:
        acc[d] = acc.get(d, 0.0) + c
    terms = sorted((c, d) for d, c in acc.items() if c != 0.0)
    if not terms:
        raise DomainError("sum cancelled to the zero polynomial")
    return GenPolynomial(f.n, tuple((c, d) for c, d in terms))


def poly_mul(f: GenPolynomial, g: GenPolynomial) -> GenPolynomial:
    """f * g; exponent vectors add, coefficients of like terms accumulate."""
    if f.n != g.n:
        raise DimensionMismatch(f"mixed dimensions {f.n} and {g.n}")
    acc = {}
    for cf, df in f.terms:
        for cg, dg in g.terms:
            key = tuple(a + b for a, b in zip(df, dg))
            acc[key] = acc.get(key, 0.0) + cf * cg
    terms = sorted((c, d) for d, c in acc.items() if c != 0.0)
    if not terms:
        raise DomainError("product cancelled to the zero polynomial")
    return GenPolynomial(f.n, tuple((c, d) for c, d in terms))


def _point(f: GenPolynomial, x: Sequence[float]) -> tuple:
    """x as a tuple of floats, if it has one finite coordinate per variable of f."""
    xs = tuple(float(v) for v in x)
    if len(xs) != f.n:
        raise DimensionMismatch(f"point has {len(xs)} coordinates, polynomial has {f.n}")
    if not all(math.isfinite(v) for v in xs):
        raise DomainError("evaluation point must be finite")
    return xs


def eval_dequantized(f: GenPolynomial, x: Sequence[float], h: float) -> float:
    """h * ln|f(exp(x1/h), ..., exp(xn/h))| without overflow.

    With s_i = (d_i, x)/h + ln|a_i| this is h*(M + ln|sum_i sgn(a_i)
    e^{s_i - M}|), M = max s_i; the shifted exponentials stay in [0, 1].
    Returns -inf (and warns) if mixed-sign terms cancel exactly at x, and
    raises DomainError if the largest s_i is not a finite float.
    """
    _positive_finite(h, "h")
    xs = _point(f, x)
    s = np.array([_dot_float(d, xs) / h + math.log(abs(c)) for c, d in f.terms])
    signs = np.array([1.0 if c > 0 else -1.0 for c, _ in f.terms])
    m = float(s.max())
    if not math.isfinite(m):
        raise DomainError(f"scaled exponents at {xs} overflow float64 for h = {h!r}")
    inner = float(np.sum(signs * np.exp(s - m)))
    if inner == 0.0:
        warnings.warn(
            f"terms cancel exactly at {xs}; the dequantized value is -inf there",
            CancellationAtPoint,
            stacklevel=2,
        )
        return NEG_INF
    return h * (m + math.log(abs(inner)))


def dequantize_limit(f: GenPolynomial, x: Sequence[float]) -> float:
    """Pointwise h -> 0 limit of eval_dequantized: max_i (d_i, x).

    Always determined when every coefficient is positive; with mixed signs
    the leading exponent must be attained by exactly one term, otherwise the
    limit genuinely depends on cancellations and AmbiguousLimit is raised.
    """
    xs = _point(f, x)
    dots = [_dot_float(d, xs) for _, d in f.terms]
    m = max(dots)
    if f.positive or dots.count(m) == 1:
        return m + 0.0
    raise AmbiguousLimit(f"leading exponent tied at {xs} with mixed-sign coefficients")


# --- polytopes over the rationals -------------------------------------------


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(points):
    # Andrew's monotone chain; strict turns only, so no collinear interior
    # vertices survive.  Output is counterclockwise from the lexicographic
    # minimum.  Degenerate inputs give a point or a segment.
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if hull else [pts[0]]


def _hull_1d(points):
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    return [pts[0], pts[-1]]


def _support_directions(n: int):
    # fixed bundle of 64 integer directions; a tiny LCG keeps the bundle
    # identical across runs and library versions
    out = []
    state = 123456789
    while len(out) < 64:
        v = []
        for _ in range(n):
            state = (1103515245 * state + 12345) % (1 << 31)
            v.append((state >> 16) % 19 - 9)
        if any(v):
            out.append(tuple(v))
    return out


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of finitely many rational points.

    Dimensions 1 and 2 are reduced to canonical vertex lists (sorted
    endpoints; counterclockwise from the lexicographic minimum).  Higher
    dimensions keep the deduplicated generating points with reduced=False;
    equality then compares exact support-function values on a fixed bundle
    of 64 integer directions, a randomized but arithmetic-exact certificate.
    """

    n: int
    vertices: tuple
    reduced: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("need at least one dimension")
        pts = [_frac_vec(p, self.n) for p in self.vertices]
        if not pts:
            raise DomainError("polytope needs at least one point")
        if self.n == 1:
            verts, red = _hull_1d(pts), True
        elif self.n == 2:
            verts, red = _hull_2d(pts), True
        else:
            verts, red = sorted(set(pts)), False
        object.__setattr__(self, "vertices", tuple(verts))
        object.__setattr__(self, "reduced", red)

    def support(self, u) -> Fraction:
        """max over vertices of (u, v), exact."""
        uv = _frac_vec(u, self.n)
        return max(sum(a * b for a, b in zip(uv, v)) for v in self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Polytope):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.reduced and other.reduced:
            return self.vertices == other.vertices
        return all(self.support(u) == other.support(u) for u in _support_directions(self.n))

    __hash__ = None

    def __repr__(self):
        return f"Polytope({self.n}, {self.vertices!r}, reduced={self.reduced})"


def polytope_add(P: Polytope, Q: Polytope) -> Polytope:
    """(+) of the exponent-set semiring: convex hull of the union."""
    if P.n != Q.n:
        raise DimensionMismatch(f"mixed dimensions {P.n} and {Q.n}")
    return Polytope(P.n, P.vertices + Q.vertices)


def _minkowski_2d(A, B):
    # rotating edge merge over the two counterclockwise cycles; edges are
    # consumed in angular order, collinear pairs advance both cursors
    def reorder(V):
        k = min(range(len(V)), key=lambda i: (V[i][1], V[i][0]))
        return V[k:] + V[:k]

    A = reorder(list(A))
    B = reorder(list(B))
    ea = A + A[:2]
    eb = B + B[:2]
    out = []
    i = j = 0
    while i < len(A) or j < len(B):
        out.append(tuple(a + b for a, b in zip(ea[i], eb[j])))
        da = (ea[i + 1][0] - ea[i][0], ea[i + 1][1] - ea[i][1])
        db = (eb[j + 1][0] - eb[j][0], eb[j + 1][1] - eb[j][1])
        cr = da[0] * db[1] - da[1] * db[0]
        if cr >= 0 and i < len(A):
            i += 1
        if cr <= 0 and j < len(B):
            j += 1
    return out


def polytope_mul(P: Polytope, Q: Polytope) -> Polytope:
    """(x) of the exponent-set semiring: the Minkowski sum."""
    if P.n != Q.n:
        raise DimensionMismatch(f"mixed dimensions {P.n} and {Q.n}")
    if P.n == 2 and len(P.vertices) > 1 and len(Q.vertices) > 1:
        return Polytope(2, _minkowski_2d(P.vertices, Q.vertices))
    sums = [tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices]
    return Polytope(P.n, sums)


def newton_set(f: GenPolynomial, exact: bool = False) -> Polytope:
    """Convex hull of the exponent vectors of f.

    This is also the subdifferential at 0 of the dequantized limit
    max_i (d_i, x).  Pass exact=True to insist on a reduced vertex list,
    which is only available up to dimension 2.
    """
    if exact and f.n > 2:
        raise UnsupportedDimension(f"exact reduction is limited to n <= 2, got n = {f.n}")
    return Polytope(f.n, [d for _, d in f.terms])


# --- tropical curves in the plane --------------------------------------------


@dataclass(frozen=True)
class CurvePiece:
    """Points base + t*direction for t in [t0, t1].

    direction is a primitive integer vector; rays have t0 = 0 and t1 = inf,
    segments t0 = 0 and rational t1, full lines (-inf, inf) with base at the
    foot of the perpendicular from the origin.
    """

    base: tuple
    direction: tuple
    t0: object
    t1: object

    def point(self, t):
        t = Fraction(t)
        return tuple(b + t * d for b, d in zip(self.base, self.direction))


@dataclass(frozen=True)
class TropicalCurve:
    """Corner locus of a max-plus polynomial in two variables."""

    pieces: tuple


def _primitive(v):
    # v (rational 2-vector) = scale * prim with prim primitive integer, scale > 0
    lcm = v[0].denominator * v[1].denominator // math.gcd(v[0].denominator, v[1].denominator)
    ix, iy = int(v[0] * lcm), int(v[1] * lcm)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g), Fraction(g, lcm)


def tropical_curve_2d(terms) -> TropicalCurve:
    """Corner locus of p(x) = max_i ((d_i, x) + c_i), exact over the rationals.

    Each pair of terms ties on a line; the piece kept is the part of that
    line where the tied value also dominates every other term, computed as a
    1-D parameter-interval intersection.  Terms repeating an exponent vector
    are first combined by the larger constant (reported as DegenerateInput).
    Degenerate single-point intersections are dropped: whenever the locus is
    nonempty it is a union of the 1-D pieces, which cover those vertices.
    """
    terms = list(terms)
    if len(terms) < 2:
        raise DomainError("a tropical curve needs at least two terms")
    combined: dict = {}
    repeated = False
    for c, d in terms:
        cv = Fraction(c)
        dv = _frac_vec(d, 2)
        if dv in combined:
            repeated = True
            combined[dv] = max(combined[dv], cv)
        else:
            combined[dv] = cv
    if repeated:
        warnings.warn(
            "repeated exponent vectors combined by their larger constant",
            DegenerateInput,
            stacklevel=2,
        )
    tlist = sorted(combined.items())  # (d, c), deterministic order
    pieces = []
    for a in range(len(tlist)):
        for b in range(a + 1, len(tlist)):
            (di, ci), (dj, cj) = tlist[a], tlist[b]
            delta = (di[0] - dj[0], di[1] - dj[1])
            e = cj - ci
            den = delta[0] * delta[0] + delta[1] * delta[1]
            x0 = (e * delta[0] / den, e * delta[1] / den)
            v = (-delta[1], delta[0])
            tlo, thi = NEG_INF, POS_INF
            empty = False
            for dk, ck in tlist:
                if dk == di or dk == dj:
                    continue
                # value_i(x0 + t v) - value_k(x0 + t v) = alpha + beta t >= 0
                alpha = (di[0] - dk[0]) * x0[0] + (di[1] - dk[1]) * x0[1] + ci - ck
                beta = (di[0] - dk[0]) * v[0] + (di[1] - dk[1]) * v[1]
                if beta == 0:
                    if alpha < 0:
                        empty = True
                        break
                elif beta > 0:
                    bound = -alpha / beta
                    if tlo == NEG_INF or bound > tlo:
                        tlo = bound
                else:
                    bound = -alpha / beta
                    if thi == POS_INF or bound < thi:
                        thi = bound
            if empty or (tlo != NEG_INF and thi != POS_INF and tlo >= thi):
                continue
            prim, scale = _primitive(v)
            if tlo == NEG_INF and thi == POS_INF:
                if prim[0] < 0 or (prim[0] == 0 and prim[1] < 0):
                    prim = (-prim[0], -prim[1])
                pieces.append(CurvePiece(x0, prim, NEG_INF, POS_INF))
            elif tlo == NEG_INF:
                base = (x0[0] + thi * v[0], x0[1] + thi * v[1])
                pieces.append(CurvePiece(base, (-prim[0], -prim[1]), Fraction(0), POS_INF))
            else:
                base = (x0[0] + tlo * v[0], x0[1] + tlo * v[1])
                t1 = (thi - tlo) * scale if thi != POS_INF else POS_INF
                pieces.append(CurvePiece(base, prim, Fraction(0), t1))
    pieces.sort(key=lambda p: (p.base, p.direction, p.t0 == NEG_INF, p.t1))
    return TropicalCurve(tuple(pieces))


# --- amoebas of the complex line x + y + 1 = 0 -------------------------------


def log_h(z, h: float):
    """Coordinatewise h*ln|z| for a tuple of nonzero complex numbers."""
    _positive_finite(h, "h")
    out = []
    for zi in z:
        zi = complex(zi)
        if zi == 0:
            raise DomainError("log image undefined at a zero coordinate")
        out.append(h * math.log(abs(zi)))
    return tuple(out)


def amoeba_line_sample(h: float, samples: int) -> np.ndarray:
    """Sample the log_h image of the complex line {x + y + 1 = 0}.

    Zeros are parametrized as (t, -1 - t) for t != 0, -1.  The grid places
    ln|t| at an even number of symmetric levels in [-3, 3] (never 0, so t
    stays off the punctures) and spreads angles uniformly; the first
    `samples` grid points are returned as an (samples, 2) float array.
    """
    _positive_finite(h, "h")
    samples = int(samples)
    if samples < 1:
        raise DomainError("need at least one sample")
    n_theta = max(1, math.isqrt(samples - 1) + 1)
    n_r = -(-samples // n_theta)
    if n_r % 2:
        n_r += 1
    span = 3.0
    pts = []
    for j in range(n_r):
        u = span * (2 * j + 1 - n_r) / n_r
        r = math.exp(u)
        for k in range(n_theta):
            theta = 2.0 * math.pi * (k + 0.5) / n_theta
            t = complex(r * math.cos(theta), r * math.sin(theta))
            pts.append(log_h((t, -1.0 - t), h))
            if len(pts) == samples:
                return np.array(pts, dtype=float)
    return np.array(pts, dtype=float)
