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
onto them as h -> 0.  Polytopes and curves are exact over the rationals
(ints or Fractions): they run on integers scaled once by the lcm of the
denominators, and build Fractions only at the output.
"""

from __future__ import annotations

import cmath
import math
import re
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import AmbiguousLimit, CancellationAtPoint, DegenerateInput, DimensionMismatch, DomainError
from .semiring import (NEG_INF, POS_INF, _allocatable, _count, _Frozen, _no_overflow, _operands,
                       _positive_finite, _real, _short)


# Fraction reads a decimal exponent e by forming 10**e exactly, which takes
# seconds for e in the millions; an exponent of more than Python's default
# limit on the digits of an int read from a string is refused first.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*$", re.IGNORECASE)


def _rational(x):
    """x as an exact rational: an int or a Fraction as it is, integer text
    by int(), anything else by Fraction(x).  A Decimal is read through its
    text, which is exact; ValueError for text with a decimal exponent beyond
    _MAX_EXPONENT in size."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Decimal):
        x = str(x)
    if isinstance(x, str):
        if "_" not in x:  # Fraction refuses the separators that int takes on 3.10
            try:
                return int(x)
            except ValueError:
                pass
        e = _EXPONENT.search(x)
        if e and abs(int(e[1])) > _MAX_EXPONENT:
            raise ValueError(f"exponent beyond {_MAX_EXPONENT} in {x!r}")
    return Fraction(x)


def _frac_vec(v, n: int) -> tuple:
    try:
        t = tuple(map(_rational, v))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"cannot read {_short(v)} as a rational vector") from None
    if len(t) != n:
        raise DimensionMismatch(f"expected a {n}-vector, got {len(t)} components")
    return t


def _finite_vec(v, kind, what: str) -> tuple:
    """v as a tuple of finite kind (float or complex) numbers, else DomainError."""
    try:
        t = tuple(kind(c) for c in v)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"cannot read {what} {_short(v)}") from None
    if not all(map(cmath.isfinite, t)):
        raise DomainError(f"{what} must be finite, got {_short(t)}")
    return t


def _items(x, what: str) -> list:
    """list(x), or DomainError if x is not iterable."""
    try:
        return list(x)
    except TypeError:
        raise DomainError(f"{what} must be iterable, got {_short(x)}") from None


def _terms(x) -> list:
    """The (coefficient, exponents) pairs of the terms x, as a list of
    2-tuples; DomainError if x is not iterable or a term is not a pair."""
    pairs = []
    for term in _items(x, "terms"):
        try:
            c, d = term
        except (TypeError, ValueError):
            raise DomainError(f"a term is a (coefficient, exponents) pair, got {_short(term)}") from None
        pairs.append((c, d))
    return pairs


def _scaled(points, n: int):
    """(L, ints): L the lcm of the denominators of the rational n-vectors
    points, ints those vectors times L as tuples of Python ints."""
    pts = [_frac_vec(p, n) for p in points]
    L = math.lcm(*(c.denominator for p in pts for c in p))
    return L, [tuple(c.numerator * (L // c.denominator) for c in p) for p in pts]


# --- generalized polynomials -------------------------------------------------


class GenPolynomial(_Frozen):
    """Finite sum of monomials a * y1^d1 * ... * yn^dn with rational exponents.

    Coefficients are nonzero reals; exponent vectors are distinct, read by
    _rational.  On the open positive orthant every monomial is
    single-valued, which is all the dequantization map needs.  Immutable.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        n = _count(n, "n")
        seen = set()
        norm = []
        for c, d in _terms(terms):
            c = _real(c, "coefficient")
            if c == 0.0 or not math.isfinite(c):
                raise DomainError(f"coefficients must be nonzero finite reals, got {c!r}")
            dv = _frac_vec(d, n)
            if dv in seen:
                raise DomainError(f"repeated exponent vector {_short(dv)}; combine terms first")
            seen.add(dv)
            norm.append((c, dv))
        if not norm:
            raise DomainError("polynomial needs at least one term")
        self._set(n=n, terms=tuple(norm))

    def _key(self):
        return (self.n, self.terms)

    @property
    def positive(self) -> bool:
        return all(c > 0 for c, _ in self.terms)

    def exponents(self):
        return [d for _, d in self.terms]


def _collected(n: int, terms, what: str) -> GenPolynomial:
    """The n-variable polynomial of the (coefficient, exponents) pairs terms,
    the coefficients of like exponents summed in order and exact float zeros
    dropped; DomainError, naming the what, if none is left."""
    acc = {}
    for c, d in terms:
        acc[d] = acc.get(d, 0.0) + c
    terms = sorted((c, d) for d, c in acc.items() if c != 0.0)
    if not terms:
        raise DomainError(f"{what} cancelled to the zero polynomial")
    return GenPolynomial(n, terms)


def poly_add(f: GenPolynomial, g: GenPolynomial) -> GenPolynomial:
    """f + g with like exponents combined; exact float zeros are dropped."""
    return _collected(_operands(GenPolynomial, f, g), f.terms + g.terms, "sum")


def poly_mul(f: GenPolynomial, g: GenPolynomial) -> GenPolynomial:
    """f * g; exponent vectors add, coefficients of like terms accumulate."""
    n = _operands(GenPolynomial, f, g)
    return _collected(n, ((cf * cg, tuple(a + b for a, b in zip(df, dg)))
                          for cf, df in f.terms for cg, dg in g.terms), "product")


def _dots(f: GenPolynomial, x: Sequence[float]) -> tuple:
    """(xs, dots): x as floats, one finite coordinate per variable of f, and
    the float dot products (d_i, xs); DomainError unless their maximum is a
    finite float."""
    xs = _finite_vec(x, float, "evaluation point")
    if len(xs) != _operands(GenPolynomial, f):
        raise DimensionMismatch(f"point has {len(xs)} coordinates, polynomial has {f.n}")
    try:
        dots = [sum(float(dk) * xk for dk, xk in zip(d, xs)) for _, d in f.terms]
    except OverflowError:  # an exponent beyond float64
        dots = [math.nan]
    if any(map(math.isnan, dots)) or math.isinf(max(dots)):
        raise DomainError(f"the exponent dot products at {xs} overflow float64")
    return xs, dots


def eval_dequantized(f: GenPolynomial, x: Sequence[float], h: float) -> float:
    """h * ln|f(exp(x1/h), ..., exp(xn/h))| without overflow.

    With s_i = (d_i, x)/h + ln|a_i| this is h*(M + ln|sum_i sgn(a_i)
    e^{s_i - M}|), M = max s_i; the shifted exponentials stay in [0, 1].
    Returns -inf (and warns) if mixed-sign terms cancel exactly at x, and
    raises DomainError if the largest s_i or the result is not a finite float.
    """
    h = _positive_finite(h, "h")
    xs, dots = _dots(f, x)
    s = np.array([v / h + math.log(abs(c)) for v, (c, _) in zip(dots, f.terms)])
    signs = np.array([1.0 if c > 0 else -1.0 for c, _ in f.terms])
    m = float(s.max())
    if not math.isfinite(m):
        raise DomainError(f"scaled exponents at {xs} overflow float64 for h = {h!r}")
    with np.errstate(over="ignore"):  # s_i - M below -1.8e308 is -inf; its exp is 0
        inner = float(np.sum(signs * np.exp(s - m)))
    if inner == 0.0:
        warnings.warn(
            f"terms cancel exactly at {xs}; the dequantized value is -inf there",
            CancellationAtPoint,
            stacklevel=2,
        )
        return NEG_INF
    out = h * (m + math.log(abs(inner)))
    if not math.isfinite(out):
        raise DomainError(f"h*ln|f| at {xs} overflows float64 for h = {h!r}")
    return out


def dequantize_limit(f: GenPolynomial, x: Sequence[float]) -> float:
    """Pointwise h -> 0 limit of eval_dequantized: max_i (d_i, x).

    Always determined when every coefficient is positive; with mixed signs
    the leading exponent must be attained by exactly one term, otherwise the
    limit genuinely depends on cancellations and AmbiguousLimit is raised.
    """
    xs, dots = _dots(f, x)
    m = max(dots)
    if f.positive or dots.count(m) == 1:
        return m + 0.0
    raise AmbiguousLimit(f"leading exponent tied at {xs} with mixed-sign coefficients")


# --- polytopes over the rationals -------------------------------------------


def _chain(pts):
    # Andrew's monotone chain on sorted distinct integer points; strict turns
    # only, so no collinear interior vertices survive.  Counterclockwise from
    # the lexicographic minimum; degenerate inputs give a point or a segment.
    if len(pts) <= 2:
        return pts
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


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


class Polytope(_Frozen):
    """Convex hull of finitely many rational points, read once into integers
    scaled by the lcm of their denominators and made exact Fractions at the end.

    Dimensions 1 and 2 are reduced to canonical vertex lists (sorted
    endpoints; counterclockwise from the lexicographic minimum).  Higher
    dimensions keep the sorted distinct points; equality then compares exact
    support-function values on a fixed bundle of 64 integer directions, a
    randomized but arithmetic-exact certificate.  Immutable.
    """

    __slots__ = ("n", "vertices")

    def __init__(self, n: int, vertices):
        n = _count(n, "n")
        pts = _items(vertices, "points")
        if not pts:
            raise DomainError("polytope needs at least one point")
        L, pts = _scaled(pts, n)
        pts = sorted(set(pts))
        if n == 1:
            pts = sorted({pts[0], pts[-1]})
        elif n == 2:
            pts = _chain(pts)
        self._set(n=n, vertices=tuple(tuple(Fraction(c, L) for c in p) for p in pts))

    @property
    def reduced(self) -> bool:
        """True when vertices is the canonical vertex list, i.e. n <= 2."""
        return self.n <= 2

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
    return Polytope(_operands(Polytope, P, Q), P.vertices + Q.vertices)


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
    n = _operands(Polytope, P, Q)
    if n == 2 and len(P.vertices) > 1 and len(Q.vertices) > 1:
        return Polytope(2, _minkowski_2d(P.vertices, Q.vertices))
    sums = [tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices]
    return Polytope(n, sums)


def newton_set(f: GenPolynomial) -> Polytope:
    """Convex hull of the exponent vectors of f.

    This is also the subdifferential at 0 of the dequantized limit
    max_i (d_i, x); see Polytope.reduced for its vertex list.
    """
    return Polytope(_operands(GenPolynomial, f), [d for _, d in f.terms])


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


def tropical_curve_2d(terms) -> TropicalCurve:
    """Corner locus of p(x) = max_i ((d_i, x) + c_i), exact over the rationals.

    Each pair of terms ties on a line; the piece kept is the part of that
    line where the tied value also dominates every other term, computed as a
    1-D parameter-interval intersection.  Terms repeating an exponent vector
    are first combined by the larger constant (reported as DegenerateInput).
    Degenerate single-point intersections are dropped: whenever the locus is
    nonempty it is a union of the 1-D pieces, which cover those vertices.

    The scan runs on Python ints: with the exponents scaled by M and the
    constants by L (the lcms of their denominators), the corner locus of
    max_i ((D_i, y) + C_i) maps onto that of p by x = (M/L) y.  Parameter
    bounds are integer pairs; only the pieces kept become Fractions.
    """
    terms = _terms(terms)
    if len(terms) < 2:
        raise DomainError("a tropical curve needs at least two terms")
    M, exps = _scaled([d for _, d in terms], 2)
    L, consts = _scaled([(c,) for c, _ in terms], 1)
    combined: dict = {}
    for d, (c,) in zip(exps, consts):
        combined[d] = max(combined.get(d, c), c)
    if len(combined) < len(terms):
        warnings.warn(
            "repeated exponent vectors combined by their larger constant",
            DegenerateInput,
            stacklevel=2,
        )
    tlist = sorted(combined.items())  # (D, C), deterministic order
    pieces = []
    for a, ((ix, iy), ci) in enumerate(tlist):
        for b in range(a + 1, len(tlist)):
            (jx, jy), cj = tlist[b]
            dx, dy, e = ix - jx, iy - jy, cj - ci
            den = dx * dx + dy * dy
            # the tie line is y(s) = (e (dx, dy) + s (-dy, dx)) / den; term k
            # stays below it where A + beta s >= 0.  Bounds on s are (p, q > 0).
            lo = hi = None
            empty = False
            for k, ((kx, ky), ck) in enumerate(tlist):
                if k == a or k == b:
                    continue
                wx, wy = ix - kx, iy - ky
                A = e * (wx * dx + wy * dy) + (ci - ck) * den
                beta = wy * dx - wx * dy
                if beta == 0:
                    if A < 0:
                        empty = True
                        break
                elif beta > 0:
                    if lo is None or -A * lo[1] > lo[0] * beta:
                        lo = (-A, beta)
                elif hi is None or A * hi[1] < hi[0] * -beta:
                    hi = (A, -beta)
            if empty or (lo and hi and lo[0] * hi[1] >= hi[0] * lo[1]):
                continue
            g = math.gcd(dx, dy)
            prim = (-dy // g, dx // g)
            t0, t1 = Fraction(0), POS_INF
            if lo is None and hi is None:
                if prim[0] < 0 or (prim[0] == 0 and prim[1] < 0):
                    prim = (-prim[0], -prim[1])
                (p, q), t0 = (0, 1), NEG_INF
            elif lo is None:
                (p, q), prim = hi, (-prim[0], -prim[1])
            else:
                p, q = lo
                if hi is not None:
                    t1 = Fraction(M * g * (hi[0] * q - p * hi[1]), L * den * hi[1] * q)
            scale = L * den * q
            base = (Fraction(M * (e * dx * q - p * dy), scale),
                    Fraction(M * (e * dy * q + p * dx), scale))
            pieces.append(CurvePiece(base, prim, t0, t1))
    pieces.sort(key=lambda p: (p.base, p.direction, p.t0 == NEG_INF, p.t1))
    return TropicalCurve(tuple(pieces))


# --- amoebas of the complex line x + y + 1 = 0 -------------------------------


def _h_ln(h: float, x, y, what: str) -> np.ndarray:
    # h*ln|x + iy| by libm's hypot and log, the bits abs(complex) and math.log give
    with _no_overflow(f"{what}: h*ln|z|"):
        m = np.hypot(x, y)
        return h * np.array([math.log(v) for v in m.ravel().tolist()]).reshape(m.shape)


def log_h(z, h: float):
    """Coordinatewise h*ln|z| for a tuple of nonzero finite complex numbers;
    DomainError for any other coordinate or if one h*ln|z| overflows float64."""
    h = _positive_finite(h, "h")
    z = _finite_vec(z, complex, "complex point")
    if 0 in z:
        raise DomainError("log image undefined at a zero coordinate")
    return tuple(_h_ln(h, [c.real for c in z], [c.imag for c in z], "log_h").tolist())


def amoeba_line_sample(h: float, samples: int) -> np.ndarray:
    """Sample the log_h image of the complex line {x + y + 1 = 0}.

    Zeros are parametrized as (t, -1 - t) for t != 0, -1.  The grid places
    ln|t| at an even number of symmetric levels in [-3, 3] (never 0, so t
    stays off the punctures) and spreads angles uniformly; the first
    `samples` grid points are returned as an (samples, 2) float array.
    DomainError if h*ln|z| overflows float64; OutOfMemory for a count
    beyond numpy's largest array.
    """
    h = _positive_finite(h, "h")
    samples = _count(samples, "samples")
    _allocatable(f"{samples} samples are too many to allocate", samples)
    n_theta = math.isqrt(samples - 1) + 1
    n_r = -(-samples // n_theta)
    n_r += n_r % 2
    j, k = np.divmod(np.arange(samples), n_theta)
    r = np.array([math.exp(3.0 * (2 * i + 1 - n_r) / n_r) for i in range(n_r)])[j]
    theta = [2.0 * math.pi * (i + 0.5) / n_theta for i in range(n_theta)]
    x, y = r * np.array([[math.cos(a) for a in theta], [math.sin(a) for a in theta]])[:, k]
    return _h_ln(h, np.column_stack([x, -1.0 - x]), y[:, None], "amoeba_line_sample")
