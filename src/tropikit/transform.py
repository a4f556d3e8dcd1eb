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
from .semiring import MAXPLUS, MINPLUS, _reduce_rows

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


def _same_grid(phi: SampledFunction, psi: SampledFunction) -> None:
    if phi.convention != psi.convention:
        raise GridMismatch(f"mixed conventions: {phi.convention} vs {psi.convention}")
    if phi.start != psi.start or phi.step != psi.step or len(phi) != len(psi):
        raise GridMismatch("functions are sampled on different grids")


def idempotent_integral(phi: SampledFunction) -> float:
    """Integral with values in the idempotent semiring: the grid extremum."""
    return float(_SPECS[phi.convention].add_reduce(phi.values, axis=0)) + 0.0


def integral_wrt_measure(phi: SampledFunction, psi: SampledFunction) -> float:
    """Integral of phi against the density psi: extremum of phi + psi."""
    _same_grid(phi, psi)
    return float(_SPECS[phi.convention].add_reduce(phi.values + psi.values, axis=0)) + 0.0


def pointwise_add(phi: SampledFunction, psi: SampledFunction) -> SampledFunction:
    """(+) of functions: pointwise max (or min)."""
    _same_grid(phi, psi)
    values = _SPECS[phi.convention].add(phi.values, psi.values)
    return SampledFunction(phi.start, phi.step, values, phi.convention)


def scalar_mul(c: float, phi: SampledFunction) -> SampledFunction:
    """(x) by a scalar: shift the whole function by c."""
    c = float(c)
    if not math.isfinite(c):
        raise DomainError(f"scalar must be finite, got {c!r}")
    return SampledFunction(phi.start, phi.step, phi.values + c, phi.convention)


def convolution(phi: SampledFunction, psi: SampledFunction) -> SampledFunction:
    """Idempotent convolution (phi (*) psi)(g) = extremum_x phi(x) + psi(g - x).

    Grids must share step and convention; the output grid spans
    [start_phi + start_psi, end_phi + end_psi] at the same step.  A single
    sample at 0 with value 0 is the unit.
    """
    if phi.convention != psi.convention:
        raise GridMismatch(f"mixed conventions: {phi.convention} vs {psi.convention}")
    if phi.step != psi.step:
        raise GridMismatch(f"mixed steps: {phi.step!r} vs {psi.step!r}")
    spec = _SPECS[phi.convention]
    # one Python step per sample of the shorter operand
    a, b = sorted((phi.values, psi.values), key=len)
    nb = b.size
    out = np.full(a.size + nb - 1, spec.zero)
    for i in range(a.size):
        spec.add(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    return SampledFunction(phi.start + psi.start, phi.step, out, phi.convention)


def legendre(
    phi: SampledFunction, xi_start: float, xi_step: float, xi_count: int
) -> SampledFunction:
    """phi~(xi) = max_x (xi*x + phi(x)) on the requested slope grid.

    Requires the maxplus convention (the transform is the sup-kernel
    integral with kernel xi*x).  The result is convex in xi: it is a finite
    max of affine functions with slopes on the x grid.
    """
    if phi.convention != "maxplus":
        raise DomainError("the slope transform is defined for maxplus functions")
    xi_count = int(xi_count)
    if xi_count < 1:
        raise DomainError("need at least one output sample")
    xi_start, xi_step = _check_grid(xi_start, xi_step, xi_count)
    xs = phi.grid()
    xis = xi_start + xi_step * np.arange(xi_count)
    out = np.empty(xi_count)
    _reduce_rows(MAXPLUS, out, xs.size, lambda s: xis[s, None] * xs[None, :] + phi.values)
    return SampledFunction(xi_start, xi_step, out, "maxplus")


def hopf_lax_evolve(s0: SampledFunction, t: float, m: float = 1.0) -> SampledFunction:
    """Value function at time t of the free Hamilton-Jacobi flow:

        S(x, t) = min_y ( s0(y) + m*(x - y)^2 / (2t) )

    i.e. the min-plus integral operator with the parabolic Green kernel; s0
    must be a minplus function.  The output lives on the same grid.
    """
    if s0.convention != "minplus":
        raise DomainError("the evolution acts on minplus initial data")
    t = float(t)
    m = float(m)
    if not (math.isfinite(t) and t > 0):
        raise DomainError(f"time must be a positive real, got {t!r}")
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"mass must be a positive real, got {m!r}")
    ys = s0.grid()
    c = m / (2.0 * t)
    out = np.empty(ys.size)

    def term(s):
        diff = ys[s, None] - ys[None, :]
        return s0.values + c * (diff * diff)

    _reduce_rows(MINPLUS, out, ys.size, term)
    return SampledFunction(s0.start, s0.step, out, "minplus")
