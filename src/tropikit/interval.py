"""Weak interval extension of an idempotent semiring.

An interval [lower, upper] is a set of carrier values between its endpoints
in the standard order a <= b iff a (+) b == b.  Mind that for minplus this
order is reversed numerically: the "lower" endpoint is the larger number.
Endpointwise operations make the set of intervals a semiring again, and the
interval Bellman problem collapses to the two endpoint point-problems, so
uncertain systems cost exactly two ordinary solves instead of an exponential
endpoint search.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import linalg
from .errors import DomainError, NonConvergent, ShapeMismatch
from .semiring import (MINPLUS, SemiringSpec, _count, _floats, _Frozen, _operands, _real, _require_idempotent,
                       add, leq, mul)


class IntervalValue(_Frozen):
    """Closed interval in the standard order of an idempotent semiring; immutable."""

    __slots__ = ("lower", "upper", "spec")

    def __init__(self, lower: float, upper: float, spec: SemiringSpec):
        lower, upper = _real(lower, "lower endpoint") + 0.0, _real(upper, "upper endpoint") + 0.0
        if not leq(lower, upper, spec):
            raise DomainError(f"endpoints out of order for {spec.name}: {lower!r} !<= {upper!r}")
        self._set(lower=lower, upper=upper, spec=spec)

    @classmethod
    def from_numeric(cls, a: float, b: float, spec: SemiringSpec) -> "IntervalValue":
        """Build from two endpoint values in either order."""
        if leq(a, b, spec):
            return cls(a, b, spec)
        return cls(b, a, spec)

    def numeric(self):
        """(min, max) view of the endpoints, convenient for files and tests."""
        return (min(self.lower, self.upper), max(self.lower, self.upper))

    def contains(self, x: float) -> bool:
        return leq(self.lower, x, self.spec) and leq(x, self.upper, self.spec)

    def _key(self):
        return (self.spec.name, self.lower, self.upper)

    def __repr__(self):
        return f"IntervalValue({self.lower!r}, {self.upper!r}, spec={self.spec.name!r})"


def interval_add(x: IntervalValue, y: IntervalValue) -> IntervalValue:
    """Endpointwise (+); the tightest interval containing all pointwise sums."""
    spec = _operands(IntervalValue, x, y)
    return IntervalValue(add(x.lower, y.lower, spec), add(x.upper, y.upper, spec), spec)


def interval_mul(x: IntervalValue, y: IntervalValue) -> IntervalValue:
    """Endpointwise (x); monotonicity of the product keeps endpoints ordered."""
    spec = _operands(IntervalValue, x, y)
    return IntervalValue(mul(x.lower, y.lower, spec), mul(x.upper, y.upper, spec), spec)


class IntervalMatrix(_Frozen):
    """Matrix of intervals, stored as the two endpoint matrices; immutable."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: linalg.SemiringMatrix, upper: linalg.SemiringMatrix):
        spec = _operands(linalg.SemiringMatrix, lower, upper)
        _require_idempotent(spec, "an interval matrix")
        if lower.shape != upper.shape:
            raise ShapeMismatch(f"endpoint shapes differ: {lower.shape} vs {upper.shape}")
        if not np.array_equal(spec.add(lower.data, upper.data), upper.data):
            raise DomainError("some interval has endpoints out of standard order")
        self._set(lower=lower, upper=upper)

    @classmethod
    def from_arrays(cls, lower, upper, spec: SemiringSpec) -> "IntervalMatrix":
        return cls(linalg.SemiringMatrix(lower, spec), linalg.SemiringMatrix(upper, spec))

    @classmethod
    def from_numeric(cls, a, b, spec: SemiringSpec) -> "IntervalMatrix":
        """Entrywise IntervalValue.from_numeric: endpoint arrays in either order."""
        _operands(SemiringSpec, spec)
        a, b = _floats(a, "interval bounds"), _floats(b, "interval bounds")
        try:
            up = spec.add(a, b) == b
        except ValueError:
            raise ShapeMismatch(f"interval bounds of shapes {a.shape}, {b.shape} do not broadcast") from None
        return cls.from_arrays(np.where(up, a, b), np.where(up, b, a), spec)

    @property
    def spec(self) -> SemiringSpec:
        return self.lower.spec

    @property
    def shape(self):
        return self.lower.shape

    def entry(self, i: int, j: int) -> IntervalValue:
        """The interval at row i, column j; DomainError for an index that is
        not a count below the matrix's shape."""
        i, j = _count(i, "row index", least=0), _count(j, "column index", least=0)
        if i >= self.shape[0] or j >= self.shape[1]:
            raise DomainError(f"entry ({i}, {j}) is outside a matrix of shape {self.shape}")
        return IntervalValue(self.lower.data[i, j], self.upper.data[i, j], self.spec)

    def numeric_bounds(self):
        """(min_array, max_array) numeric view of the endpoint matrices."""
        return (
            np.minimum(self.lower.data, self.upper.data),
            np.maximum(self.lower.data, self.upper.data),
        )

    def contains_point(self, M: linalg.SemiringMatrix) -> bool:
        """Entrywise standard-order containment of a point matrix."""
        if _operands(linalg.SemiringMatrix, M).name != self.spec.name or M.shape != self.shape:
            return False
        spec = self.spec
        below = np.array_equal(spec.add(self.lower.data, M.data), M.data)
        above = np.array_equal(spec.add(M.data, self.upper.data), self.upper.data)
        return below and above

    def _key(self):
        return (self.lower, self.upper)


def interval_matrix_add(A: IntervalMatrix, B: IntervalMatrix) -> IntervalMatrix:
    _operands(IntervalMatrix, A, B)
    return IntervalMatrix(linalg.matrix_add(A.lower, B.lower), linalg.matrix_add(A.upper, B.upper))


def interval_matrix_mul(A: IntervalMatrix, B: IntervalMatrix) -> IntervalMatrix:
    _operands(IntervalMatrix, A, B)
    return IntervalMatrix(linalg.matrix_mul(A.lower, B.lower), linalg.matrix_mul(A.upper, B.upper))


def interval_adjacency(n: int, edges, spec: SemiringSpec = MINPLUS) -> IntervalMatrix:
    """Interval edge matrix from (src, dst, wmin, wmax) rows, or a record
    array of those four fields.

    Numeric bounds are converted to standard-order endpoints, all edges at
    once; parallel edges combine by interval (+); absent arcs are the
    degenerate zero interval.
    """
    n = _count(n, "n")
    src, dst, a, b = linalg._edge_columns(edges, 4)
    src, dst = linalg._node_ids(n, src, dst)
    w = IntervalMatrix.from_numeric(a[:, None], b[:, None], spec)
    lo = linalg._accumulate(n, src, dst, w.lower.data[:, 0], spec)
    hi = linalg._accumulate(n, src, dst, w.upper.data[:, 0], spec)
    return IntervalMatrix.from_arrays(lo, hi, spec)


def interval_bellman(
    H: IntervalMatrix, F: IntervalMatrix, max_iter: Optional[int] = None
) -> IntervalMatrix:
    """Least interval solution of X = H (x) X (+) F: exactly two point solves.

    The lower endpoints solve one ordinary Bellman system and the upper
    endpoints another; monotonicity of the iteration keeps the results
    ordered, so the pair is again a valid interval matrix, and each endpoint
    is attained by an admissible point problem.
    """
    _operands(IntervalMatrix, H, F)
    X = []
    for end, h, f in (("lower", H.lower, F.lower), ("upper", H.upper, F.upper)):
        try:
            X.append(linalg.solve_bellman_jacobi(h, f, max_iter=max_iter))
        except NonConvergent as e:
            raise NonConvergent(f"{end} endpoint system: {e}", endpoint=end) from None
    return IntervalMatrix(*X)
