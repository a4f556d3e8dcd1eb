"""Dense matrices over a semiring and fixpoint solvers for X = H (x) X (+) F.

Over minplus the least fixpoint is the vector of shortest path weights;
iterating from X0 = F reproduces the classical value-iteration scheme, and
the in-place row-sweep variant reproduces the arc-relaxation one.  Solutions
stabilize bitwise because the idempotent operations only select among (or
shift by) already-computed floats, so fixpoint detection is exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NegativeCycle,
    NonConvergent,
    NotIdempotent,
    ShapeMismatch,
)
from .semiring import MINPLUS, SemiringSpec, _reduce_rows, _same_spec


class SemiringMatrix:
    """2-D float64 matrix with entries in a fixed semiring carrier.

    Entries are validated once at construction; -0.0 is normalized to +0.0
    there, so equality of matrices is plain bitwise comparison.
    """

    __slots__ = ("spec", "data")

    def __init__(self, data, spec: SemiringSpec):
        arr = np.array(data, dtype=float, order="C")
        if arr.ndim != 2:
            raise ShapeMismatch(f"matrix must be 2-D, got shape {arr.shape}")
        arr = arr + 0.0
        if not bool(np.all(spec.contains(arr))):
            raise DomainError(f"matrix has entries outside the carrier of {spec.name}")
        arr.setflags(write=False)
        self.spec = spec
        self.data = arr

    @classmethod
    def zeros(cls, rows: int, cols: int, spec: SemiringSpec) -> "SemiringMatrix":
        return cls(np.full((rows, cols), spec.zero), spec)

    @classmethod
    def identity(cls, n: int, spec: SemiringSpec) -> "SemiringMatrix":
        arr = np.full((n, n), spec.zero)
        np.fill_diagonal(arr, spec.one)
        return cls(arr, spec)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __getitem__(self, idx):
        return self.data[idx]

    def __eq__(self, other):
        if not isinstance(other, SemiringMatrix):
            return NotImplemented
        return self.spec.name == other.spec.name and np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.spec.name, self.data.tobytes(), self.data.shape))

    def __repr__(self):
        return f"SemiringMatrix({self.data.tolist()!r}, spec={self.spec.name!r})"


def matrix_add(A: SemiringMatrix, B: SemiringMatrix) -> SemiringMatrix:
    """Entrywise (+)."""
    spec = _same_spec(A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot add shapes {A.shape} and {B.shape}")
    return SemiringMatrix(spec.add(A.data, B.data), spec)


def matrix_mul(A: SemiringMatrix, B: SemiringMatrix) -> SemiringMatrix:
    """Matrix product with (+) as sum and (x) as product, in row blocks."""
    spec = _same_spec(A, B)
    if A.cols != B.rows:
        raise ShapeMismatch(f"cannot multiply shapes {A.shape} and {B.shape}")
    a, b = A.data, B.data
    out = np.empty((A.rows, B.cols))
    _reduce_rows(spec, out, b.size, lambda s: spec.mul(a[s, :, None], b[None, :, :]))
    return SemiringMatrix(out, spec)


def _require_idempotent(spec: SemiringSpec, what: str) -> None:
    if not spec.idempotent:
        raise NotIdempotent(f"{what} needs an idempotent addition; {spec.name} has none")


def kleene_star(A: SemiringMatrix) -> SemiringMatrix:
    """A* = I (+) A (+) A^2 (+) ..., detected by exact stabilization.

    A budget of n+1 update passes is enough whenever the series stabilizes
    at all (path weights stop improving after n-1 steps); running out of
    budget signals genuine divergence, e.g. a negative cycle in the minplus
    reading.
    """
    _require_idempotent(A.spec, "kleene_star")
    if A.rows != A.cols:
        raise ShapeMismatch(f"kleene_star needs a square matrix, got {A.shape}")
    n = A.rows
    eye = SemiringMatrix.identity(n, A.spec)
    S = eye
    for _ in range(n + 1):
        nxt = matrix_add(eye, matrix_mul(A, S))
        if nxt == S:
            return S
        S = nxt
    raise NonConvergent(f"no fixpoint after {n + 1} iterations")


def _check_system(H: SemiringMatrix, F: SemiringMatrix) -> int:
    _same_spec(H, F)
    if H.rows != H.cols:
        raise ShapeMismatch(f"H must be square, got {H.shape}")
    if F.rows != H.rows:
        raise ShapeMismatch(f"F has {F.rows} rows for an {H.rows}-node system")
    return H.rows


def solve_bellman_jacobi(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by simultaneous updates from X0 = F.

    Returns X, or (X, info) with info["iterations"] counting update passes
    including the one that detects stabilization.
    """
    _require_idempotent(H.spec, "solve_bellman_jacobi")
    n = _check_system(H, F)
    budget = n + 1 if max_iter is None else int(max_iter)
    X = F
    for it in range(1, budget + 1):
        nxt = matrix_add(matrix_mul(H, X), F)
        if nxt == X:
            return (X, {"iterations": it}) if full_output else X
        X = nxt
    raise NonConvergent(f"no fixpoint after {budget} iterations")


def solve_bellman_gauss_seidel(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by in-place sweeps.

    Rows are updated in ascending index order within each sweep, every update
    seeing the freshest values; a sweep that changes nothing ends the solve.
    info["iterations"] counts sweeps including that final verification sweep.
    """
    _require_idempotent(H.spec, "solve_bellman_gauss_seidel")
    n = _check_system(H, F)
    spec = H.spec
    budget = n + 1 if max_iter is None else int(max_iter)
    X = F.data.copy()
    for sweep in range(1, budget + 1):
        changed = False
        for i in range(n):
            cand = spec.add(spec.add_reduce(spec.mul(H.data[i, :, None], X), axis=0), F.data[i])
            cand = np.asarray(cand) + 0.0
            if not np.array_equal(cand, X[i]):
                X[i] = cand
                changed = True
        if not changed:
            out = SemiringMatrix(X, spec)
            return (out, {"iterations": sweep}) if full_output else out
    raise NonConvergent(f"no fixpoint after {budget} sweeps")


@dataclass(frozen=True)
class Graph:
    """Weighted directed graph; node ids are 0..n-1, parallel edges allowed."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("graph needs at least one node")
        clean = []
        for e in self.edges:
            s, d, w = int(e[0]), int(e[1]), float(e[2])
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise DomainError(f"edge ({s}, {d}) out of range for {self.n} nodes")
            if not np.isfinite(w):
                raise DomainError(f"edge weight must be finite, got {w!r}")
            clean.append((s, d, w))
        object.__setattr__(self, "edges", tuple(clean))


def adjacency_matrix(g: Graph, spec: SemiringSpec = MINPLUS) -> SemiringMatrix:
    """Edge-weight matrix with absent arcs at the zero element; parallel
    edges combine by (+)."""
    arr = np.full((g.n, g.n), spec.zero)
    for s, d, w in g.edges:
        arr[s, d] = spec.add(arr[s, d], w)
    return SemiringMatrix(arr, spec)


def shortest_paths(g: Graph) -> SemiringMatrix:
    """All-pairs least path weights: the minplus star of the edge matrix.

    Entry (i, j) is the least weight of any i -> j path, the diagonal is 0.
    """
    try:
        return kleene_star(adjacency_matrix(g, MINPLUS))
    except NonConvergent:
        raise NegativeCycle("path weights are unbounded below (negative cycle)") from None
