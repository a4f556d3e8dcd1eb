"""Dense matrices over a semiring and fixpoint solvers for X = H (x) X (+) F.

Over minplus the least fixpoint is the vector of shortest path weights;
iterating from X0 = F reproduces the classical value-iteration scheme, and
the in-place row-sweep variant reproduces the arc-relaxation one.  Solutions
stabilize bitwise because the idempotent operations only select among (or
shift by) already-computed floats, so fixpoint detection is exact equality.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import DomainError, NegativeCycle, NonConvergent, ShapeMismatch
from .semiring import MINPLUS, SemiringSpec, _require_idempotent, _same_spec

# Float64 elements per pairwise temporary in matrix_mul: 256 KiB, which stays
# in L2 whatever the size of the problem.
_BLOCK = 1 << 15


class SemiringMatrix:
    """2-D float64 matrix with entries in a fixed semiring carrier.

    Entries are validated once at construction; -0.0 is normalized to +0.0
    there, so equality of matrices is plain bitwise comparison.
    """

    __slots__ = ("spec", "data", "_largest")

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


@contextmanager
def _overflow_is_domain_error(what: str):
    """No float warnings; a failed carrier check inside names the overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except DomainError:
            raise DomainError(f"{what}: a path weight overflows float64") from None


def _largest_finite(M: SemiringMatrix) -> float:
    """The largest magnitude of a finite entry of M (0.0 if none), cached:
    M is immutable."""
    try:
        return M._largest
    except AttributeError:
        M._largest = float(np.abs(M.data[np.isfinite(M.data)]).max(initial=0.0))
        return M._largest


def matrix_mul(A: SemiringMatrix, B: SemiringMatrix) -> SemiringMatrix:
    """Matrix product with (+) as sum and (x) as product, in blocks of rows
    whose pairwise temporary fits _BLOCK elements (one row at least), each
    output row reduced whole.  DomainError if a product of finite entries
    overflows, or an overflow leaves the carrier."""
    spec = _same_spec(A, B)
    if A.cols != B.rows:
        raise ShapeMismatch(f"cannot multiply shapes {A.shape} and {B.shape}")
    a, b = A.data, B.data
    out = np.empty((A.rows, B.cols))
    rows = max(1, _BLOCK // max(1, b.size))
    with _overflow_is_domain_error("matrix_mul"):
        # rounding is monotone, so no product of finite entries overflows
        # when the product of the largest finite magnitudes does not (for
        # a (x) that is +, *, min or max); only then is each block checked
        risky = not np.isfinite(spec.mul(_largest_finite(A), _largest_finite(B)))
        for lo in range(0, A.rows, rows):
            s = slice(lo, lo + rows)
            p = spec.mul(a[s, :, None], b[None, :, :])
            if risky and np.any(np.isinf(p) & np.isfinite(a[s, :, None]) & np.isfinite(b)):
                raise DomainError("a finite product overflows")
            out[s] = spec.add_reduce(p, axis=1)
        return SemiringMatrix(out, spec)


def kleene_star(A: SemiringMatrix) -> SemiringMatrix:
    """A* = I (+) A (+) A^2 (+) ..., by Kleene's elimination in O(n^3).

    Starting from S = A (+) I, each node k in turn becomes a pivot: first
    the divergence condition is checked, then the rank-1 update
    S <- S (+) S[:, k] (x) S[k, :] admits paths through k.  The star
    exists exactly when every pivot satisfies S[k, k] (+) one == one,
    i.e. no cycle through k is better than one: a negative cycle in
    minplus, a positive one in maxplus, never in bool or maxmin.  The first
    pivot that fails raises NonConvergent.  A custom spec is held to the
    same contract, using only its ``add`` and ``mul``.

    Path weights that leave the finite float64 range raise DomainError; a
    cycle whose weight overflows past every float is a divergent one.
    """
    _require_idempotent(A.spec, "kleene_star")
    if A.rows != A.cols:
        raise ShapeMismatch(f"kleene_star needs a square matrix, got {A.shape}")
    spec, one = A.spec, A.spec.one
    S = A.data.copy()
    np.fill_diagonal(S, spec.add(np.diag(S), one))
    with _overflow_is_domain_error("kleene_star"):
        for k in range(A.rows):
            d = S[k, k]
            if spec.add(d, one) != one:
                if np.isnan(d):  # inf - inf after an overflow: no cycle to blame
                    break
                raise NonConvergent(
                    f"the star diverges: a cycle through node {k} has weight "
                    f"{float(d)!r}, better than one ({one!r})"
                )
            S = spec.add(S, spec.mul(S[:, k, None], S[None, k, :]))
        return SemiringMatrix(S, spec)


def _negative_cycle(W: np.ndarray) -> tuple:
    """Nodes of a simple cycle of negative weight in the minplus edge matrix W.

    Value iteration from a virtual source: after n rounds, a node whose
    distance still fell ends a least n-arc walk, and any cycle on that
    walk is negative.  O(n^3), run only once divergence is known.  Weights
    are scaled by a power of two first, so no n-arc sum overflows; returns
    () if float rounding hides the cycle.
    """
    n = W.shape[0]
    W = np.ldexp(W, -n.bit_length())
    dist = np.zeros(n)
    pred = np.full((n, n), -1)
    for t in range(n):
        cand = dist[:, None] + W
        best = cand.min(axis=0)
        fell = best < dist
        pred[t] = np.where(fell, cand.argmin(axis=0), -1)
        dist = np.where(fell, best, dist)
    walk = [int(np.argmax(fell))]
    for t in range(n - 1, -1, -1):
        if pred[t, walk[-1]] >= 0:
            walk.append(int(pred[t, walk[-1]]))
    walk.reverse()
    seen = {}
    for j, v in enumerate(walk):
        if v in seen:
            cycle = walk[seen[v]:j]
            break
        seen[v] = j
    else:
        return ()
    if math.fsum(W[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1])) >= 0:
        return ()
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


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
    including the one that detects stabilization.  DomainError on overflow."""
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
    DomainError if a path weight overflows float64."""
    _require_idempotent(H.spec, "solve_bellman_gauss_seidel")
    n = _check_system(H, F)
    spec = H.spec
    budget = n + 1 if max_iter is None else int(max_iter)
    X = F.data.copy()
    with _overflow_is_domain_error("solve_bellman_gauss_seidel"):
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
        SemiringMatrix(X, spec)  # an overflow leaves X outside the carrier for good
    raise NonConvergent(f"no fixpoint after {budget} sweeps")


def _edge_columns(edges, k: int) -> list:
    """The k columns of an edge list: the fields of a record array, or the
    columns, as floats, of a sequence of k-tuples."""
    if isinstance(edges, np.ndarray) and edges.dtype.names:
        return [edges[f] for f in edges.dtype.names]
    rows = np.array(edges, dtype=float)
    return list(rows.reshape(len(rows), k).T)


def _node_ids(n: int, src, dst):
    """src and dst as int64 arrays of node ids 0..n-1; DomainError, naming
    the first edge at fault, for an id that is NaN, fractional or out of
    range."""
    ok = np.ones(len(src), dtype=bool)
    for ids in (src, dst):
        ok &= (ids >= 0) & (ids < n) & (ids == np.trunc(ids))  # NaN fails all three
    if not ok.all():
        i = int(np.argmin(ok))
        s, d = (repr(float(x)).removesuffix(".0") for x in (src[i], dst[i]))
        raise DomainError(f"edge ({s}, {d}) out of range for {n} nodes")
    return src.astype(np.int64), dst.astype(np.int64)


class Graph:
    """Weighted directed graph; node ids are 0..n-1, parallel edges allowed.

    Built from (src, dst, weight) triples or a record array of three fields,
    and held as three read-only arrays: src, dst (int64) and w (float64).
    Immutable, like a frozen dataclass: setting an attribute raises
    FrozenInstanceError.
    """

    __slots__ = ("n", "src", "dst", "w")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise DomainError("graph needs at least one node")
        src, dst, w = _edge_columns(edges, 3)
        src, dst = _node_ids(n, src, dst)
        w = np.array(w, dtype=float)
        if not np.isfinite(w).all():
            raise DomainError(f"edge weight must be finite, got {float(w[~np.isfinite(w)][0])!r}")
        for a in (src, dst, w):
            a.setflags(write=False)
        for name, value in zip(self.__slots__, (n, src, dst, w)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def edges(self) -> tuple:
        """The edges as (src, dst, weight) triples of int, int, float."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges!r})"


def _accumulate(n: int, src, dst, w, spec: SemiringSpec) -> np.ndarray:
    """n x n zero matrix with each w[i] added into (src[i], dst[i]) by (+).

    One spec.add call per occurrence rank: the r-th edge of every arc at
    once, so each entry is the left fold over its edges in edge order, as
    one edge at a time would give.
    """
    key = src * n + dst
    order = np.argsort(key, kind="stable")  # by arc, in edge order within one
    k = key[order]
    at = np.arange(len(k))
    rank = at - np.maximum.accumulate(np.where(np.diff(k, prepend=-1) != 0, at, 0))
    order = order[np.argsort(rank, kind="stable")]  # by rank, then by arc
    out = np.full(n * n, spec.zero)
    lo = 0
    for count in np.bincount(rank).tolist():
        e = order[lo:lo + count]
        out[key[e]] = spec.add(out[key[e]], w[e])
        lo += count
    return out.reshape(n, n)


def adjacency_matrix(g: Graph, spec: SemiringSpec = MINPLUS) -> SemiringMatrix:
    """Edge-weight matrix with absent arcs at the zero element; parallel
    edges combine by (+)."""
    return SemiringMatrix(_accumulate(g.n, g.src, g.dst, g.w, spec), spec)


def shortest_paths(g: Graph) -> SemiringMatrix:
    """All-pairs least path weights: the minplus star of the edge matrix.

    Entry (i, j) is the least weight of any i -> j path, the diagonal is 0.
    A negative cycle raises NegativeCycle with the cycle as its witness.
    """
    A = adjacency_matrix(g, MINPLUS)
    try:
        return kleene_star(A)
    except NonConvergent:
        cycle = _negative_cycle(A.data)
        msg = "path weights are unbounded below: negative cycle"
        if cycle:
            msg += " " + " -> ".join(map(str, cycle + cycle[:1]))
        raise NegativeCycle(msg, cycle=cycle) from None
