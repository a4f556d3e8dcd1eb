"""Dense matrices over a semiring and fixpoint solvers for X = H (x) X (+) F.

Over minplus the least fixpoint is the vector of shortest path weights;
iterating from X0 = F reproduces the classical value-iteration scheme, and
the in-place row-sweep variant reproduces the arc-relaxation one.  Solutions
stabilize bitwise because the idempotent operations only select among (or
shift by) already-computed floats, so fixpoint detection is exact equality.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NegativeCycle, NonConvergent, ShapeMismatch
from .semiring import (MINPLUS, SemiringSpec, _allocatable, _count, _floats, _Frozen, _no_overflow, _operands,
                       _require_idempotent)

# Float64 elements per pairwise temporary in matrix_mul: 256 KiB, which stays
# in L2 whatever the size of the problem.
_BLOCK = 1 << 15


class SemiringMatrix(_Frozen):
    """2-D float64 matrix with entries in a fixed semiring carrier.

    Entries are validated once at construction; -0.0 is normalized to +0.0
    there, so equality of matrices is plain bitwise comparison.  Immutable,
    with a read-only data array.
    """

    __slots__ = ("spec", "data")

    def __init__(self, data, spec: SemiringSpec):
        _operands(SemiringSpec, spec)
        arr = _floats(data, "matrix", 2)
        np.add(arr, 0.0, out=arr)  # -0.0 to +0.0, on the one copy
        if not bool(np.all(spec.contains(arr))):
            raise DomainError(f"matrix has entries outside the carrier of {spec.name}")
        arr.setflags(write=False)
        self._set(spec=spec, data=arr)

    @classmethod
    def zeros(cls, rows: int, cols: int, spec: SemiringSpec) -> "SemiringMatrix":
        rows, cols = _count(rows, "rows", 0), _count(cols, "cols", 0)
        _operands(SemiringSpec, spec)
        _allocatable(f"a {rows} x {cols} matrix is too large to allocate", rows, cols)
        return cls(np.full((rows, cols), spec.zero), spec)

    @classmethod
    def identity(cls, n: int, spec: SemiringSpec) -> "SemiringMatrix":
        n = _count(n, "n", 0)
        _operands(SemiringSpec, spec)
        _allocatable(f"a {n} x {n} matrix is too large to allocate", n, n)
        return cls(np.where(np.eye(n, dtype=bool), spec.one, spec.zero), spec)

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

    def _key(self):
        return (self.spec.name, self.data.tobytes(), self.shape)

    def __repr__(self):
        return f"SemiringMatrix({self.data.tolist()!r}, spec={self.spec.name!r})"


def matrix_add(A: SemiringMatrix, B: SemiringMatrix) -> SemiringMatrix:
    """Entrywise (+)."""
    spec = _operands(SemiringMatrix, A, B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"cannot add shapes {A.shape} and {B.shape}")
    return SemiringMatrix(spec.add(A.data, B.data), spec)


def matrix_mul(A: SemiringMatrix, B: SemiringMatrix) -> SemiringMatrix:
    """Matrix product with (+) as sum and (x) as product, in blocks of rows
    whose pairwise temporary fits _BLOCK elements (one row at least), each
    output row reduced whole.  DomainError if a product of finite entries
    overflows float64, in any pair, winning or not."""
    spec = _operands(SemiringMatrix, A, B)
    if A.cols != B.rows:
        raise ShapeMismatch(f"cannot multiply shapes {A.shape} and {B.shape}")
    b = B.data[None]
    out = np.empty((A.rows, B.cols))
    with _no_overflow("matrix_mul: a path weight"):
        _row_products(spec, A.data, lambda s: b, out)
    return SemiringMatrix(out, spec)


def _row_products(spec: SemiringSpec, a: np.ndarray, take, out: np.ndarray) -> np.ndarray:
    """out[i] = (+) over j of a[i, j] (x) take(s)[., j], for blocks s of the
    rows of a whose pairwise temporary fits _BLOCK elements (one row at
    least); take(s) is the right operand of block s, of shape (rows of s or
    1, a.shape[1], out.shape[1]).  Each output row is reduced whole."""
    if not a.shape[1]:  # an empty sum is the zero, which add_reduce may not know
        out[...] = spec.zero
        return out
    rows = max(1, _BLOCK // max(1, a.shape[1] * out.shape[1]))
    for lo in range(0, a.shape[0], rows):
        s = slice(lo, lo + rows)
        out[s] = spec.add_reduce(spec.mul(a[s, :, None], take(s)), axis=1)
    return out


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

    A product of finite weights that overflows float64 raises DomainError,
    except on the diagonal: an entry there is a cycle, and a cycle whose
    weight overflows is a divergent one, which the pivot checks judge.
    """
    _require_idempotent(_operands(SemiringMatrix, A), "kleene_star")
    if A.rows != A.cols:
        raise ShapeMismatch(f"kleene_star needs a square matrix, got {A.shape}")
    spec, one = A.spec, A.spec.one
    S = A.data.copy()
    np.fill_diagonal(S, spec.add(np.diag(S), one))
    # one buffer for every pivot's products, and the update written over S:
    # the products are all formed before S changes
    P = np.empty_like(S) if _ufuncs(spec) else None
    into_P, into_S = ({"out": P}, {"out": S}) if P is not None else ({}, {})
    with _no_overflow("kleene_star: a path weight"):
        for k in range(A.rows):
            d = S[k, k]
            if spec.add(d, one) != one:
                raise NonConvergent(
                    f"the star diverges: a cycle through node {k} has weight "
                    f"{float(d)!r}, better than one ({one!r})"
                )
            col, row = S[:, k, None], S[None, k, :]
            try:
                P = spec.mul(col, row, **into_P)
            except FloatingPointError:
                with np.errstate(over="ignore"):
                    P = spec.mul(col, row, **into_P)
                over = np.isinf(P) & np.isfinite(col) & np.isfinite(row)
                np.fill_diagonal(over, False)
                if over.any():
                    raise
            S = spec.add(S, P, **into_S)
    del P, into_P  # free the buffer before the result's copy
    return SemiringMatrix(S, spec)


def _ufuncs(spec: SemiringSpec) -> bool:
    """Whether both operations of spec are numpy ufuncs, which write into a
    given array, as those of the built-in specs are; a deformed or custom
    spec keeps the calls that allocate their results."""
    return isinstance(spec.add, np.ufunc) and isinstance(spec.mul, np.ufunc)


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


def _split_rows(H: SemiringMatrix, lower: bool) -> tuple:
    """The entries of H that are not the zero as two padded row layouts
    (weights, columns), L and U: row i holds its entries in column order,
    padded to the widest row of its part (at least one) with the zero at
    column 0.  L is the strictly lower part of H if lower, else empty."""
    spec, n = H.spec, H.rows
    r, c = np.divmod(np.flatnonzero(H.data != spec.zero), n)  # row-major
    end = r if lower else 0  # row i of L ends before column end
    parts = []
    for keep in (c < end, c >= end):
        ri, ci = r[keep], c[keep]
        counts = np.bincount(ri, minlength=n)
        pos = np.arange(ri.size) - np.repeat(np.cumsum(counts) - counts, counts)
        W = np.full((n, max(1, int(counts.max(initial=0)))), spec.zero)
        C = np.zeros(W.shape, dtype=np.intp)
        W[ri, pos] = H.data[ri, ci]
        C[ri, pos] = ci
        parts.append((W, C))
    return tuple(parts)


def _lower_solve(spec: SemiringSpec, W, C, Y, b, cap: int) -> np.ndarray:
    """The one fixpoint of Y = L (x) Y (+) b, for L strictly lower, held as
    the padded rows (W, C); Y is the start, and is overwritten.

    Rounds Y <- L (x) Y (+) b until Y stops changing.  Once a round leaves
    rows 0..m-1 unmoved, they stay so (row i reads only rows below i), and
    later rounds recompute only rows m on.  A round that would take the
    pairs formed past cap, or that raises numpy's overflow flag, is not
    kept: the rows from m on are then finished one at a time, in ascending
    order, each reading the rows already finished."""
    n, k = b.shape
    lo = formed = 0
    while formed + (n - lo) * W.shape[1] * k <= cap:
        Wl, Cl = W[lo:], C[lo:]
        try:
            Z = spec.add(_row_products(spec, Wl, lambda s: Y[Cl[s]], np.empty_like(b[lo:])), b[lo:])
        except FloatingPointError:
            break
        formed += Z.shape[0] * W.shape[1] * k
        moved = np.flatnonzero((Z != Y[lo:]).any(axis=1))
        if moved.size == 0:
            return Y
        Y[lo:] = Z + 0.0
        lo += int(moved[0])
    for i in range(lo, n):
        Y[i] = spec.add(spec.add_reduce(spec.mul(W[i, :, None], Y[C[i]]), axis=0), b[i]) + 0.0
    return Y


def _sweeps(name: str, H, F, max_iter, full_output: bool, lower: bool):
    """The solve of X = H (x) X (+) F from X0 = F that the solver name runs.

    H is split once into L and U (see _split_rows).  A pass forms
    b = U (x) X (+) F from the previous X over the padded rows of U, then
    takes the one fixpoint of Y = L (x) Y (+) b (see _lower_solve), which is
    b when L is empty.  The entries left out are the zero: zero (x) x is
    the zero, which (+) ignores, and an infinite operand never raises
    numpy's overflow flag, so values and errors are those of the products
    over all of H.  A pass that changes nothing ends the solve, and
    info["iterations"] counts the passes, that one included.  DomainError
    if a product of finite entries overflows float64."""
    _require_idempotent(_operands(SemiringMatrix, H), name)  # NotIdempotent before SpecMismatch
    spec = _operands(SemiringMatrix, H, F)
    if H.rows != H.cols:
        raise ShapeMismatch(f"H must be square, got {H.shape}")
    if F.rows != H.rows:
        raise ShapeMismatch(f"F has {F.rows} rows for an {H.rows}-node system")
    f, n = F.data, H.rows
    budget = n + 1 if max_iter is None else _count(max_iter, "max_iter")
    (WL, CL), (WU, CU) = _split_rows(H, lower)
    X = f
    with _no_overflow(f"{name}: a path weight"):
        for it in range(1, budget + 1):
            b = spec.add(_row_products(spec, WU, lambda s: X[CU[s]], np.empty_like(f)), f)
            Y = _lower_solve(spec, WL, CL, spec.add(X, b), b, n * n * F.cols) if lower else b
            if np.array_equal(Y, X):
                out = SemiringMatrix(X, spec)
                return (out, {"iterations": it}) if full_output else out
            X = Y
    raise NonConvergent(f"no fixpoint after {budget} {'sweeps' if lower else 'iterations'}")


def solve_bellman_jacobi(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by simultaneous updates from X0 = F:
    each pass is X <- H (x) X (+) F, over the entries of H that are not the
    zero (see _sweeps, here with L empty).

    Returns X, or (X, info) with info["iterations"] counting update passes
    including the one that detects stabilization.  DomainError on overflow."""
    return _sweeps("solve_bellman_jacobi", H, F, max_iter, full_output, lower=False)


def solve_bellman_gauss_seidel(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by in-place sweeps.

    Sweep s is the Gauss-Seidel sweep that updates the rows in ascending
    order, each seeing the freshest values: a pass of _sweeps with L the
    strictly lower part of H.  Y = L (x) Y (+) b then has one fixpoint, and
    row by row it is the value the row loop gave, to the bit, as (+) is
    associative and commutative.  The rounds start from Y = X (+) b, which
    lies between b and the fixpoint, as the sweeps only rise.  A round that
    would form more pairs than a row-by-row sweep (n * n * k), or that
    overflows, is dropped and the sweep finished row by row, so the pairs
    formed, and the errors, are the row loop's.  info["iterations"] counts
    sweeps, the final unchanged one included."""
    return _sweeps("solve_bellman_gauss_seidel", H, F, max_iter, full_output, lower=True)


def _edge_columns(edges, k: int) -> list:
    """The k columns of an edge list: the fields of a record array, or the
    float columns of a sequence of k-tuples, else ShapeMismatch."""
    if isinstance(edges, np.ndarray) and edges.dtype.names:
        return [edges[f] for f in edges.dtype.names]
    rows = _floats(edges, "edges", form=f"{k}-tuples")
    if rows.shape != (0,) and rows.shape[1:] != (k,):
        raise ShapeMismatch(f"edges must be {k}-tuples, got shape {rows.shape}")
    return list(rows.reshape(-1, k).T)


def _node_ids(n: int, src, dst):
    """src and dst as int64 arrays of node ids 0..n-1; DomainError, naming
    the first edge at fault, for an id that is NaN, fractional or out of
    range.  No id reaches 2**63, the end of int64; beyond float64, n is no float."""
    ok = np.ones(len(src), dtype=bool)
    for ids in (src, dst):
        ok &= (ids >= 0) & (ids < min(n, 2**63)) & (ids == np.trunc(ids))  # NaN fails all three
    if not ok.all():
        i = int(np.argmin(ok))
        s, d = (repr(float(x)).removesuffix(".0") for x in (src[i], dst[i]))
        raise DomainError(f"edge ({s}, {d}) out of range for {n} nodes")
    return src.astype(np.int64), dst.astype(np.int64)


class Graph(_Frozen):
    """Weighted directed graph; node ids are 0..n-1, parallel edges allowed.

    Built from (src, dst, weight) triples or a record array of three fields,
    and held as three read-only arrays: src, dst (int64) and w (float64).
    Immutable.
    """

    __slots__ = ("n", "src", "dst", "w")

    def __init__(self, n: int, edges=()):
        n = _count(n, "n")
        src, dst, w = _edge_columns(edges, 3)
        src, dst = _node_ids(n, src, dst)
        w = _floats(w, "edge weights", 1)
        if not np.isfinite(w).all():
            raise DomainError(f"edge weight must be finite, got {float(w[~np.isfinite(w)][0])!r}")
        for a in (src, dst, w):
            a.setflags(write=False)
        self._set(n=n, src=src, dst=dst, w=w)

    @property
    def edges(self) -> tuple:
        """The edges as (src, dst, weight) triples of int, int, float."""
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    def _key(self):
        return (self.n, self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges!r})"


def _accumulate(n: int, src, dst, w, spec: SemiringSpec) -> np.ndarray:
    """n x n zero matrix with each w[i] added into (src[i], dst[i]) by (+).

    One spec.add call per occurrence rank: the r-th edge of every arc at
    once, so each entry is the left fold over its edges in edge order, as
    one edge at a time would give.  An n x n matrix that numpy cannot index
    is OutOfMemory.
    """
    _allocatable(f"a {n} x {n} matrix is too large to allocate", n, n)
    out = np.full(n * n, spec.zero)
    key = src * n + dst
    order = np.argsort(key, kind="stable")  # by arc, in edge order within one
    k = key[order]
    at = np.arange(len(k))
    rank = at - np.maximum.accumulate(np.where(np.diff(k, prepend=-1) != 0, at, 0))
    order = order[np.argsort(rank, kind="stable")]  # by rank, then by arc
    lo = 0
    for count in np.bincount(rank).tolist():
        e = order[lo:lo + count]
        out[key[e]] = spec.add(out[key[e]], w[e])
        lo += count
    return out.reshape(n, n)


def adjacency_matrix(g: Graph, spec: SemiringSpec = MINPLUS) -> SemiringMatrix:
    """Edge-weight matrix with absent arcs at the zero element; parallel
    edges combine by (+)."""
    _operands(SemiringSpec, spec)
    return SemiringMatrix(_accumulate(_operands(Graph, g), g.src, g.dst, g.w, spec), spec)


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
