"""Reference implementations and checkers the tests use as oracles.

Everything here is deliberately independent of the library internals:
textbook shortest-path algorithms, exact rational polygon predicates, and
brute-force envelopes.
"""

import heapq
import math
from fractions import Fraction

import numpy as np

from tropikit import (
    DomainError,
    IntervalMatrix,
    IntervalValue,
    NonConvergent,
    SemiringMatrix,
    interval_add,
)

INF = math.inf


def bellman_ford(n, edges, source):
    """Classic relaxation; returns dist list or None on a negative cycle."""
    dist = [INF] * n
    dist[source] = 0.0
    for _ in range(n - 1):
        changed = False
        for s, d, w in edges:
            if dist[s] + w < dist[d]:
                dist[d] = dist[s] + w
                changed = True
        if not changed:
            break
    for s, d, w in edges:
        if dist[s] + w < dist[d]:
            return None
    return dist


def is_negative_cycle(edges, cycle):
    """True when cycle names distinct nodes whose consecutive arcs, the last
    back to the first included, are edges of negative total weight (the
    least weight of each arc's parallel edges)."""
    best = {}
    for s, d, w in edges:
        best[s, d] = min(w, best.get((s, d), INF))
    arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
    return (len(cycle) > 0 and len(set(cycle)) == len(cycle)
            and all(a in best for a in arcs) and math.fsum(best[a] for a in arcs) < 0)


def dijkstra(n, edges, source):
    """Heap-based; weights must be nonnegative."""
    adj = [[] for _ in range(n)]
    for s, d, w in edges:
        adj[s].append((d, w))
    dist = [INF] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def one_shot_product(A, B):
    """A (x) B over A's semiring as one (n, k, m) reduction, unblocked."""
    spec = A.spec
    return spec.add_reduce(spec.mul(A.data[:, :, None], B.data[None]), axis=1)


def stabilized_star(A):
    """A* by repeating S <- I (+) A (x) S from S = I until S stops changing.

    A budget of n+1 passes is enough whenever the series stabilizes at all
    (path weights stop improving after n-1 steps); running out of budget
    raises NonConvergent.  O(n^4): the reference for the elimination.
    """
    spec, n = A.spec, A.rows
    eye = SemiringMatrix.identity(n, spec)
    S = eye
    for _ in range(n + 1):
        nxt = SemiringMatrix(spec.add(eye.data, one_shot_product(A, S)), spec)
        if nxt == S:
            return S
        S = nxt
    raise NonConvergent(f"no fixpoint after {n + 1} iterations")


def brute_legendre(phi, xi_start, xi_step, xi_count):
    """max_x (xi*x + phi(x)) over every pair at once: the O(N*M) reference
    for tropikit.legendre, with its float expression xi*x + phi(x)."""
    xs = phi.grid()
    xis = xi_start + xi_step * np.arange(xi_count)
    return np.max(xis[:, None] * xs[None, :] + phi.values, axis=1)


def brute_hopf_lax(s0, t, m=1.0):
    """min_y (s0(y) + c*(x - y)^2), c = m/(2t), over every pair at once: the
    O(N^2) reference for tropikit.hopf_lax_evolve, with its float
    expression s0(y) + c*((x - y)*(x - y))."""
    ys = s0.grid()
    c = m / (2.0 * t)
    diff = ys[:, None] - ys[None, :]
    return np.min(s0.values + c * (diff * diff), axis=1)


def per_edge_interval_adjacency(n, edges, spec):
    """tropikit.interval_adjacency one edge at a time: each edge becomes an
    IntervalValue and joins its arc by interval_add.  The reference for the
    split of all edges at once."""
    lo = np.full((n, n), spec.zero)
    hi = np.full((n, n), spec.zero)
    for s, d, wmin, wmax in edges:
        if not all(0 <= v < n and v == int(v) for v in (s, d)):
            raise DomainError(f"edge ({s}, {d}) out of range for {n} nodes")
        s, d = int(s), int(d)
        iv = IntervalValue.from_numeric(wmin, wmax, spec)
        cur = IntervalValue(lo[s, d], hi[s, d], spec)
        new = interval_add(cur, iv)
        lo[s, d], hi[s, d] = new.lower, new.upper
    return IntervalMatrix.from_arrays(lo, hi, spec)


def per_entry_parse_interval_matrix(text, spec):
    """tropikit.fileio.parse_interval_matrix one entry at a time through
    IntervalValue.from_numeric, with plain float() tokens.  ValueError for a
    malformed file."""
    lo_rows, hi_rows = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        vals = [float(t) for t in line.split()]
        if len(vals) % 2 or any(math.isnan(v) for v in vals):
            raise ValueError(line)
        if lo_rows and len(vals) != 2 * len(lo_rows[0]):
            raise ValueError(line)
        lo_rows.append(vals[0::2])
        hi_rows.append(vals[1::2])
    if not lo_rows:
        raise ValueError("no rows")
    lo = np.empty((len(lo_rows), len(lo_rows[0])))
    hi = np.empty_like(lo)
    for i in range(lo.shape[0]):
        for j in range(lo.shape[1]):
            iv = IntervalValue.from_numeric(lo_rows[i][j], hi_rows[i][j], spec)
            lo[i, j], hi[i, j] = iv.lower, iv.upper
    return IntervalMatrix.from_arrays(lo, hi, spec)


def per_edge_accumulate(n, src, dst, w, spec):
    """tropikit.linalg._accumulate one edge at a time: each weight joins its
    arc by a spec.add call on the current entry.  The reference for the
    one-call-per-occurrence-rank version."""
    arr = np.full((n, n), spec.zero)
    for s, d, x in zip(src, dst, w):
        arr[s, d] = spec.add(arr[s, d], x)
    return arr


# --- the numeric file formats, one token at a time ------------------------------
#
# The readers as they were before every numeric format went through one
# np.loadtxt call: float() or int() per token.  Each returns the parsed
# numbers, or raises ValueError whose argument is the file line at fault
# (None when the fault has no line: an empty file or a missing header).


def _kept_lines(text):
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line


def _per_token_float(tok, ln):
    try:
        x = float(tok)
    except ValueError:
        raise ValueError(ln) from None
    if math.isnan(x):
        raise ValueError(ln)
    return x


def _per_token_int(tok, ln):
    try:
        return int(tok)
    except ValueError:
        raise ValueError(ln) from None


def per_token_float_rows(text):
    """The data lines as a 2-D float array, if all have one width."""
    rows = []
    for ln, line in _kept_lines(text):
        vals = [_per_token_float(t, ln) for t in line.split()]
        if rows and len(vals) != len(rows[0]):
            raise ValueError(ln)
        rows.append(vals)
    if not rows:
        raise ValueError(None)
    return np.array(rows)


def per_token_function_samples(text):
    """The samples after the header line of a function file, as floats."""
    lines = list(_kept_lines(text))[1:]
    if not lines:
        raise ValueError(None)
    return np.array([_per_token_float(line, ln) for ln, line in lines])


def per_token_edges(text, weights):
    """(n, [(src, dst, w1, ...), ...]) of a graph file whose edge lines hold
    two node ids and `weights` floats."""
    lines = _kept_lines(text)
    ln, head = next(lines)
    n = int(head.split()[1])
    edges = []
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 2 + weights:
            raise ValueError(ln)
        ws = tuple(_per_token_float(t, ln) for t in parts[2:])
        if weights == 2 and ws[0] > ws[1]:
            raise ValueError(ln)
        edges.append((_per_token_int(parts[0], ln), _per_token_int(parts[1], ln), *ws))
    return n, edges


def dyadic(rng, size=None, lo=-8.0, hi=8.0, grain=64):
    """Uniform multiples of 1/grain; sums of a few stay exact in float64."""
    draw = rng.integers(int(lo * grain), int(hi * grain), size=size, endpoint=True)
    return draw / grain


# --- exact polygon predicates -------------------------------------------------


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def strictly_convex_ccw(verts):
    """True when verts walk a strictly convex polygon counterclockwise."""
    k = len(verts)
    if k <= 2:
        return True
    return all(cross(verts[i], verts[(i + 1) % k], verts[(i + 2) % k]) > 0 for i in range(k))


def point_in_polytope_2d(p, verts):
    """Exact containment of p in the convex hull described by verts."""
    p = tuple(Fraction(c) for c in p)
    k = len(verts)
    if k == 1:
        return p == verts[0]
    if k == 2:
        a, b = verts
        if cross(a, b, p) != 0:
            return False
        lo = min(a, b)
        hi = max(a, b)
        return lo <= p <= hi
    return all(cross(verts[i], verts[(i + 1) % k], p) >= 0 for i in range(k))


def is_canonical_polytope_2d(verts):
    """Starts at the lexicographic minimum, counterclockwise, no collinear
    interior vertices, no repeats."""
    if len(verts) != len(set(verts)):
        return False
    if verts[0] != min(verts):
        return False
    return strictly_convex_ccw(verts)


def segment_1d(points):
    pts = sorted(set(Fraction(p[0]) for p in points))
    if len(pts) == 1:
        return ((pts[0],),)
    return ((pts[0],), (pts[-1],))


def upper_concave_envelope(xs, ys):
    """Brute-force concave majorant of the points (xs[i], ys[i]) on xs.

    O(N^3): for each grid point take the best chord over all pairs that
    bracket it.  Good enough for small test grids.
    """
    n = len(xs)
    out = np.array(ys, dtype=float)
    for i in range(n):
        best = ys[i]
        for j in range(n):
            for k in range(j + 1, n):
                if xs[j] <= xs[i] <= xs[k] and xs[j] < xs[k]:
                    lam = (xs[i] - xs[j]) / (xs[k] - xs[j])
                    val = ys[j] + lam * (ys[k] - ys[j])
                    if val > best:
                        best = val
        out[i] = best
    return out


def point_to_ray_distance(p, direction):
    """Distance from p to the ray {t * direction, t >= 0} out of the origin."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(direction, dtype=float)
    t = max(0.0, float(p @ d) / float(d @ d))
    return float(np.hypot(*(p - t * d)))
