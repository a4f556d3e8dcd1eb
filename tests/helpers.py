"""Reference implementations and checkers the tests use as oracles.

Everything here is deliberately independent of the library internals:
textbook shortest-path algorithms, exact rational polygon predicates, and
brute-force envelopes.
"""

import heapq
import math
from fractions import Fraction

import numpy as np

from tropikit import NonConvergent, SemiringMatrix

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
