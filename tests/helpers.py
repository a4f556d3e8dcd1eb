"""Reference implementations and checkers the tests use as oracles.

Everything here is deliberately independent of the library internals:
textbook shortest-path algorithms, exact rational polygon predicates, and
brute-force envelopes.
"""

import argparse
import heapq
import math
import warnings
from fractions import Fraction

import numpy as np

from tropikit import (
    CurvePiece,
    DegenerateInput,
    DomainError,
    FileFormatError,
    GenPolynomial,
    Graph,
    GridMismatch,
    IntervalMatrix,
    IntervalValue,
    NonConvergent,
    SampledFunction,
    SemiringMatrix,
    ShapeMismatch,
    TropicalCurve,
    interval_add,
    log_h,
    matrix_add,
    matrix_mul,
)
from tropikit.cli import _float_list, _positive_float, _semiring
from tropikit.fileio import _data_lines, _fields_fault, _no_nan, _read, fmt_float
from tropikit.semiring import _count, _no_overflow, _operands, _positive_finite, _require_idempotent
from tropikit.transform import _SPECS

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


def _check_system(H, F):
    """n for the system X = H (x) X (+) F, after the checks both Bellman
    solvers make before they iterate."""
    _operands(SemiringMatrix, H, F)
    if H.rows != H.cols:
        raise ShapeMismatch(f"H must be square, got {H.shape}")
    if F.rows != H.rows:
        raise ShapeMismatch(f"F has {F.rows} rows for an {H.rows}-node system")
    return H.rows


def dense_jacobi(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by simultaneous updates from X0 = F.

    Returns X, or (X, info) with info["iterations"] counting update passes
    including the one that detects stabilization.  DomainError on overflow.

    tropikit.solve_bellman_jacobi as it was before it became a sweep over
    the padded rows of H: one matrix_mul over all n x n entries, then
    matrix_add and ==, per pass.  Its overflow message begins 'matrix_mul:'."""
    _require_idempotent(H.spec, "solve_bellman_jacobi")
    n = _check_system(H, F)
    budget = n + 1 if max_iter is None else _count(max_iter, "max_iter")
    X = F
    for it in range(1, budget + 1):
        nxt = matrix_add(matrix_mul(H, X), F)
        if nxt == X:
            return (X, {"iterations": it}) if full_output else X
        X = nxt
    raise NonConvergent(f"no fixpoint after {budget} iterations")


def row_sweep_gauss_seidel(H, F, max_iter=None, full_output=False):
    """Least solution of X = H (x) X (+) F by in-place sweeps.

    Rows are updated in ascending index order within each sweep, every update
    seeing the freshest values; a sweep that changes nothing ends the solve.
    info["iterations"] counts sweeps including that final verification sweep.
    DomainError if a product of finite entries overflows float64.

    tropikit.solve_bellman_gauss_seidel as it was before its sweeps became
    relaxations over the finite entries: one numpy reduction per row."""
    _require_idempotent(H.spec, "solve_bellman_gauss_seidel")
    n = _check_system(H, F)
    spec = H.spec
    budget = n + 1 if max_iter is None else int(max_iter)
    X = F.data.copy()
    with _no_overflow("solve_bellman_gauss_seidel: a path weight"):
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


def fold_convolution(phi, psi):
    """(phi (*) psi)(g) = extremum_x phi(x) + psi(g - x) by folding the
    shorter operand into the output one sample at a time, O(N*M).
    DomainError if a winning phi(x) + psi(g - x) overflows.

    tropikit.convolution as it was before it certified its outputs from the
    best samples of each operand: the reference for its values and errors."""
    spec = _SPECS[_operands(SampledFunction, phi, psi)]
    if phi.step != psi.step:
        raise GridMismatch(f"mixed steps: {phi.step!r} vs {psi.step!r}")
    a, b = sorted((phi.values, psi.values), key=len)
    nb = b.size
    out = np.full(a.size + nb - 1, spec.zero)
    # a losing pair may overflow harmlessly, so only the winners are judged
    with np.errstate(over="ignore"):
        for i in range(a.size):
            spec.add(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    if math.isinf(out.min()) or math.isinf(out.max()):
        # an infinite output is the zero only if no finite pair reaches it
        finite_pair = np.convolve(np.isfinite(a).astype(float), np.isfinite(b).astype(float)) > 0
        if np.any(np.isinf(out) & finite_pair):
            raise DomainError("convolution: phi(x) + psi(g - x) overflows float64")
    return SampledFunction(phi.start + psi.start, phi.step, out, phi.convention)


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


def loadtxt_float_rows(text: str, what: str) -> np.ndarray:
    """tropikit.fileio._float_rows as it was before dense rows were read by
    np.fromstring: every file through one np.loadtxt call."""
    lns, lines = _data_lines(text)
    if not lines:
        raise FileFormatError(f"{what} file has no rows")
    width = len(lines[0].split())

    def fault(line):
        toks = line.split()
        return _fields_fault(toks, [float] * len(toks)) or (
            len(toks) != width and f"ragged row ({len(toks)} of {width} entries)")

    return _read(lns, lines, np.dtype(float), fault, _no_nan)


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


# --- the numeric writers, one %-format per row ----------------------------------
#
# The writers as they were before every numeric writer formatted each
# distinct value once: a %-format per row of floats, and for function
# files one %-format per numpy scalar.


def row_float_lines(a, sep):
    """One line per row of the 2-D array a: fmt_float of each entry, joined
    by sep.  One %-format per row, of that row's tolist() floats only, so no
    Python float outlives its row."""
    line = sep.join(["%.17g"] * a.shape[1])
    return [line % tuple(row.tolist()) for row in a]


def row_format_matrix(M):
    return "\n".join(row_float_lines(M.data, "\t")) + "\n"


def row_format_interval_matrix(M):
    lo, hi = M.numeric_bounds()
    cells = np.stack((lo, hi), axis=2).reshape(lo.shape[0], 2 * lo.shape[1])
    return "\n".join(row_float_lines(cells, "\t")) + "\n"


def row_format_points(arr):
    arr = np.asarray(arr, dtype=float)
    return "\n".join(["x,y", *row_float_lines(arr, ",")]) + "\n"


def scalar_format_function(f):
    head = f"start {fmt_float(f.start)} step {fmt_float(f.step)} convention {f.convention}"
    # the bytes of fmt_float: each np.float64 is a Python float
    return "\n".join([head, *map("%.17g".__mod__, f.values)]) + "\n"


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


def fraction_hull_2d(points):
    """Andrew's monotone chain on Fraction points, as the library computed
    it before it moved to scaled integers: counterclockwise from the
    lexicographic minimum, strict turns only."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if hull else [pts[0]]


def _primitive(v):
    # v (rational 2-vector) = scale * prim with prim primitive integer, scale > 0
    lcm = v[0].denominator * v[1].denominator // math.gcd(v[0].denominator, v[1].denominator)
    ix, iy = int(v[0] * lcm), int(v[1] * lcm)
    g = math.gcd(abs(ix), abs(iy))
    return (ix // g, iy // g), Fraction(g, lcm)


def fraction_tropical_curve_2d(terms):
    """Corner locus of max_i ((d_i, x) + c_i) by the pair-times-term scan on
    Fractions, as the library computed it before it moved to scaled
    integers; inputs must be valid (two or more terms, 2-vector exponents)."""
    terms = list(terms)
    combined: dict = {}
    repeated = False
    for c, d in terms:
        cv = Fraction(c)
        dv = tuple(Fraction(e) for e in d)
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
            tlo, thi = -INF, INF
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
                    if tlo == -INF or bound > tlo:
                        tlo = bound
                else:
                    bound = -alpha / beta
                    if thi == INF or bound < thi:
                        thi = bound
            if empty or (tlo != -INF and thi != INF and tlo >= thi):
                continue
            prim, scale = _primitive(v)
            if tlo == -INF and thi == INF:
                if prim[0] < 0 or (prim[0] == 0 and prim[1] < 0):
                    prim = (-prim[0], -prim[1])
                pieces.append(CurvePiece(x0, prim, -INF, INF))
            elif tlo == -INF:
                base = (x0[0] + thi * v[0], x0[1] + thi * v[1])
                pieces.append(CurvePiece(base, (-prim[0], -prim[1]), Fraction(0), INF))
            else:
                base = (x0[0] + tlo * v[0], x0[1] + tlo * v[1])
                t1 = (thi - tlo) * scale if thi != INF else INF
                pieces.append(CurvePiece(base, prim, Fraction(0), t1))
    pieces.sort(key=lambda p: (p.base, p.direction, p.t0 == -INF, p.t1))
    return TropicalCurve(tuple(pieces))


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


def per_sample_amoeba_line_sample(h: float, samples: int) -> np.ndarray:
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


def reference_parser() -> argparse.ArgumentParser:
    """The command line parser as one builder of all eleven subparsers; its help
    and usage bytes are what `tropikit` prints."""
    p = argparse.ArgumentParser(
        prog="tropikit",
        description="idempotent semirings, tropical linear algebra, dequantization",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("-o", "--output", help="write the artifact here instead of stdout")
        return sp

    q = cmd("axioms", "audit the semiring laws on random samples")
    q.add_argument("--semiring", type=_semiring, required=True)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)

    q = cmd("sp", "all-pairs shortest path weights of a graph file")
    q.add_argument("--graph", required=True)

    q = cmd("bellman", "least solution of X = H@X (+) F from matrix files")
    q.add_argument("--h-matrix", required=True, dest="h_matrix")
    q.add_argument("--f-matrix", required=True, dest="f_matrix")
    q.add_argument("--semiring", type=_semiring, required=True)
    q.add_argument("--method", choices=("jacobi", "gauss-seidel"), default="jacobi")
    q.add_argument("--max-iter", type=int, default=None)

    q = cmd("interval-bellman", "interval shortest distances to a target node")
    q.add_argument("--graph", required=True, help="interval graph file (src dst wmin wmax)")
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--max-iter", type=int, default=None)

    q = cmd("newton", "vertices of the Newton set of a polynomial file")
    q.add_argument("--poly", required=True)

    q = cmd("tropcurve", "corner locus pieces of a max-plus polynomial")
    q.add_argument("--poly", required=True)

    q = cmd("amoeba", "sample the log image of the line x + y + 1 = 0")
    q.add_argument("--h", type=_positive_float, required=True)
    q.add_argument("--samples", type=int, default=256)

    q = cmd("legendre", "slope transform of a sampled maxplus function")
    q.add_argument("--input", required=True)
    q.add_argument("--xi-start", type=float, required=True)
    q.add_argument("--xi-step", type=_positive_float, required=True)
    q.add_argument("--xi-count", type=int, required=True)

    q = cmd("convolve", "idempotent convolution of two sampled functions")
    q.add_argument("--phi", required=True)
    q.add_argument("--psi", required=True)

    q = cmd("hopflax", "evolve minplus initial data by the parabolic kernel")
    q.add_argument("--input", required=True)
    q.add_argument("--t", type=_positive_float, required=True)
    q.add_argument("--m", type=_positive_float, default=1.0)

    q = cmd("dequant-demo", "tabulate the deformed sum at a few h values")
    q.add_argument("--h", type=_float_list, default=[1.0, 0.1, 0.01])
    q.add_argument("--u", type=float, default=0.0)
    q.add_argument("--v", type=float, default=0.0)

    return p


# --- equality and hashing before the frozen base defined them ------------------
#
# The __eq__/__hash__ pairs the value types wrote for themselves, verbatim,
# and the pair @dataclass(frozen=True) made for GenPolynomial.


def semiring_matrix_eq(self, other):
    if not isinstance(other, SemiringMatrix):
        return NotImplemented
    return self.spec.name == other.spec.name and np.array_equal(self.data, other.data)


def semiring_matrix_hash(self):
    return hash((self.spec.name, self.data.tobytes(), self.data.shape))


def interval_value_eq(self, other):
    if not isinstance(other, IntervalValue):
        return NotImplemented
    return (
        self.spec.name == other.spec.name
        and self.lower == other.lower
        and self.upper == other.upper
    )


def interval_value_hash(self):
    return hash((self.spec.name, self.lower, self.upper))


def interval_matrix_eq(self, other):
    if not isinstance(other, IntervalMatrix):
        return NotImplemented
    return self.lower == other.lower and self.upper == other.upper


def interval_matrix_hash(self):
    return hash((self.lower, self.upper))


def graph_eq(self, other):
    if not isinstance(other, Graph):
        return NotImplemented
    return self.n == other.n and self.edges == other.edges


def graph_hash(self):
    return hash((self.n, self.edges))


def sampled_function_eq(self, other):
    if not isinstance(other, SampledFunction):
        return NotImplemented
    return (
        self.start == other.start
        and self.step == other.step
        and self.convention == other.convention
        and np.array_equal(self.values, other.values)
    )


def sampled_function_hash(self):
    return hash((self.start, self.step, self.convention, self.values.tobytes()))


def gen_polynomial_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self.n, self.terms) == (other.n, other.terms)


def gen_polynomial_hash(self):
    return hash((self.n, self.terms))


# type -> (eq, hash) of the parent
EQUALITY_ORACLES = {
    SemiringMatrix: (semiring_matrix_eq, semiring_matrix_hash),
    IntervalValue: (interval_value_eq, interval_value_hash),
    IntervalMatrix: (interval_matrix_eq, interval_matrix_hash),
    Graph: (graph_eq, graph_hash),
    SampledFunction: (sampled_function_eq, sampled_function_hash),
    GenPolynomial: (gen_polynomial_eq, gen_polynomial_hash),
}
