"""Independent checks of tropikit's outputs; nothing here imports tropikit.

`verify(job, rc, stderr, artifact)` returns None when the job's outcome is
right and a one-line reason otherwise.  Numeric artifacts are compared
byte for byte with text rendered from an exact oracle (integer or dyadic
arithmetic, so no tolerance is needed).  The geometric ones are checked by
their defining properties: exactly for hulls and curves, within 1e-12 for
the floats of amoeba samples and h-sums.
"""

from __future__ import annotations

import cmath
import heapq
import math
from fractions import Fraction

import numpy as np

from workloads import V_EXP, X_EXP, XI_EXP, fmt

INF = float("inf")


def _matrix_text(rows) -> str:
    return "\n".join("\t".join(fmt(v) for v in row) for row in rows) + "\n"


def _function_text(start, step, values, convention) -> str:
    head = f"start {fmt(start)} step {fmt(step)} convention {convention}"
    return head + "\n" + "\n".join(fmt(v) for v in values) + "\n"


# --- closure ----------------------------------------------------------------------


def floyd_warshall(n, src, dst, w):
    d = np.full((n, n), INF)
    np.minimum.at(d, (src, dst), w.astype(float))
    np.fill_diagonal(d, np.minimum(np.diag(d), 0.0))
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def expect_closure(job):
    d = job.data
    dist = floyd_warshall(d["n"], d["src"], d["dst"], d["w"])
    if np.any(np.diag(dist) < 0):
        return 1, "ERROR NegativeCycle:", None
    return 0, "", _matrix_text(dist)


# --- solve ------------------------------------------------------------------------


def bellman_ford_to_targets(n, src, dst, w, f):
    """Least x with x_i <= f_i and x_i <= w_ij + x_j (edges i -> j)."""
    x = f.astype(float)
    for _ in range(n + 1):
        cand = x.copy()
        np.minimum.at(cand, src, w + x[dst])
        if np.array_equal(cand, x):
            return x
        x = cand
    raise AssertionError("generated system has a negative cycle")


def widest_to_targets(n, src, dst, w, f):
    """Greatest x with x_i >= f_i and x_i >= min(w_ij, x_j): bottleneck Dijkstra."""
    into = [[] for _ in range(n)]
    for i, j, c in zip(src.tolist(), dst.tolist(), w.tolist()):
        into[j].append((i, c))
    x = f.astype(float).tolist()
    done = [False] * n
    heap = [(-v, j) for j, v in enumerate(x) if v > -INF]
    heapq.heapify(heap)
    while heap:
        negv, j = heapq.heappop(heap)
        if done[j]:
            continue
        done[j] = True
        for i, c in into[j]:
            cand = min(c, -negv)
            if cand > x[i]:
                x[i] = cand
                heapq.heappush(heap, (-cand, i))
    return np.array(x)


def dijkstra_to(n, src, dst, w, target):
    into = [[] for _ in range(n)]
    for i, j, c in zip(src.tolist(), dst.tolist(), w.tolist()):
        into[j].append((i, c))
    dist = [INF] * n
    dist[target] = 0.0
    heap = [(0.0, target)]
    while heap:
        dj, j = heapq.heappop(heap)
        if dj > dist[j]:
            continue
        for i, c in into[j]:
            if dj + c < dist[i]:
                dist[i] = dj + c
                heapq.heappush(heap, (dist[i], i))
    return dist


def expect_solve(job):
    d = job.data
    n = d["n"]
    if job.sub == "interval-bellman":
        lo = dijkstra_to(n, d["src"], d["dst"], d["wmin"], d["target"])
        hi = dijkstra_to(n, d["src"], d["dst"], d["wmax"], d["target"])
        return 0, "", _matrix_text(zip(lo, hi))
    if d["semiring"] == "minplus":
        f = np.full(n, INF)
        f[d["targets"]] = d["fvals"]
        x = bellman_ford_to_targets(n, d["src"], d["dst"], d["w"], f)
    else:
        f = np.full(n, -INF)
        f[d["targets"]] = d["fvals"]
        x = widest_to_targets(n, d["src"], d["dst"], d["w"], f)
    return 0, "", _matrix_text(x[:, None])


# --- transforms: exact integer envelopes ---------------------------------------------


def hopflax_units(vals, t):
    """min_j (s0_j + (x_i - y_j)^2 / (2t)) in units of 2**-(2*X_EXP) / (2t).

    Only offsets whose kernel term stays below the value range can win, so
    the brute force runs over that window; it is still every candidate pair.
    """
    scale = int(2 ** (2 * X_EXP - V_EXP) * 2 * t)
    s = vals.astype(np.int64) * scale
    out = s.copy()
    reach = math.isqrt(int(s.max() - s.min())) + 1
    for d in range(1, min(reach, s.size - 1) + 1):
        np.minimum(out[d:], s[:-d] + d * d, out=out[d:])
        np.minimum(out[:-d], s[d:] + d * d, out=out[:-d])
    return out, 2.0 ** -(2 * X_EXP) / (2 * t)


def upper_hull(xs, ys):
    """Upper convex hull of points with increasing integer xs, exact."""
    hull = []
    for p in zip(xs.tolist(), ys.tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull, dtype=np.int64)


def legendre_units(i0, vals, k0, m):
    """max_i (xi_k * x_i + phi_i) in units of 2**-(X_EXP + XI_EXP), over the hull."""
    xs = np.arange(vals.size, dtype=np.int64) + i0
    hull = upper_hull(xs, vals.astype(np.int64) << (X_EXP + XI_EXP - V_EXP))
    ks = np.arange(m, dtype=np.int64) + k0
    return (ks[:, None] * hull[None, :, 0] + hull[None, :, 1]).max(axis=1)


def convolve_units(a, b, convention):
    ext = np.maximum if convention == "maxplus" else np.minimum
    info = np.iinfo(np.int64)
    out = np.full(a.size + b.size - 1, info.min if convention == "maxplus" else info.max)
    for i, ai in enumerate(a.tolist()):
        ext(out[i:i + b.size], ai + b, out=out[i:i + b.size])
    return out


def expect_transform(job):
    d = job.data
    step = 2.0**-X_EXP
    if job.sub == "hopflax":
        units, unit = hopflax_units(d["vals"], d["t"])
        text = _function_text(d["i0"] * step, step, units * unit, "minplus")
    elif job.sub == "convolve":
        units = convolve_units(d["a"], d["b"], d["conv"])
        text = _function_text((d["a0"] + d["b0"]) * step, step, units * 2.0**-V_EXP, d["conv"])
    else:
        units = legendre_units(d["i0"], d["vals"], d["k0"], d["m"])
        xi_step = 2.0**-XI_EXP
        text = _function_text(d["k0"] * xi_step, xi_step, units * 2.0 ** -(X_EXP + XI_EXP),
                              "maxplus")
    return 0, "", text


# --- geometry: properties in exact arithmetic -----------------------------------------


def check_tropcurve(job, text):
    terms = [(Fraction(c), (int(x), int(y))) for c, (x, y) in zip(job.data["coeffs"],
                                                                   job.data["pts"].tolist())]

    def attained_twice(p):
        vals = [c + d[0] * p[0] + d[1] * p[1] for c, d in terms]
        top = max(vals)
        return vals.count(top) >= 2

    lines = text.splitlines()
    if not lines or lines[0] != "base_x,base_y,dir_x,dir_y,t0,t1" or len(lines) < 2:
        return "curve header or pieces missing"
    for ln in lines[1:]:
        bx, by, dx, dy, t0, t1 = ln.split(",")
        base = (Fraction(bx), Fraction(by))
        direction = (Fraction(dx), Fraction(dy))
        if direction == (0, 0) or any(c.denominator != 1 for c in direction):
            return f"bad direction in {ln!r}"
        lo = -1 if t0 == "-inf" else Fraction(t0)
        hi = lo + 2 if t1 == "inf" else Fraction(t1)
        if not lo < hi:
            return f"empty piece {ln!r}"
        for t in (lo, (lo + hi) / 2, hi):
            p = (base[0] + t * direction[0], base[1] + t * direction[1])
            if not attained_twice(p):
                return f"piece {ln!r} leaves the corner locus at t={t}"
    return None


def check_newton(job, text):
    pts = job.data["pts"]
    verts = []
    for tok in text.rstrip("\n").split("; "):
        coords = tok.split(" ")
        if len(coords) != 2 or not all(c.endswith("/1") for c in coords):
            return f"vertex {tok!r} is not a lattice point written p/1"
        verts.append(tuple(int(c[:-2]) for c in coords))
    inputs = set(map(tuple, pts.tolist()))
    if any(v not in inputs for v in verts):
        return "a hull vertex is not an input point"
    if len(verts) < 3:
        return "hull of a two-dimensional point set has fewer than 3 vertices"
    if verts[0] != min(verts):
        return "hull does not start at its lexicographic minimum"
    v = np.array(verts, dtype=np.int64)
    e = np.roll(v, -1, axis=0) - v
    for (ox, oy), (ex, ey) in zip(v.tolist(), e.tolist()):
        cross = ex * (pts[:, 1] - oy) - ey * (pts[:, 0] - ox)
        if np.any(cross < 0):
            return "an input point lies outside the hull"
    turns = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    if np.any(turns <= 0):
        return "hull is not strictly convex counterclockwise"
    return None


def _amoeba_grid(h, samples):
    # the documented layout: an even number of symmetric ln|t| levels in [-3, 3],
    # angles spread uniformly, the first `samples` grid points in row order
    n_theta = max(1, math.isqrt(samples - 1) + 1)
    n_r = -(-samples // n_theta)
    n_r += n_r % 2
    for j in range(n_r):
        r = math.exp(3.0 * (2 * j + 1 - n_r) / n_r)
        for k in range(n_theta):
            t = cmath.rect(r, 2.0 * math.pi * (k + 0.5) / n_theta)
            yield h * math.log(abs(t)), h * math.log(abs(1.0 + t))


def check_amoeba(job, text):
    h, samples = job.data["h"], job.data["samples"]
    lines = text.splitlines()
    if not lines or lines[0] != "x,y" or len(lines) != samples + 1:
        return "points header or count wrong"
    for ln, (ex, ey) in zip(lines[1:], _amoeba_grid(h, samples)):
        x, y = (float(c) for c in ln.split(","))
        if not (math.isclose(x, ex, rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(y, ey, rel_tol=1e-12, abs_tol=1e-12)):
            return f"point {ln!r} is not the sample ({ex!r}, {ey!r})"
        a, b = math.exp(x / h), math.exp(y / h)  # |t| and |1 + t|
        slack = 1e-9 * (a + b + 1.0)
        if b > a + 1.0 + slack or a > b + 1.0 + slack or 1.0 > a + b + slack:
            return f"point {ln!r} breaks a triangle inequality"
    return None


AXIOMS = ("add-associative", "add-commutative", "add-idempotent", "mul-associative",
          "zero-neutral-add", "zero-absorbs-mul", "one-neutral-mul", "distributive-left",
          "distributive-right")


def expect_axioms(job):
    d = job.data
    deformed = d["semiring"] != "minplus"
    lines = [f"semiring {d['semiring']} trials {d['trials']} seed {d['seed']}"]
    for law in AXIOMS:
        if deformed and law == "add-idempotent":
            lines.append(f"{law} FAIL (addition is not idempotent here)")
        else:
            lines.append(f"{law} PASS")
    return 0, "", "\n".join(lines) + "\n"


def check_dequant_demo(job, text):
    d = job.data
    u, v = d["u"], d["v"]
    lines = text.splitlines()
    if len(lines) != len(d["hs"]):
        return "wrong number of rows"
    for ln, h in zip(lines, d["hs"]):
        hs, val = ln.split("\t")
        if hs != fmt(h):
            return f"row {ln!r} is for the wrong h"
        val = float(val)
        ref = h * float(np.logaddexp(u / h, v / h))
        top = max(u, v)
        if not (top - 1e-12 <= val <= top + h * math.log(2) + 1e-12
                and math.isclose(val, ref, rel_tol=1e-12, abs_tol=1e-12)):
            return f"row {ln!r} is not the h-sum {ref!r}"
    return None


_CHECKS = {"tropcurve": check_tropcurve, "newton": check_newton, "amoeba": check_amoeba,
           "dequant-demo": check_dequant_demo}
_EXPECT = {"sp": expect_closure, "bellman": expect_solve, "interval-bellman": expect_solve,
           "hopflax": expect_transform, "convolve": expect_transform,
           "legendre": expect_transform, "axioms": expect_axioms}


def verify(job, rc, stderr, artifact):
    """None if the outcome is right, else the reason it is not."""
    if job.sub in _EXPECT:
        want_rc, want_err, want_text = _EXPECT[job.sub](job)
    else:
        want_rc, want_err, want_text = 0, "", None
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if want_err:
        if not (stderr.startswith(want_err) and stderr.count("\n") == 1):
            return f"stderr {stderr!r}, expected one {want_err!r} line"
    elif stderr:
        return f"unexpected stderr {stderr[:200]!r}"
    if want_rc != 0:
        return None if artifact is None else "an artifact was written for a failed job"
    if artifact is None:
        return "no artifact"
    try:
        text = artifact.decode("utf-8")
    except UnicodeDecodeError:
        return "artifact is not UTF-8"
    if want_text is not None:
        return None if text == want_text else "artifact differs from the oracle"
    try:
        return _CHECKS[job.sub](job, text)
    except (ValueError, ZeroDivisionError, IndexError) as e:
        return f"artifact does not parse: {e}"
