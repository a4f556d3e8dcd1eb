"""Seeded input generation for the four benchmark workloads.

A workload is a pool of jobs laid out in rounds.  Every round holds the same
mix of job kinds (its template), and each kind's sizes spread log-uniformly
over its range.  They are stratified: slot s of a kind always covers the
s-th coarse slice of the log range, and the rounds split that slice into
fine strata in a fixed golden-ratio order, each size the midpoint of its
stratum.  So any prefix of whole rounds covers the whole range evenly, and
every seed gives the same sizes; the seed draws the inputs themselves.  That
keeps the medians steady across seeds without collapsing the sizes onto a
few fixed values, whose gaps make a median jump between clusters.

All inputs are integers or dyadic rationals of modest magnitude, so every
sum tropikit forms is exact and the oracles can compare text bitwise.  The
robustness corners (weights near 1e308, h <= 1e-10, grids reaching inf,
memory limits) are deliberately not generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# dyadic grids of the transform jobs: x on 2**-6, values on 2**-8, slopes on 2**-10
X_EXP, V_EXP, XI_EXP = 6, 8, 10


@dataclass
class Job:
    """One CLI call: argv (without -o), its size, the oracle's data and its round."""

    id: str
    sub: str
    kind: str
    size: int
    argv: list
    data: dict
    round: int = 0


def fmt(v) -> str:
    return f"{float(v):.17g}"


def _loguniform_strata(lo, hi, slots, rounds):
    """sizes[r][s] for `slots` slots in each of `rounds` rounds, stratified.

    Round r takes the fine stratum ranked by (r * golden ratio) mod 1, so
    the first k rounds are spread evenly over the range for every k.  The
    first round gets the top stratum, so even a run that stops early meets
    the largest job (and its peak memory).  Each size is its stratum's
    midpoint: a seed-drawn point would move the 90th percentile, which sits
    where job times rise steeply, by several percent from seed to seed.
    """
    total = slots * rounds
    phase = np.arange(rounds) * ((math.sqrt(5) - 1) / 2) % 1.0
    fine = rounds - 1 - np.argsort(np.argsort(phase))
    out = np.empty((rounds, slots))
    for s in range(slots):
        u = (s * rounds + fine + 0.5) / total
        out[:, s] = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return np.rint(out).astype(int)


# --- closure: sp ----------------------------------------------------------------


def _graph_text(n, src, dst, w):
    lines = [f"n {n}"]
    lines += [f"{s} {d} {x}" for s, d, x in zip(src.tolist(), dst.tolist(), w.tolist())]
    return "\n".join(lines) + "\n"


def _random_out_edges(rng, n, deg):
    src = np.repeat(np.arange(n), deg)
    dst = np.concatenate([rng.choice(n - 1, deg, replace=False) for _ in range(n)])
    dst = dst + (dst >= src)  # no self-loops
    return src, dst


def gen_shallow(rng, n):
    src, dst = _random_out_edges(rng, n, 8)
    return src, dst, rng.integers(1, 100, src.size)


def gen_deep(rng, n):
    # a ring of light edges plus heavy chords that never shortcut the ring, so
    # shortest paths follow the ring and have up to n - 1 hops
    ring = np.arange(n)
    chord_src = np.repeat(ring, 2)
    chord_dst = (chord_src + rng.integers(2, n, chord_src.size)) % n
    src = np.concatenate([ring, chord_src])
    dst = np.concatenate([(ring + 1) % n, chord_dst])
    w = np.concatenate([rng.integers(1, 10, n), rng.integers(10 * n, 100 * n, chord_src.size)])
    return src, dst, w


def gen_negcycle(rng, n):
    src, dst, w = gen_shallow(rng, n)
    cyc = rng.choice(n, int(rng.integers(3, 7)), replace=False)
    csrc, cdst = cyc, np.roll(cyc, -1)
    cw = rng.integers(-20, 5, cyc.size)
    cw[0] = -(int(cw[1:].sum()) + int(rng.integers(1, 10)))  # cycle weight < 0
    return np.concatenate([src, csrc]), np.concatenate([dst, cdst]), np.concatenate([w, cw])


CLOSURE = {
    "template": [("shallow", 5), ("deep", 4), ("negcycle", 1)],
    "ranges": {"shallow": (64, 192), "deep": (48, 96), "negcycle": (48, 96)},
    "rounds": 12,
}


def _closure_job(rng, jid, kind, n, root: Path):
    gen = {"shallow": gen_shallow, "deep": gen_deep, "negcycle": gen_negcycle}[kind]
    src, dst, w = gen(rng, n)
    path = root / f"{jid}.graph"
    path.write_text(_graph_text(n, src, dst, w))
    return Job(jid, "sp", kind, n, ["sp", "--graph", str(path)],
               {"n": n, "src": src, "dst": dst, "w": w})


# --- solve: bellman and interval-bellman ------------------------------------------


def _dense_text(idx, table):
    return "\n".join("\t".join(table[row]) for row in idx) + "\n"


_ABSENT = 151  # table index of the semiring zero; integer entries stay below it


def _bellman_job(rng, jid, kind, n, root: Path):
    semiring, method = kind.split("-", 1)
    finite = rng.random((n, n)) < 0.05
    np.fill_diagonal(finite, False)
    wts = rng.integers(1, 100, (n, n))
    zero = "inf" if semiring == "minplus" else "-inf"
    table = np.array([str(i) for i in range(_ABSENT)] + [zero], dtype=object)
    h_path, f_path = root / f"{jid}.H.tsv", root / f"{jid}.F.tsv"
    h_path.write_text(_dense_text(np.where(finite, wts, _ABSENT), table))
    targets = rng.choice(n, 4, replace=False)
    fvals = rng.integers(0, 21, 4) if semiring == "minplus" else rng.integers(50, 151, 4)
    f = np.full(n, _ABSENT)
    f[targets] = fvals
    f_path.write_text(_dense_text(f[:, None], table))
    src, dst = np.nonzero(finite)
    argv = ["bellman", "--h-matrix", str(h_path), "--f-matrix", str(f_path),
            "--semiring", semiring, "--method", method]
    data = {"n": n, "src": src, "dst": dst, "w": wts[src, dst], "targets": targets,
            "fvals": fvals, "semiring": semiring}
    return Job(jid, "bellman", kind, n, argv, data)


def _interval_job(rng, jid, kind, n, root: Path):
    src, dst = _random_out_edges(rng, n, 10)
    wmin = rng.integers(1, 100, src.size)
    wmax = wmin + rng.integers(0, 50, src.size)
    target = int(rng.integers(n))
    lines = [f"n {n}"]
    lines += [f"{a} {b} {lo} {hi}" for a, b, lo, hi in
              zip(src.tolist(), dst.tolist(), wmin.tolist(), wmax.tolist())]
    path = root / f"{jid}.igraph"
    path.write_text("\n".join(lines) + "\n")
    argv = ["interval-bellman", "--graph", str(path), "--target", str(target)]
    data = {"n": n, "src": src, "dst": dst, "wmin": wmin, "wmax": wmax, "target": target}
    return Job(jid, "interval-bellman", kind, n, argv, data)


SOLVE = {
    "template": [("minplus-jacobi", 1), ("minplus-gauss-seidel", 1), ("maxmin-jacobi", 1),
                 ("maxmin-gauss-seidel", 1), ("interval", 2)],
    "ranges": {"minplus-jacobi": (200, 600), "minplus-gauss-seidel": (200, 600),
               "maxmin-jacobi": (200, 600), "maxmin-gauss-seidel": (200, 600),
               "interval": (100, 300)},
    "rounds": 20,
}


def _solve_job(rng, jid, kind, n, root):
    if kind == "interval":
        return _interval_job(rng, jid, kind, n, root)
    return _bellman_job(rng, jid, kind, n, root)


# --- transforms: hopflax, convolve, legendre ----------------------------------------


def _dyadic_function(rng, n):
    """(start index, integer values): x = (i0 + i) * 2**-6, value = v * 2**-8."""
    return -(n // 2), rng.integers(-(1 << 11), (1 << 11) + 1, n)


def _function_text(i0, vals, convention):
    head = f"start {fmt(i0 * 2.0**-X_EXP)} step {fmt(2.0**-X_EXP)} convention {convention}"
    return head + "\n" + "\n".join(fmt(v * 2.0**-V_EXP) for v in vals.tolist()) + "\n"


def _transform_job(rng, jid, kind, n, root: Path):
    if kind == "hopflax":
        i0, vals = _dyadic_function(rng, n)
        t = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        path = root / f"{jid}.s0"
        path.write_text(_function_text(i0, vals, "minplus"))
        argv = ["hopflax", "--input", str(path), "--t", fmt(t), "--m", "1"]
        return Job(jid, kind, kind, n, argv, {"i0": i0, "vals": vals, "t": t})
    if kind == "convolve":
        conv = str(rng.choice(["maxplus", "minplus"]))
        (a0, a), (b0, b) = _dyadic_function(rng, n), _dyadic_function(rng, n)
        pa, pb = root / f"{jid}.phi", root / f"{jid}.psi"
        pa.write_text(_function_text(a0, a, conv))
        pb.write_text(_function_text(b0, b, conv))
        argv = ["convolve", "--phi", str(pa), "--psi", str(pb)]
        return Job(jid, kind, kind, n, argv, {"a0": a0, "a": a, "b0": b0, "b": b, "conv": conv})
    i0, vals = _dyadic_function(rng, n)
    k0 = -(n // 2)
    path = root / f"{jid}.phi"
    path.write_text(_function_text(i0, vals, "maxplus"))
    argv = ["legendre", "--input", str(path), "--xi-start", fmt(k0 * 2.0**-XI_EXP),
            "--xi-step", fmt(2.0**-XI_EXP), "--xi-count", str(n)]
    return Job(jid, kind, kind, n, argv, {"i0": i0, "vals": vals, "k0": k0, "m": n})


TRANSFORMS = {
    "template": [("hopflax", 1), ("convolve", 1), ("legendre", 1)],
    "ranges": {"hopflax": (1000, 8000), "convolve": (1000, 8000), "legendre": (1000, 8000)},
    "rounds": 40,
}


# --- geometry: tropcurve, newton, amoeba, axioms, dequant-demo ---------------------------


def _lattice_points(rng, k, lo, hi):
    side = hi - lo + 1
    flat = rng.choice(side * side, k, replace=False)
    return np.stack([flat // side + lo, flat % side + lo], axis=1)


def _poly_text(coeffs, pts):
    return "n 2\n" + "\n".join(f"{c} {x} {y}" for c, (x, y) in zip(coeffs, pts.tolist())) + "\n"


def _geometry_job(rng, jid, kind, size, root: Path):
    if kind == "tropcurve":
        pts = _lattice_points(rng, size, 0, 10)
        coeffs = [f"{int(p)}/{int(q)}" for p, q in
                  zip(rng.integers(-30, 31, size), rng.integers(1, 5, size))]
        path = root / f"{jid}.poly"
        path.write_text(_poly_text(coeffs, pts))
        return Job(jid, kind, kind, size, ["tropcurve", "--poly", str(path)],
                   {"coeffs": coeffs, "pts": pts})
    if kind == "newton":
        pts = _lattice_points(rng, size, -60, 60)
        mags = rng.integers(1, 10, size) * rng.choice([-1, 1], size)
        path = root / f"{jid}.poly"
        path.write_text(_poly_text([str(int(c)) for c in mags], pts))
        return Job(jid, kind, kind, size, ["newton", "--poly", str(path)], {"pts": pts})
    if kind == "amoeba":
        h = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        return Job(jid, kind, kind, size, ["amoeba", "--h", fmt(h), "--samples", str(size)],
                   {"h": h, "samples": size})
    if kind.startswith("axioms"):
        semiring = "minplus" if kind == "axioms-minplus" else \
            f"deformed:{fmt(rng.choice([0.25, 0.5, 1.0, 2.0]))}"
        seed = int(rng.integers(0, 1 << 31))
        argv = ["axioms", "--semiring", semiring, "--trials", str(size), "--seed", str(seed)]
        return Job(jid, "axioms", kind, size, argv,
                   {"semiring": semiring, "trials": size, "seed": seed})
    hs = sorted({int(e) for e in rng.integers(-4, 3, size)}, reverse=True)
    hs = [2.0**e for e in hs]
    u, v = (int(x) * 2.0**-4 for x in rng.integers(-64, 65, 2))
    argv = ["dequant-demo", "--h", ",".join(fmt(h) for h in hs), "--u", fmt(u), "--v", fmt(v)]
    return Job(jid, "dequant-demo", kind, size, argv, {"hs": hs, "u": u, "v": v})


GEOMETRY = {
    "template": [("tropcurve", 2), ("newton", 2), ("amoeba", 1), ("axioms-minplus", 1),
                 ("axioms-deformed", 1), ("dequant-demo", 1)],
    "ranges": {"tropcurve": (8, 24), "newton": (200, 2000), "amoeba": (2000, 8000),
               "axioms-minplus": (2000, 20000), "axioms-deformed": (2000, 20000),
               "dequant-demo": (3, 6)},
    "rounds": 32,
}


WORKLOADS = {
    "closure": (CLOSURE, _closure_job),
    "solve": (SOLVE, _solve_job),
    "transforms": (TRANSFORMS, _transform_job),
    "geometry": (GEOMETRY, _geometry_job),
}


def make_pool(workload: str, seed: int, root: Path) -> list:
    """Write the input files of `workload` under root; return its jobs in run order."""
    spec, make_job = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    rounds = spec["rounds"]
    sizes = {kind: _loguniform_strata(*spec["ranges"][kind], slots, rounds)
             for kind, slots in spec["template"]}
    jobs = []
    for r in range(rounds):
        slots = [(kind, s) for kind, count in spec["template"] for s in range(count)]
        for i in rng.permutation(len(slots)):
            kind, s = slots[i]
            jid = f"{workload[0]}{len(jobs):03d}"
            jobs.append(make_job(rng, jid, kind, int(sizes[kind][r, s]), root))
            jobs[-1].round = r
    return jobs
