"""Top-level acceptance gate.

Each test covers one numbered criterion, enforces its stated tolerance and
runtime budget, and emits one `ACCEPTANCE <k> <name>: PASS|FAIL` line that
survives pytest's capture, so a -v run shows the per-criterion verdicts.
"""

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from helpers import bellman_ford, dijkstra, dyadic, segment_1d
from test_cli import CASES, GOLDEN, run_cli

from tropikit import (
    BOOL,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    NONNEG,
    GenPolynomial,
    Graph,
    IntervalMatrix,
    NegativeCycle,
    SampledFunction,
    SemiringMatrix,
    adjacency_matrix,
    amoeba_line_sample,
    check_axioms,
    convolution,
    deformed_add,
    deformed_spec,
    dequantize_limit,
    eval_dequantized,
    hopf_lax_evolve,
    interval_adjacency,
    interval_bellman,
    kleene_star,
    legendre,
    newton_set,
    pointwise_add,
    poly_add,
    poly_mul,
    polytope_add,
    polytope_mul,
    scalar_mul,
    shortest_paths,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
    tropical_curve_2d,
)

INF = math.inf
LN2 = math.log(2.0)


@pytest.fixture
def gate(capsys):
    @contextlib.contextmanager
    def _gate(k, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {k} {name}: FAIL")
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {k} {name}: PASS")

    return _gate


def random_graph(rng, n, p=0.5, wlo=0, whi=10):
    edges = []
    for s in range(n):
        for d in range(n):
            if s != d and rng.random() < p:
                edges.append((s, d, float(rng.integers(wlo, whi + 1))))
    return Graph(n, tuple(edges))


def positive_poly(rng, n, max_terms=6, span=4):
    k = int(rng.integers(1, max_terms + 1))
    seen, terms = set(), []
    while len(terms) < k:
        d = tuple(int(v) for v in rng.integers(-span, span + 1, n))
        if d in seen:
            continue
        seen.add(d)
        terms.append((float(rng.uniform(0.1, 10.0)), d))
    return GenPolynomial(n, tuple(terms))


def test_criterion_01_semiring_axioms(gate):
    # Note: four built-in instances have idempotent addition (bool, maxplus,
    # minplus, maxmin); they must pass every law exactly.  NONNEG and the
    # deformed family pass all laws but idempotency within 1e-12 relative.
    with gate(1, "semiring-axiom-suite"):
        t0 = time.perf_counter()
        for spec in (BOOL, MAXPLUS, MINPLUS, MAXMIN):
            results = check_axioms(spec, trials=10_000, seed=11)
            assert all(results.values()), (spec.name, results)
        for spec in (NONNEG, deformed_spec(0.5), deformed_spec(0.01)):
            results = check_axioms(spec, trials=10_000, seed=11)
            failed = sorted(law for law, ok in results.items() if not ok)
            assert failed == ["add-idempotent"], (spec.name, failed)
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_dequantization_bound(gate):
    with gate(2, "deformed-addition-bound"):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            u, v = rng.uniform(-50.0, 50.0, 2)
            for h in (1.0, 0.1, 0.01, 0.001):
                gap = deformed_add(u, v, h) - max(u, v)
                assert 0.0 <= gap <= h * LN2 + 1e-12
                # the bound is attained at u = v, bitwise
                d = deformed_add(u, u, h)
                assert d == u + h * LN2
                assert abs((d - u) - h * LN2) <= 1e-12


def test_criterion_03_shortest_path_oracle(gate):
    with gate(3, "shortest-path-oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(13)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.8)))
            D = shortest_paths(g)
            for s in range(n):
                row = list(D.data[s])
                assert row == bellman_ford(n, g.edges, s)
                assert row == dijkstra(n, g.edges, s)
            # the three solvers agree bitwise on X = H X + F with F = I
            H = adjacency_matrix(g, MINPLUS)
            F = SemiringMatrix.identity(n, MINPLUS)
            xj = solve_bellman_jacobi(H, F)
            xg = solve_bellman_gauss_seidel(H, F)
            xs = kleene_star(H)  # star . I
            assert xj == xg == xs
        assert time.perf_counter() - t0 < 10.0


def test_criterion_04_negative_cycle_detection(gate):
    with gate(4, "negative-cycle-detection"):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, p=0.4)
            # seed one strictly negative cycle on distinct nodes
            k = int(rng.integers(2, min(4, n) + 1))
            cyc = list(rng.choice(n, size=k, replace=False))
            extra = []
            for i in range(k):
                extra.append((int(cyc[i]), int(cyc[(i + 1) % k]), 0.0))
            extra[-1] = (extra[-1][0], extra[-1][1], -1.0)
            g = Graph(n, g.edges + tuple(extra))
            with pytest.raises(NegativeCycle):
                shortest_paths(g)  # budget is n + 1 iterations


def test_criterion_05_interval_exactness_and_containment(gate):
    with gate(5, "interval-solution-containment"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(15)
        n, S = 6, 1000
        for _ in range(200):
            edges = []
            for s in range(n):
                for d in range(n):
                    if s != d and rng.random() < 0.5:
                        lo = float(rng.integers(0, 8))
                        edges.append((s, d, lo, lo + float(rng.integers(0, 5))))
            H = interval_adjacency(n, edges, MINPLUS)
            target = int(rng.integers(0, n))
            f = np.full((n, 1), INF)
            f[target, 0] = 0.0
            F = IntervalMatrix.from_arrays(f, f, MINPLUS)
            X = interval_bellman(H, F)
            # endpoints are attained by the two endpoint point-problems
            assert X.lower == solve_bellman_jacobi(H.lower, F.lower)
            assert X.upper == solve_bellman_jacobi(H.upper, F.upper)
            # batched point selections, same Jacobi recurrence per slice
            lo, hi = H.numeric_bounds()
            u = rng.random((S, n, n))
            with np.errstate(invalid="ignore"):
                Hs = np.where(np.isfinite(lo), lo + u * (hi - lo), lo)
            Xs = np.broadcast_to(f[None], (S, n, 1)).copy()
            for _ in range(n + 1):
                prod = np.min(Hs + Xs[:, None, :, 0], axis=2, keepdims=True)
                Xs = np.minimum(prod, f[None])
            # minplus standard order reverses numbers: lower bound is the
            # numerically larger endpoint
            num_hi = X.lower.data[None]
            num_lo = X.upper.data[None]
            assert np.all((num_lo <= Xs) & (Xs <= num_hi))
            assert X.contains_point(SemiringMatrix(Xs[0], MINPLUS))
            assert X.contains_point(SemiringMatrix(Xs[S - 1], MINPLUS))
        assert time.perf_counter() - t0 < 30.0


def test_criterion_06_newton_homomorphism(gate):
    with gate(6, "newton-set-homomorphism"):
        rng = np.random.default_rng(16)
        for _ in range(300):
            f = positive_poly(rng, 2)
            g = positive_poly(rng, 2)
            assert newton_set(poly_mul(f, g)) == polytope_mul(newton_set(f), newton_set(g))
            assert newton_set(poly_add(f, g)) == polytope_add(newton_set(f), newton_set(g))
        # 1-D degree example: N = [0, n] and [0, n] . [0, m] = [0, n + m]
        n, m = 5, 3
        fn = GenPolynomial(1, tuple((1.0, (k,)) for k in range(n + 1)))
        fm = GenPolynomial(1, tuple((1.0, (k,)) for k in range(m + 1)))
        Pn, Pm = newton_set(fn), newton_set(fm)
        assert Pn.vertices == ((Fraction(0),), (Fraction(n),))
        assert Pn.vertices == segment_1d(fn.exponents())
        assert polytope_mul(Pn, Pm).vertices == ((Fraction(0),), (Fraction(n + m),))


def test_criterion_07_dequantization_convergence(gate):
    with gate(7, "dequantized-evaluation-convergence"):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = positive_poly(rng, 2)
            g = positive_poly(rng, 2)
            x = tuple(rng.uniform(-3.0, 3.0, 2))
            lim = dequantize_limit(f, x)
            bound = math.log(len(f.terms)) + max(
                abs(math.log(abs(c))) for c, _ in f.terms
            )
            for h in (1.0, 0.1, 0.01):
                assert abs(eval_dequantized(f, x, h) - lim) <= h * bound + 1e-12
            # product rule and max rule for the limits
            both = dequantize_limit(poly_mul(f, g), x)
            assert abs(both - (lim + dequantize_limit(g, x))) <= 1e-9
            added = dequantize_limit(poly_add(f, g), x)
            assert abs(added - max(lim, dequantize_limit(g, x))) <= 1e-9


def test_criterion_08_tropical_line_and_amoeba(gate):
    with gate(8, "tropical-line-amoeba-trend"):
        curve = tropical_curve_2d([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))])
        O = (Fraction(0), Fraction(0))
        got = {(p.base, p.direction, p.t0, p.t1) for p in curve.pieces}
        assert got == {
            (O, (1, 1), 0, INF),
            (O, (-1, 0), 0, INF),
            (O, (0, -1), 0, INF),
        }

        def skeleton_distance(pt):
            best = INF
            for d in ((1.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
                t = max(0.0, (pt[0] * d[0] + pt[1] * d[1]) / (d[0] ** 2 + d[1] ** 2))
                best = min(best, math.hypot(pt[0] - t * d[0], pt[1] - t * d[1]))
            return best

        def max_dist(h):
            return max(skeleton_distance(p) for p in amoeba_line_sample(h, 400))

        assert max_dist(0.1) < max_dist(1.0)


def test_criterion_09_transform_laws(gate):
    with gate(9, "idempotent-transform-laws"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(19)

        # convolution theorem: the transform of a sup-convolution is the
        # pointwise sum of transforms, bitwise on dyadic data
        xi_start, xi_step, xi_count = -4.0, 0.25, 33
        for _ in range(100):
            na, nb = int(rng.integers(1, 14)), int(rng.integers(1, 14))
            phi = SampledFunction(dyadic(rng, lo=-2, hi=2, grain=8), 0.125,
                                  dyadic(rng, na, grain=1024), "maxplus")
            psi = SampledFunction(dyadic(rng, lo=-2, hi=2, grain=8), 0.125,
                                  dyadic(rng, nb, grain=1024), "maxplus")
            lhs = legendre(convolution(phi, psi), xi_start, xi_step, xi_count)
            a = legendre(phi, xi_start, xi_step, xi_count)
            b = legendre(psi, xi_start, xi_step, xi_count)
            assert np.array_equal(lhs.values, a.values + b.values)

        # transform of -x^2/2 on [-5, 5], step 0.01, against xi^2/2
        delta = 0.01
        xs = -5.0 + delta * np.arange(1001)
        par = SampledFunction(xs[0], delta, -(xs * xs) / 2.0, "maxplus")
        out = legendre(par, -3.0, delta, 601)
        xis = -3.0 + delta * np.arange(601)
        assert np.all(np.abs(out.values - xis * xis / 2.0)
                      <= 2.0 * delta * np.abs(xis) + delta * delta)

        # Hopf-Lax on the stated N = 2001 grid: quadratic spreads to x^2/4
        xs = -10.0 + delta * np.arange(2001)
        s0 = SampledFunction(xs[0], delta, (xs * xs) / 2.0, "minplus")
        s1 = hopf_lax_evolve(s0, 1.0)
        assert np.all(np.abs(s1.values - (xs * xs) / 4.0)
                      <= 2.0 * delta * np.abs(xs) + delta * delta)

        # min-plus linearity, bitwise on dyadic data
        for _ in range(20):
            f = SampledFunction(-4.0, 0.0625, dyadic(rng, 129, grain=1024), "minplus")
            g = SampledFunction(-4.0, 0.0625, dyadic(rng, 129, grain=1024), "minplus")
            a, b = dyadic(rng, grain=1024), dyadic(rng, grain=1024)
            lhs = hopf_lax_evolve(pointwise_add(scalar_mul(a, f), scalar_mul(b, g)), 0.5)
            rhs = pointwise_add(
                scalar_mul(a, hopf_lax_evolve(f, 0.5)),
                scalar_mul(b, hopf_lax_evolve(g, 0.5)),
            )
            assert lhs == rhs

        # semigroup property within the stated 4 * delta * max|x| tolerance
        two_step = hopf_lax_evolve(hopf_lax_evolve(s0, 1.0), 1.0)
        one_step = hopf_lax_evolve(s0, 2.0)
        assert np.max(np.abs(two_step.values - one_step.values)) <= 4.0 * delta * 10.0
        assert time.perf_counter() - t0 < 20.0


def test_criterion_10_cli_determinism(gate):
    with gate(10, "cli-golden-determinism"):
        for golden, argv in CASES:
            r = run_cli(argv)
            assert r.returncode == 0, (golden, r.stderr)
            assert r.stdout == (GOLDEN / golden).read_bytes(), golden
