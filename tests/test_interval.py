import math
import warnings

import numpy as np
import pytest
from helpers import per_edge_interval_adjacency
from hypothesis import given, settings
from hypothesis import strategies as st

import tropikit.interval as interval_mod
import tropikit.linalg as linalg_mod
from tropikit import (
    BOOL,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    NONNEG,
    DomainError,
    IntervalMatrix,
    IntervalValue,
    NonConvergent,
    NotIdempotent,
    SemiringMatrix,
    SpecMismatch,
    TropikitError,
    interval_add,
    interval_adjacency,
    interval_bellman,
    interval_matrix_add,
    interval_matrix_mul,
    interval_mul,
    leq,
    solve_bellman_jacobi,
)
from tropikit.fileio import parse_interval_matrix

INF = math.inf


def iv_minplus(a, b):
    return IntervalValue.from_numeric(a, b, MINPLUS)


def test_standard_order_storage():
    x = iv_minplus(1.0, 2.0)
    # minplus order is reversed numerically: the larger number is "lower"
    assert x.lower == 2.0 and x.upper == 1.0
    assert x.numeric() == (1.0, 2.0)
    y = IntervalValue.from_numeric(5.0, 3.0, MAXPLUS)
    assert y.lower == 3.0 and y.upper == 5.0


def test_worked_examples_minplus():
    x, y = iv_minplus(1.0, 2.0), iv_minplus(0.0, 5.0)
    assert interval_add(x, y).numeric() == (0.0, 2.0)
    assert interval_mul(x, y).numeric() == (1.0, 7.0)


def test_endpoint_order_enforced():
    with pytest.raises(DomainError):
        IntervalValue(1.0, 2.0, MINPLUS)  # 2 is numerically larger, so above 1? no: reversed
    IntervalValue(2.0, 1.0, MINPLUS)  # fine the other way round
    with pytest.raises(NotIdempotent):
        IntervalValue(0.0, 1.0, NONNEG)


def test_degenerate_intervals_embed_points():
    x = IntervalValue(3.0, 3.0, MINPLUS)
    y = IntervalValue(4.0, 4.0, MINPLUS)
    assert interval_add(x, y).numeric() == (3.0, 3.0)
    assert interval_mul(x, y).numeric() == (7.0, 7.0)


def test_containment():
    x = iv_minplus(1.0, 4.0)
    assert x.contains(2.5) and x.contains(1.0) and x.contains(4.0)
    assert not x.contains(0.5) and not x.contains(4.5)


@given(
    st.integers(-20, 20), st.integers(-20, 20),
    st.integers(-20, 20), st.integers(-20, 20),
    st.integers(-20, 20), st.integers(-20, 20),
)
def test_inclusion_isotonicity_add_mul(a0, a1, b0, b1, p, q):
    # any points picked inside the operand intervals land inside the result
    x = iv_minplus(float(min(a0, a1)), float(max(a0, a1)))
    y = iv_minplus(float(min(b0, b1)), float(max(b0, b1)))
    px = float(min(max(p, min(a0, a1)), max(a0, a1)))
    py = float(min(max(q, min(b0, b1)), max(b0, b1)))
    assert interval_add(x, y).contains(min(px, py))
    assert interval_mul(x, y).contains(px + py)


def test_interval_semiring_laws_on_random_samples():
    rng = np.random.default_rng(9)
    def rand_iv():
        a, b = sorted(rng.integers(-10, 11, 2).astype(float))
        return iv_minplus(a, b)
    for _ in range(200):
        x, y, z = rand_iv(), rand_iv(), rand_iv()
        assert interval_add(x, y) == interval_add(y, x)
        assert interval_add(interval_add(x, y), z) == interval_add(x, interval_add(y, z))
        assert interval_mul(interval_mul(x, y), z) == interval_mul(x, interval_mul(y, z))
        assert interval_add(x, x) == x
        assert interval_mul(x, interval_add(y, z)) == interval_add(
            interval_mul(x, y), interval_mul(x, z)
        )
    zero = IntervalValue(MINPLUS.zero, MINPLUS.zero, MINPLUS)
    one = IntervalValue(MINPLUS.one, MINPLUS.one, MINPLUS)
    x = rand_iv()
    assert interval_add(x, zero) == x
    assert interval_mul(x, one) == x
    assert interval_mul(x, zero) == zero


def test_spec_mismatch_rejected():
    x = iv_minplus(0.0, 1.0)
    y = IntervalValue.from_numeric(0.0, 1.0, MAXPLUS)
    with pytest.raises(SpecMismatch):
        interval_add(x, y)


def test_interval_matrix_ops_are_endpointwise():
    lo = np.array([[0.0, 2.0], [1.0, INF]])
    hi = np.array([[3.0, 5.0], [4.0, INF]])
    A = IntervalMatrix.from_arrays(hi, lo, MINPLUS)  # standard order: lower = numeric max
    B = interval_matrix_add(A, A)
    assert B == A  # idempotent
    C = interval_matrix_mul(A, A)
    lo_p, hi_p = C.numeric_bounds()
    want_lo = (lo[:, :, None] + lo[None, :, :]).min(axis=1)
    want_hi = (hi[:, :, None] + hi[None, :, :]).min(axis=1)
    assert np.array_equal(lo_p, want_lo)
    assert np.array_equal(hi_p, want_hi)


_SPECIAL_WEIGHTS = [0.0, -0.0, 1e308, -1e308, INF, -INF, math.nan]


@pytest.mark.parametrize("spec", [MINPLUS, MAXPLUS, MAXMIN], ids=lambda s: s.name)
def test_interval_adjacency_is_bitwise_the_per_edge_oracle(spec):
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(600):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 13))  # over few nodes: many parallel edges
        nodes = rng.integers(0, n, (m, 2)).tolist()
        weights = (rng.integers(-64, 65, (m, 2)) / 8).tolist()
        rate = rng.choice([0.0, 0.05, 0.3])
        for row in weights:
            for k in range(2):
                if rng.random() < rate:
                    row[k] = float(rng.choice(_SPECIAL_WEIGHTS))
        if m and rng.random() < 0.15:
            # out of range, or fractional: a DomainError either way
            nodes[rng.integers(m)][rng.integers(2)] = rng.choice([-1, n, n + 3, -0.5, n - 0.5])
        edges = [(s, d, a, b) for (s, d), (a, b) in zip(nodes, weights)]
        try:
            want = per_edge_interval_adjacency(n, edges, spec)
        except TropikitError as e:
            with pytest.raises(TropikitError) as got:
                interval_adjacency(n, edges, spec)
            assert type(got.value) is type(e)
            outcomes.add(type(e).__name__)
            continue
        got = interval_adjacency(n, edges, spec)
        assert got.lower.data.tobytes() == want.lower.data.tobytes()
        assert got.upper.data.tobytes() == want.upper.data.tobytes()
        outcomes.add("equal")
    assert outcomes == {"equal", "DomainError"}


def test_interval_builders_make_no_interval_value(monkeypatch):
    def refuse(*args):
        raise AssertionError("an IntervalValue was built")

    monkeypatch.setattr(IntervalValue, "__init__", refuse)
    H = interval_adjacency(3, [(0, 1, 1.0, 2.0), (0, 1, 3.0, 0.5), (2, 0, INF, 4.0)])
    assert H.numeric_bounds()[0][0, 1] == 0.5 and H.numeric_bounds()[1][0, 1] == 2.0
    assert parse_interval_matrix("1 2 4 3\n", MAXPLUS).upper.data.tolist() == [[2.0, 4.0]]


def test_interval_bellman_worked_example():
    H = interval_adjacency(2, [(0, 1, 1.0, 3.0)])
    f = np.array([[INF], [0.0]])
    F = IntervalMatrix.from_arrays(f, f, MINPLUS)
    X = interval_bellman(H, F)
    lo, hi = X.numeric_bounds()
    assert lo[0, 0] == 1.0 and hi[0, 0] == 3.0
    assert lo[1, 0] == 0.0 and hi[1, 0] == 0.0


def test_interval_bellman_uses_exactly_two_point_solves(monkeypatch):
    calls = []
    real = linalg_mod.solve_bellman_jacobi

    def counting(H, F, max_iter=None, full_output=False):
        calls.append(1)
        return real(H, F, max_iter=max_iter, full_output=full_output)

    monkeypatch.setattr(linalg_mod, "solve_bellman_jacobi", counting)
    H = interval_adjacency(3, [(0, 1, 1.0, 2.0), (1, 2, 0.5, 4.0)])
    f = np.full((3, 1), INF)
    f[2, 0] = 0.0
    F = IntervalMatrix.from_arrays(f, f, MINPLUS)
    interval_bellman(H, F)
    assert len(calls) == 2


def test_interval_bellman_endpoints_are_point_solutions():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = 5
        edges = []
        for s in range(n):
            for d in range(n):
                if s != d and rng.random() < 0.5:
                    a, b = sorted(rng.uniform(0, 10, 2))
                    edges.append((s, d, float(a), float(b)))
        H = interval_adjacency(n, edges)
        f = np.full((n, 1), INF)
        f[0, 0] = 0.0
        F = IntervalMatrix.from_arrays(f, f, MINPLUS)
        X = interval_bellman(H, F)
        assert solve_bellman_jacobi(H.lower, F.lower) == X.lower
        assert solve_bellman_jacobi(H.upper, F.upper) == X.upper
        # the pessimistic endpoint system is the numerically-largest weights
        lo_num, hi_num = H.numeric_bounds()
        pess = solve_bellman_jacobi(SemiringMatrix(hi_num, MINPLUS), F.lower)
        assert pess == X.lower


def test_interval_bellman_divergence_flags_endpoint():
    # lower endpoint system (numerically larger weights) converges while the
    # upper one carries the negative cycle
    lo = np.array([[INF, 1.0], [1.0, INF]])
    hi = np.array([[INF, -2.0], [-2.0, INF]])
    H = IntervalMatrix.from_arrays(lo, hi, MINPLUS)
    f = np.array([[0.0], [INF]])
    F = IntervalMatrix.from_arrays(f, f, MINPLUS)
    with pytest.raises(NonConvergent) as exc:
        interval_bellman(H, F)
    assert exc.value.endpoint == "upper"


_INTERVAL_CELLS = st.sampled_from([1e308, -1e308, 1e307, -1e307]) | st.integers(-5, 5).map(float)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([BOOL, MINPLUS, MAXPLUS, MAXMIN]), st.integers(1, 5), st.data())
def test_interval_solves_never_leave_the_carrier_silently(spec, n, data):
    # weights and right-hand sides near and beyond the float64 limit: a
    # typed error or a NaN-free interval matrix, never a warning
    cells = st.sampled_from([spec.zero, spec.one])  # maxmin: both infinities
    if spec is not BOOL:
        cells |= _INTERVAL_CELLS
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node, cells, cells), max_size=3 * n))
    if edges and data.draw(st.integers(0, 9)) == 0:
        edges[0] = (data.draw(st.sampled_from([-1, n])),) + edges[0][1:]  # out of range
    k = data.draw(st.integers(1, 2))
    f = st.lists(st.lists(cells, min_size=k, max_size=k), min_size=n, max_size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            H = interval_adjacency(n, edges, spec)
            F = IntervalMatrix.from_numeric(data.draw(f), data.draw(f), spec)
            X = interval_bellman(H, F, max_iter=data.draw(st.none() | st.integers(0, n + 1)))
        except TropikitError:
            return
    for M in (H, F, X):
        assert not np.isnan(M.lower.data).any() and not np.isnan(M.upper.data).any()
    assert X.contains_point(X.lower) and X.contains_point(X.upper)


def test_containment_monte_carlo():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = 5
        lo = np.full((n, n), INF)
        hi = np.full((n, n), INF)
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        a = rng.uniform(0, 10, (n, n))
        b = rng.uniform(0, 10, (n, n))
        wlo, whi = np.minimum(a, b), np.maximum(a, b)
        std_lo = np.where(mask, whi, INF)  # minplus: standard lower = larger number
        std_hi = np.where(mask, wlo, INF)
        H = IntervalMatrix.from_arrays(std_lo, std_hi, MINPLUS)
        f = np.full((n, 1), INF)
        f[rng.integers(0, n), 0] = 0.0
        F = IntervalMatrix.from_arrays(f, f, MINPLUS)
        X = interval_bellman(H, F)
        for _ in range(50):
            u = rng.random((n, n))
            w = np.where(mask, wlo + u * (whi - wlo), INF)
            w = np.where(mask, np.minimum(np.maximum(w, wlo), whi), INF)
            Xp = solve_bellman_jacobi(SemiringMatrix(w, MINPLUS), F.lower)
            assert X.contains_point(Xp)
