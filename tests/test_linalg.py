import dataclasses
import math
from dataclasses import FrozenInstanceError, replace
from re import escape as re_escape
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    bellman_ford,
    dense_jacobi,
    dijkstra,
    is_negative_cycle,
    one_shot_product,
    per_edge_accumulate,
    row_sweep_gauss_seidel,
    stabilized_star,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tropikit import (
    BOOL,
    MAXMIN,
    MAXPLUS,
    MINPLUS,
    NONNEG,
    DomainError,
    Graph,
    NegativeCycle,
    NonConvergent,
    NotIdempotent,
    OutOfMemory,
    SemiringMatrix,
    SemiringSpec,
    ShapeMismatch,
    SpecMismatch,
    TropikitError,
    adjacency_matrix,
    get_semiring,
    interval_adjacency,
    kleene_star,
    leq,
    matrix_add,
    matrix_mul,
    shortest_paths,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
)
from tropikit import linalg
from tropikit.fileio import parse_graph, read_text
from tropikit.linalg import _accumulate

INF = math.inf
DATA = Path(__file__).resolve().parent / "data"


def minplus_mat(rows):
    return SemiringMatrix(rows, MINPLUS)


def test_matrix_construction_and_equality():
    A = minplus_mat([[0.0, 1.0], [INF, 0.0]])
    B = minplus_mat([[0.0, 1.0], [INF, 0.0]])
    assert A == B and A.shape == (2, 2)
    assert A != SemiringMatrix([[0.0, 1.0], [-INF, 0.0]], MAXPLUS)
    with pytest.raises(ShapeMismatch):
        SemiringMatrix([1.0, 2.0], MINPLUS)


def test_matrix_domain_validation():
    from tropikit import DomainError

    with pytest.raises(DomainError):
        minplus_mat([[-INF, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        SemiringMatrix([[float("nan")]], MAXMIN)


def test_matrix_mul_worked_example():
    A = minplus_mat([[0.0, 1.0], [INF, 0.0]])
    assert matrix_mul(A, A) == A


def test_matrix_ops_mixed_specs_rejected():
    A = minplus_mat([[0.0]])
    B = SemiringMatrix([[0.0]], MAXPLUS)
    with pytest.raises(SpecMismatch):
        matrix_add(A, B)
    with pytest.raises(SpecMismatch):
        matrix_mul(A, B)


def test_matrix_ops_across_semirings():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 5, (3, 3)).astype(float)
    Y = rng.integers(0, 5, (3, 3)).astype(float)
    got = matrix_mul(SemiringMatrix(X, NONNEG), SemiringMatrix(Y, NONNEG))
    assert np.allclose(got.data, X @ Y)
    got = matrix_mul(SemiringMatrix(X, MAXMIN), SemiringMatrix(Y, MAXMIN))
    want = np.minimum(X[:, :, None], Y[None, :, :]).max(axis=1)
    assert np.array_equal(got.data, want)


@pytest.mark.parametrize("name", ["bool", "maxplus", "minplus", "maxmin", "nonneg", "deformed:0.5"])
@pytest.mark.parametrize("n,k,m", [(64, 64, 64), (600, 600, 1), (3, 200, 200)])
def test_matrix_mul_equals_one_shot_product_bitwise(name, n, k, m):
    # each shape spans several row blocks, or rows wider than one block
    spec = get_semiring(name)
    rng = np.random.default_rng(n + k + m)
    A = SemiringMatrix(spec.sample(rng, (n, k)), spec)
    B = SemiringMatrix(spec.sample(rng, (k, m)), spec)
    got = matrix_mul(A, B).data
    want = one_shot_product(A, B) + 0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["minplus", "maxplus", "maxmin"])
def test_matrix_mul_over_an_empty_inner_dimension_is_the_zero(name):
    # an empty sum: numpy's minimum and maximum reductions have no identity
    spec = get_semiring(name)
    got = matrix_mul(SemiringMatrix(np.zeros((2, 0)), spec), SemiringMatrix(np.zeros((0, 3)), spec))
    assert got == SemiringMatrix.zeros(2, 3, spec)


def test_matrix_mul_temporary_memory_is_bounded():
    rng = np.random.default_rng(5)
    A = SemiringMatrix(MINPLUS.sample(rng, (300, 300)), MINPLUS)
    tracemalloc.start()
    try:
        matrix_mul(A, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_identity_is_neutral():
    rng = np.random.default_rng(1)
    A = SemiringMatrix(rng.integers(-5, 5, (4, 4)).astype(float), MAXPLUS)
    eye = SemiringMatrix.identity(4, MAXPLUS)
    assert matrix_mul(A, eye) == A
    assert matrix_mul(eye, A) == A


def test_kleene_star_worked_example():
    A = minplus_mat([[INF, 1.0], [2.0, INF]])
    assert kleene_star(A) == minplus_mat([[0.0, 1.0], [2.0, 0.0]])


def test_kleene_star_of_zero_matrix_is_identity():
    Z = SemiringMatrix.zeros(3, 3, MINPLUS)
    assert kleene_star(Z) == SemiringMatrix.identity(3, MINPLUS)


def test_kleene_star_negative_cycle_diverges():
    with pytest.raises(NonConvergent):
        kleene_star(minplus_mat([[-1.0]]))


def _integer_matrix(rng, spec, n, lo, hi):
    if spec is BOOL:
        return SemiringMatrix(rng.integers(0, 2, (n, n)).astype(float), spec)
    w = rng.integers(lo, hi + 1, (n, n)).astype(float)
    return SemiringMatrix(np.where(rng.random((n, n)) < 0.5, spec.zero, w), spec)


def _python_ops(spec):
    """spec with its operations behind Python functions, which take no out
    argument: the star keeps its allocating calls for them."""
    return dataclasses.replace(spec, name=f"python-{spec.name}",
                               add=lambda a, b: spec.add(a, b), mul=lambda a, b: spec.mul(a, b))


@pytest.mark.parametrize("spec", [BOOL, MAXPLUS, MINPLUS, MAXMIN, _python_ops(MINPLUS)],
                         ids=lambda s: s.name)
def test_kleene_star_is_bitwise_the_stabilized_series(spec):
    # weights of one sign make every cycle absorbed by one; mixed signs
    # make most larger matrices diverge under maxplus and minplus
    rng = np.random.default_rng(21)
    outcomes = set()
    for n in range(1, 41):
        for lo, hi in ((0, 9), (-9, 0), (-9, 9)):
            A = _integer_matrix(rng, spec, n, lo, hi)
            try:
                want = stabilized_star(A)
            except NonConvergent:
                with pytest.raises(NonConvergent):
                    kleene_star(A)
                outcomes.add("diverged")
                continue
            got = kleene_star(A).data.view(np.int64)
            assert np.array_equal(got, want.data.view(np.int64)), (n, lo, hi)
            outcomes.add("converged")
    divergent = spec not in (BOOL, MAXMIN)
    assert outcomes == ({"converged", "diverged"} if divergent else {"converged"})


def test_kleene_star_overflowing_cycle_diverges_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent):
            kleene_star(minplus_mat([[INF, -1e308], [-1e308, INF]]))
        with pytest.raises(NonConvergent):
            kleene_star(SemiringMatrix([[-INF, 1e308], [1e308, -INF]], MAXPLUS))
        with pytest.raises(NegativeCycle) as exc:
            shortest_paths(Graph(2, ((0, 1, -1e308), (1, 0, -1e308))))
    assert exc.value.cycle == (0, 1)


@pytest.mark.parametrize("edges", [
    ((0, 1, -1e308), (1, 2, -1e308)),
    # -inf + inf lands on the diagonal of the last pivot as NaN
    ((3, 0, 0.0), (0, 1, -1e308), (1, 2, -1e308)),
])
def test_kleene_star_overflow_on_a_convergent_star_is_a_domain_error(edges):
    dag = Graph(4, edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            kleene_star(adjacency_matrix(dag, MINPLUS))
        with pytest.raises(DomainError, match="overflow"):
            shortest_paths(dag)


@pytest.mark.parametrize("spec,big", [
    (MAXPLUS, -1e308), (MINPLUS, 1e308), (_python_ops(MAXPLUS), -1e308), (_python_ops(MINPLUS), 1e308),
], ids=lambda x: getattr(x, "name", None))
def test_kleene_star_is_the_stabilized_series_past_a_diagonal_overflow(spec, big):
    # the first pivot's products put big (x) big, past float64, on the
    # diagonal only: a cycle that one absorbs, retried without the flag
    A = SemiringMatrix([[spec.zero, big, spec.zero], [big, spec.zero, 2.0], [spec.zero] * 3], spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kleene_star(A)
    with np.errstate(over="ignore"):
        want = stabilized_star(A)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.data[0, 0] == got.data[1, 1] == 0.0 and got.data[0, 2] == big + 2.0


def test_kleene_star_temporary_memory_is_bounded():
    # S and one product buffer through the pivots, then S and the result's
    # copy: under three n x n floats, which a fresh product and a fresh S
    # at each pivot took
    n = 300
    A = SemiringMatrix(np.abs(MINPLUS.sample(np.random.default_rng(5), (n, n))), MINPLUS)
    tracemalloc.start()
    try:
        kleene_star(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * n * n * 8


_EXTREMES = st.sampled_from([1e308, -1e308]) | st.integers(-5, 5).map(float)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([BOOL, MAXPLUS, MINPLUS, MAXMIN]), st.integers(1, 6), st.data())
def test_kleene_star_never_leaves_the_carrier_silently(spec, n, data):
    cells = st.just(spec.zero) | (st.sampled_from([0.0, 1.0]) if spec is BOOL else _EXTREMES)
    A = SemiringMatrix(data.draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                                          min_size=n, max_size=n)), spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            S = kleene_star(A)
        except TropikitError:
            return
    assert not np.any(np.isnan(S.data))
    assert np.all(spec.contains(S.data))


def test_kleene_star_requires_idempotent_addition():
    for spec in (NONNEG, get_semiring("deformed:0.5")):
        with pytest.raises(NotIdempotent):
            kleene_star(SemiringMatrix([[0.5]], spec))


@pytest.mark.parametrize("spec,big", [(MAXPLUS, 1e308), (MINPLUS, -1e308)], ids=["maxplus", "minplus"])
def test_bellman_overflow_is_a_domain_error(spec, big):
    # X[0] = H[0, 1] (x) F[1] = big + big leaves float64; Gauss-Seidel used to
    # meet the overflow with the zero (-inf + inf = NaN) and sweep until its
    # budget ran out, Jacobi to warn and fail the carrier check
    H = SemiringMatrix([[spec.zero, big], [spec.zero, spec.zero]], spec)
    F = SemiringMatrix([[0.0], [big]], spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (solve_bellman_jacobi, solve_bellman_gauss_seidel):
            with pytest.raises(DomainError, match="overflows float64"):
                solve(H, F)


@pytest.mark.parametrize("spec,big", [(MAXPLUS, -1e308), (MINPLUS, 1e308)], ids=["maxplus", "minplus"])
def test_product_overflow_onto_the_zero_is_a_domain_error(spec, big):
    # big + big rounds to the zero of spec, which the carrier check cannot see
    with pytest.raises(DomainError, match="matrix_mul: .* overflows float64"):
        matrix_mul(SemiringMatrix([[big]], spec), SemiringMatrix([[big]], spec))
    # one overflowing pair is enough, even where another pair wins
    A = SemiringMatrix([[big, 0.0]], spec)
    with pytest.raises(DomainError, match="overflows float64"):
        matrix_mul(A, SemiringMatrix([[big], [5.0]], spec))
    # Jacobi used to drop the path X[0] = H[0, 1] (x) F[1] without a word
    H = SemiringMatrix([[spec.zero, big], [spec.zero, spec.zero]], spec)
    F = SemiringMatrix([[spec.zero], [big]], spec)
    with pytest.raises(DomainError, match="overflows float64"):
        solve_bellman_jacobi(H, F)
    # large magnitudes whose products stay finite are no overflow
    half = big / 2
    got = matrix_mul(SemiringMatrix([[half, -big]], spec), SemiringMatrix([[half], [big]], spec))
    assert got.data.tolist() == [[spec.add(2 * half, 0.0)]]
    # the two-arc path of this chain overflows onto the zero: the star and
    # Gauss-Seidel must see it as Jacobi does
    z = spec.zero
    H = SemiringMatrix([[z, big, z], [z, z, big], [z, z, z]], spec)
    F = SemiringMatrix([[z], [z], [big]], spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (kleene_star, lambda H: solve_bellman_gauss_seidel(H, F),
                      lambda H: solve_bellman_jacobi(H, F)):
            with pytest.raises(DomainError, match="overflows float64"):
                solve(H)
        # a cycle whose weight overflows onto the zero adds nothing to the star
        got = kleene_star(SemiringMatrix([[z, big], [big, z]], spec))
        assert got.data.tolist() == [[0.0, big], [big, 0.0]]


def test_product_overflow_check_scans_no_matrix(monkeypatch):
    # numpy's overflow flag is the whole check: no pass over the entries or
    # the blocks, not even where |1e308| + |-1e308| would overflow
    calls = []
    for name in ("isinf", "isfinite"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    A = SemiringMatrix([[1e300, INF], [-1e300, 0.0]], MINPLUS)
    matrix_mul(A, A)
    got = matrix_mul(SemiringMatrix([[1e308]], MINPLUS), SemiringMatrix([[-1e308]], MINPLUS))
    assert calls == [] and got.data.tolist() == [[0.0]]


_LINALG_CELLS = st.sampled_from([1e308, -1e308, 1e307, -1e307]) | st.integers(-5, 5).map(float)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([BOOL, MAXPLUS, MINPLUS, MAXMIN]), st.integers(1, 6), st.data())
def test_linalg_never_leaves_the_carrier_silently(spec, n, data):
    cells = st.just(spec.zero) | (st.sampled_from([0.0, 1.0]) if spec is BOOL else _LINALG_CELLS)

    def matrix(cols):
        rows = st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=n, max_size=n)
        return SemiringMatrix(data.draw(rows), spec)

    H, F = matrix(n), matrix(data.draw(st.integers(1, 3)))
    for solve in (matrix_mul, solve_bellman_jacobi, solve_bellman_gauss_seidel):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                X = solve(H, F)
            except TropikitError:
                continue
        assert not np.any(np.isnan(X.data))
        assert np.all(spec.contains(X.data))


def _accumulate_specs():
    spy = SemiringSpec(name="spy", add=np.minimum, mul=None, zero=INF, one=0.0,
                       idempotent=True, contains=None, add_reduce=None)
    return [BOOL, MAXPLUS, MINPLUS, MAXMIN, NONNEG, get_semiring("deformed:0.5"), spy]


@pytest.mark.parametrize("spec", _accumulate_specs(), ids=lambda s: s.name)
def test_accumulate_is_bitwise_the_per_edge_fold(spec):
    # parallel edges, ties and -0.0: every arc folds its weights left to
    # right, so even the non-associative additions (nonneg, deformed) and
    # the sign of a zero match one edge at a time
    rng = np.random.default_rng(31)
    sample = (spec.sample or MINPLUS.sample)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 25))
        src, dst = rng.integers(0, n, (2, m))
        w = sample(rng, m)
        zeros = rng.random(m) < 0.2
        w[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        got = _accumulate(n, src, dst, w, spec)
        want = per_edge_accumulate(n, src, dst, w, spec)
        assert got.tobytes() == want.tobytes()


def test_accumulate_calls_add_once_per_occurrence_rank():
    calls = []

    def add(a, b):
        calls.append(np.shape(a))
        return np.minimum(a, b)

    spec = SemiringSpec(name="counting", add=add, mul=None, zero=INF, one=0.0,
                        idempotent=True, contains=None, add_reduce=None)
    src, dst = np.array([0, 1, 0, 0, 2, 1]), np.array([1, 1, 1, 1, 0, 1])
    w = np.array([3.0, 2.0, 1.0, 5.0, 4.0, 0.0])
    got = _accumulate(3, src, dst, w, spec)
    assert calls == [(3,), (2,), (1,)]  # (0, 1) has three edges, (1, 1) two
    assert got[0, 1] == 1.0 and got[1, 1] == 0.0 and got[2, 0] == 4.0


_BAD_IDS = [(0.5, 0, "edge (0.5, 0)"), (0, 2, "edge (0, 2)"), (-1, 1, "edge (-1, 1)"),
            (math.nan, 0, "edge (nan, 0)"), (1, INF, "edge (1, inf)"), (1.0, 2.0, "edge (1, 2)")]


@pytest.mark.parametrize("s,d,msg", _BAD_IDS)
def test_graph_and_interval_adjacency_share_the_node_id_check(s, d, msg):
    want = f"^{re_escape(msg)} out of range for 2 nodes$"
    with pytest.raises(DomainError, match=want):
        Graph(2, ((0, 1, 1.0), (s, d, 1.0)))
    with pytest.raises(DomainError, match=want):
        interval_adjacency(2, [(0, 1, 1.0, 2.0), (s, d, 1.0, 2.0)])


def test_matrix_numpy_cannot_index_is_out_of_memory():
    # n * n exceeds numpy's largest array dimension, so nothing is allocated
    n = 4294967296
    with pytest.raises(OutOfMemory, match=f"^a {n} x {n} matrix is too large to allocate$"):
        adjacency_matrix(Graph(n, ((0, 1, 1.0),)))
    with pytest.raises(OutOfMemory):
        interval_adjacency(n, [(0, 1, 1.0, 2.0)])


def test_graph_keeps_its_edges_as_arrays():
    g = Graph(3, [(0, 1, 2.5), (2.0, 0, -1)])
    assert g.edges == ((0, 1, 2.5), (2, 0, -1.0))
    assert all(type(v) is t for e in g.edges for v, t in zip(e, (int, int, float)))
    assert g.src.dtype == g.dst.dtype == np.int64 and g.w.dtype == np.float64
    assert not g.w.flags.writeable
    assert g == Graph(3, g.edges) and hash(g) == hash(Graph(3, g.edges))
    assert Graph(1).edges == ()
    with pytest.raises(DomainError, match="finite"):
        Graph(2, ((0, 1, INF),))


def test_graph_is_immutable():
    g = Graph(2, ((0, 1, 1.0),))
    for name, value in (("n", 0), ("src", np.zeros(1, np.int64)), ("edges", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(g, name, value)
    with pytest.raises(FrozenInstanceError):
        del g.n
    with pytest.raises(ValueError):
        g.src[0] = 1
    assert g == Graph(2, ((0, 1, 1.0),)) and g.n == 2


def test_jacobi_worked_example():
    H = minplus_mat([[INF, 1.0], [INF, INF]])
    F = minplus_mat([[INF], [0.0]])
    X, info = solve_bellman_jacobi(H, F, full_output=True)
    assert X == minplus_mat([[1.0], [0.0]])
    assert info["iterations"] == 2
    assert matrix_add(matrix_mul(H, X), F) == X


def test_gauss_seidel_sweep_counts_on_path_graphs():
    n = 6
    # arcs i -> i-1: ascending sweeps see fresh values, one pass stabilizes
    H = np.full((n, n), INF)
    for i in range(1, n):
        H[i, i - 1] = float(i)
    F = np.full((n, 1), INF)
    F[0, 0] = 0.0
    X, info = solve_bellman_gauss_seidel(minplus_mat(H), minplus_mat(F), full_output=True)
    assert info["iterations"] == 2
    # arcs i -> i+1: information flows against the sweep order, one hop per sweep
    Hr = np.full((n, n), INF)
    for i in range(n - 1):
        Hr[i, i + 1] = 1.0
    Fr = np.full((n, 1), INF)
    Fr[n - 1, 0] = 0.0
    Xr, info_r = solve_bellman_gauss_seidel(minplus_mat(Hr), minplus_mat(Fr), full_output=True)
    assert info_r["iterations"] == n
    _, info_j = solve_bellman_jacobi(minplus_mat(Hr), minplus_mat(Fr), full_output=True)
    assert info_j["iterations"] == n
    assert Xr == solve_bellman_jacobi(minplus_mat(Hr), minplus_mat(Fr))


def _gauss_seidel_outcome(solve, H, F, max_iter):
    # (X bits, sweeps) or (exception type, message), with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            X, info = solve(H, F, max_iter=max_iter, full_output=True)
        except TropikitError as e:
            return type(e), str(e)
    return X.data.tobytes(), info["iterations"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([BOOL, MAXPLUS, MINPLUS, MAXMIN]), st.integers(1, 8), st.data())
def test_gauss_seidel_is_bitwise_the_row_sweep(spec, n, data):
    # the same X bits and sweeps, or the same error: overflows onto both
    # infinities, negative cycles against the budget, and every max_iter
    cells = st.just(spec.zero) | (st.sampled_from([0.0, 1.0]) if spec is BOOL else _LINALG_CELLS)

    def matrix(cols):
        rows = st.lists(st.lists(cells, min_size=cols, max_size=cols), min_size=n, max_size=n)
        return SemiringMatrix(data.draw(rows), spec)

    H, F = matrix(n), matrix(data.draw(st.integers(1, 3)))
    max_iter = data.draw(st.none() | st.integers(0, n + 1))
    if max_iter == 0:  # the solver's count check; the oracle would report a divergence
        assert (_gauss_seidel_outcome(solve_bellman_gauss_seidel, H, F, max_iter)
                == (DomainError, "max_iter must be an integer >= 1, got 0"))
        return
    assert (_gauss_seidel_outcome(solve_bellman_gauss_seidel, H, F, max_iter)
            == _gauss_seidel_outcome(row_sweep_gauss_seidel, H, F, max_iter))


def _oracle_outcome(solve, H, F, max_iter):
    # (X bits, passes) or (exception type, message), with the overflow
    # message of the dense Jacobi oracle under the solver's own name
    got = _gauss_seidel_outcome(solve, H, F, max_iter)
    if isinstance(got[1], str):
        return got[0], got[1].replace("matrix_mul:", "solve_bellman_jacobi:")
    return got


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([BOOL, MAXPLUS, MINPLUS, MAXMIN, _python_ops(MINPLUS)]),
       st.integers(1, 8), st.integers(1, 3), st.integers(0, 4), st.data())
def test_bellman_solvers_are_bitwise_their_oracles(spec, n, k, density, data):
    # the single sweep against the dense Jacobi loop and the row loop, from
    # no finite entry of H to all of them: X bits, pass counts and errors
    finite = st.sampled_from([0.0, 1.0]) if spec.name == "bool" else _LINALG_CELLS
    cell = st.tuples(st.integers(0, 3), finite).map(lambda t: t[1] if t[0] < density else spec.zero)

    def matrix(cols):
        rows = st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=n, max_size=n)
        return SemiringMatrix(data.draw(rows), spec)

    H, F = matrix(n), matrix(k)
    max_iter = data.draw(st.none() | st.integers(1, n + 1))
    assert (_oracle_outcome(solve_bellman_jacobi, H, F, max_iter)
            == _oracle_outcome(dense_jacobi, H, F, max_iter))
    assert (_gauss_seidel_outcome(solve_bellman_gauss_seidel, H, F, max_iter)
            == _gauss_seidel_outcome(row_sweep_gauss_seidel, H, F, max_iter))


def test_bellman_solvers_share_one_sweep_and_no_matrix_product(monkeypatch):
    # both solvers run on the padded rows of H: no matrix_mul, matrix_add or
    # SemiringMatrix == on the way, for a converging and a diverging system
    H, F = _bench_shaped_system(4, MINPLUS, n=60)
    neg = minplus_mat([[INF, -1.0], [-1.0, INF]]), minplus_mat([[0.0], [INF]])
    want = [dense_jacobi(H, F, full_output=True), row_sweep_gauss_seidel(H, F, full_output=True)]

    def fail(*args, **kwargs):
        raise AssertionError("the Bellman solvers form no matrix product")

    for name in ("matrix_mul", "matrix_add"):
        monkeypatch.setattr(linalg, name, fail)
    monkeypatch.setattr(SemiringMatrix, "__eq__", fail)
    for solve, (X, info) in zip((solve_bellman_jacobi, solve_bellman_gauss_seidel), want):
        got, got_info = solve(H, F, full_output=True)
        assert got.data.tobytes() == X.data.tobytes() and got_info == info
        with pytest.raises(NonConvergent, match="no fixpoint after 3 "):
            solve(*neg)


def _bench_shaped_system(seed, spec, n=300):
    # as the solve benchmark draws them: 5 % finite arcs, 4 targets
    rng = np.random.default_rng(seed)
    finite = rng.random((n, n)) < 0.05
    np.fill_diagonal(finite, False)
    H = np.where(finite, rng.integers(1, 100, (n, n)), spec.zero)
    F = np.full((n, 1), spec.zero)
    F[rng.choice(n, 4, replace=False), 0] = (rng.integers(0, 21, 4) if spec is MINPLUS
                                             else rng.integers(50, 151, 4))
    return SemiringMatrix(H, spec), SemiringMatrix(F, spec)


@pytest.mark.parametrize("spec", [MINPLUS, MAXMIN], ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gauss_seidel_is_bitwise_the_row_sweep_on_bench_shaped_systems(spec, seed):
    H, F = _bench_shaped_system(seed, spec)
    got = _gauss_seidel_outcome(solve_bellman_gauss_seidel, H, F, None)
    assert got == _gauss_seidel_outcome(row_sweep_gauss_seidel, H, F, None)
    assert got[1] > 2  # several sweeps, so the later ones start from a moved X


def test_gauss_seidel_drops_a_round_that_overflows_on_its_way():
    # the first round reads X[1] = 1e308 before it settles at 0: 1e308 +
    # 1e308 overflows there, while the row loop only forms 1e308 + 0
    H = minplus_mat([[INF, INF, INF], [0.0, INF, INF], [INF, 1e308, INF]])
    F = minplus_mat([[0.0], [1e308], [INF]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, info = solve_bellman_gauss_seidel(H, F, full_output=True)
    assert X.data.tolist() == [[0.0], [0.0], [1e308]] and info["iterations"] == 2


def test_gauss_seidel_forms_a_bounded_number_of_pairs_per_sweep():
    # a dense descending chain: row i settles only after row i-1, so
    # relaxing until nothing moves would take n rounds of n^2/2 pairs each
    n, k = 200, 1
    formed = []

    def counting_mul(a, b):
        out = MINPLUS.mul(a, b)
        formed.append(np.size(out))
        return out

    spy = replace(MINPLUS, name="spy-minplus", mul=counting_mul)
    i, j = np.indices((n, n))
    H = np.where(j < i, 10.0 * (i - j), INF)
    H[i == j + 1] = 1.0
    F = np.full((n, k), INF)
    F[0] = 0.0
    X, info = solve_bellman_gauss_seidel(SemiringMatrix(H, spy), SemiringMatrix(F, spy),
                                         full_output=True)
    assert X.data[:, 0].tolist() == list(map(float, range(n)))
    assert sum(formed) <= 3 * n * n * k * info["iterations"]
    assert X.data.tobytes() == row_sweep_gauss_seidel(minplus_mat(H), minplus_mat(F)).data.tobytes()


def random_convergent_instance(rng, spec):
    n = int(rng.integers(2, 11))
    arr = np.full((n, n), spec.zero)
    mask = rng.random((n, n)) < 0.45
    if spec is MINPLUS:
        w = rng.integers(0, 11, (n, n)).astype(float)
    else:
        w = -rng.integers(0, 11, (n, n)).astype(float)
    arr[mask] = w[mask]
    k = int(rng.integers(1, 3))
    f = np.full((n, k), spec.zero)
    fmask = rng.random((n, k)) < 0.6
    f[fmask] = (rng.integers(0, 6, (n, k)).astype(float) * (1 if spec is MINPLUS else -1))[fmask]
    return SemiringMatrix(arr, spec), SemiringMatrix(f, spec)


def test_methods_agree_on_random_convergent_instances():
    rng = np.random.default_rng(42)
    for _ in range(150):
        spec = MINPLUS if rng.random() < 0.5 else MAXPLUS
        H, F = random_convergent_instance(rng, spec)
        xj = solve_bellman_jacobi(H, F)
        xg = solve_bellman_gauss_seidel(H, F)
        xs = matrix_mul(kleene_star(H), F)
        assert xj == xg == xs
        # fixpoint property
        assert matrix_add(matrix_mul(H, xj), F) == xj


def test_least_solution_by_brute_force():
    # n = 2 over a small integer value set: enumerate every fixpoint Y and
    # confirm the returned X is below all of them in the standard order
    from itertools import product

    values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, INF]
    rng = np.random.default_rng(5)
    for _ in range(20):
        H = np.full((2, 2), INF)
        for i in range(2):
            for j in range(2):
                if rng.random() < 0.6:
                    H[i, j] = float(rng.integers(0, 4))
        F = np.array([[float(rng.integers(0, 4)) if rng.random() < 0.7 else INF] for _ in range(2)])
        Hm, Fm = minplus_mat(H), minplus_mat(F)
        X = solve_bellman_jacobi(Hm, Fm)
        for y0, y1 in product(values, repeat=2):
            Y = np.array([[y0], [y1]])
            lhs = np.minimum(np.min(H + Y[:, 0][None, :], axis=1, keepdims=True), F)
            if np.array_equal(lhs, Y):
                assert leq(X.data[0, 0], y0, MINPLUS)
                assert leq(X.data[1, 0], y1, MINPLUS)


def test_solution_monotone_in_inputs():
    rng = np.random.default_rng(11)
    for _ in range(50):
        H, F = random_convergent_instance(rng, MINPLUS)
        n = H.rows
        # pushing H and F up in the standard order can only push X up
        r = np.full((n, n), INF)
        m = rng.random((n, n)) < 0.3
        r[m] = rng.integers(0, 11, (n, n)).astype(float)[m]
        H2 = matrix_add(H, SemiringMatrix(r, MINPLUS))
        rf = np.full(F.shape, INF)
        mf = rng.random(F.shape) < 0.3
        rf[mf] = rng.integers(0, 6, F.shape).astype(float)[mf]
        F2 = matrix_add(F, SemiringMatrix(rf, MINPLUS))
        X = solve_bellman_jacobi(H, F)
        X2 = solve_bellman_jacobi(H2, F2)
        assert matrix_add(X, X2) == X2  # X <= X2 entrywise


def test_shortest_paths_match_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(2, 13))
        edges = []
        for s in range(n):
            for d in range(n):
                if s != d and rng.random() < 0.4:
                    edges.append((s, d, float(rng.integers(0, 11))))
        g = Graph(n, tuple(edges))
        D = shortest_paths(g)
        assert np.array_equal(np.diag(D.data), np.zeros(n))
        for s in range(n):
            bf = bellman_ford(n, edges, s)
            dj = dijkstra(n, edges, s)
            assert bf is not None
            assert list(D.data[s]) == bf == dj


def test_negative_cycle_detected():
    g = Graph(3, ((0, 1, 2.0), (1, 2, -3.0), (2, 0, 0.5)))
    with pytest.raises(NegativeCycle):
        shortest_paths(g)
    # a persistently negative self-loop counts too
    with pytest.raises(NegativeCycle):
        shortest_paths(Graph(2, ((0, 0, -1.0), (0, 1, 1.0))))


def test_negative_cycle_witness():
    g = parse_graph(read_text(DATA / "graph_negcycle.txt"))
    with pytest.raises(NegativeCycle) as exc:
        shortest_paths(g)
    assert exc.value.cycle == (1, 2)
    assert "1 -> 2 -> 1" in str(exc.value)
    assert "\n" not in str(exc.value)
    assert is_negative_cycle(g.edges, exc.value.cycle)
    g = Graph(2, ((0, 0, -1.0), (0, 1, 1.0)))
    with pytest.raises(NegativeCycle) as exc:
        shortest_paths(g)
    assert exc.value.cycle == (0,)
    # random graphs with self-loops, parallel edges and mixed signs
    rng = np.random.default_rng(22)
    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        edges = [(int(s), int(d), float(rng.integers(-3, 10)))
                 for s, d in rng.integers(0, n, (3 * n, 2))]
        g = Graph(n, tuple(edges))
        try:
            shortest_paths(g)
        except NegativeCycle as e:
            assert is_negative_cycle(g.edges, e.cycle)
            found += 1
    assert 20 < found < 180  # both outcomes occur


def test_parallel_edges_combine():
    g = Graph(2, ((0, 1, 5.0), (0, 1, 3.0)))
    A = adjacency_matrix(g)
    assert A.data[0, 1] == 3.0


def test_max_iter_budget_respected():
    H = minplus_mat([[INF, 1.0], [INF, INF]])
    F = minplus_mat([[INF], [0.0]])
    with pytest.raises(NonConvergent):
        solve_bellman_jacobi(H, F, max_iter=1)
