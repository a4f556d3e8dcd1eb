"""The value types and the readers every caller input goes through.

Seven value types share one frozen base: equality and hashing from one key,
copy, deepcopy and pickle.  Every number handed to a constructor, to the
scalar operations or to the points writer is read by one reader per kind
(a real, a count, an array), and whatever it cannot read is a typed error.
Every operand of an operation, and every spec argument, goes through one
type-and-family check: a value of another type is a DomainError.
"""

import copy
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from helpers import EQUALITY_ORACLES, fold_convolution
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tropikit import (
    MAXPLUS,
    MINPLUS,
    NONNEG,
    DimensionMismatch,
    DomainError,
    GenPolynomial,
    GridMismatch,
    Graph,
    IntervalMatrix,
    IntervalValue,
    Polytope,
    SampledFunction,
    SemiringMatrix,
    SemiringSpec,
    ShapeMismatch,
    SpecMismatch,
    TropicalCurve,
    TropikitError,
    add,
    adjacency_matrix,
    amoeba_line_sample,
    check_axioms,
    convolution,
    deformed_add,
    deformed_spec,
    dequantize_limit,
    eval_dequantized,
    get_semiring,
    hopf_lax_evolve,
    idempotent_integral,
    integral_wrt_measure,
    interval_add,
    interval_adjacency,
    interval_bellman,
    interval_matrix_add,
    interval_matrix_mul,
    interval_mul,
    kleene_star,
    legendre,
    leq,
    log_h,
    matrix_add,
    matrix_mul,
    mul,
    newton_set,
    pointwise_add,
    poly_add,
    poly_mul,
    polytope_add,
    polytope_mul,
    register_semiring,
    scalar_mul,
    shortest_paths,
    solve_bellman_gauss_seidel,
    solve_bellman_jacobi,
    tropical_curve_2d,
)
from tropikit.fileio import format_curve, format_function, format_interval_matrix, format_matrix, format_points
from tropikit.transform import _max_convolve

INF = math.inf

# --- copy, deepcopy and pickle ----------------------------------------------------

VALUES = {
    "SemiringMatrix": lambda: SemiringMatrix([[1.0, -0.0], [INF, 2.5]], MINPLUS),
    "IntervalValue": lambda: IntervalValue(3.0, 1.0, MINPLUS),
    "IntervalMatrix": lambda: IntervalMatrix.from_numeric([[1.0, INF]], [[2.0, 0.5]], MINPLUS),
    "Graph": lambda: Graph(3, [(0, 1, 2.5), (2, 0, -1.0)]),
    "SampledFunction": lambda: SampledFunction(-1.0, 0.5, [0.0, -INF, 2.0], "maxplus"),
    "GenPolynomial": lambda: GenPolynomial(2, [(1.5, (1, 2)), (-2, ("1/2", 0))]),
    "Polytope": lambda: Polytope(2, [(0, 0), (2, 0), (0, "3/2"), (1, "1/2")]),
}
# a spec holds lambdas, so only the values without one are pickled
PICKLED = ("Graph", "SampledFunction", "GenPolynomial", "Polytope")


def _arrays(x):
    """Every array a value holds, nested values included."""
    for name in type(x).__slots__:
        field = getattr(x, name)
        if isinstance(field, np.ndarray):
            yield field
        elif isinstance(field, (SemiringMatrix, IntervalMatrix)):
            yield from _arrays(field)


@pytest.mark.parametrize("name", list(VALUES))
def test_copies_are_equal_frozen_values(name):
    x = VALUES[name]()
    copies = [copy.copy(x), copy.deepcopy(x)]
    if name in PICKLED:
        copies.append(pickle.loads(pickle.dumps(x)))
    for c in copies:
        assert type(c) is type(x) and c == x and repr(c) == repr(x)
        if name != "Polytope":  # unhashable: equal polytopes may list other points
            assert hash(c) == hash(x)
        assert all(not a.flags.writeable for a in _arrays(c))
        with pytest.raises(FrozenInstanceError):
            setattr(c, type(x).__slots__[0], None)


def test_deepcopy_does_not_share_arrays():
    x = VALUES["SemiringMatrix"]()
    assert not np.shares_memory(copy.deepcopy(x).data, x.data)


# --- equality and hashing against the parent's rules -------------------------------

_POOL = [0.0, -0.0, 1.0, 2.5, -3.0]


def _matrix(draw, spec):
    rows, cols = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pool = st.sampled_from(_POOL + [spec.zero])
    return np.array([draw(pool) for _ in range(rows * cols)]).reshape(rows, cols)


@st.composite
def _semiring_matrix(draw):
    spec = draw(st.sampled_from([MINPLUS, MAXPLUS]))
    return SemiringMatrix(_matrix(draw, spec), spec)


@st.composite
def _interval_value(draw):
    spec = draw(st.sampled_from([MINPLUS, MAXPLUS]))
    pool = st.sampled_from(_POOL + [spec.zero])
    return IntervalValue.from_numeric(draw(pool), draw(pool), spec)


@st.composite
def _interval_matrix(draw):
    a = _matrix(draw, MINPLUS)
    b = np.array([draw(st.sampled_from(_POOL + [INF])) for _ in range(a.size)]).reshape(a.shape)
    return IntervalMatrix.from_numeric(a, b, MINPLUS)


@st.composite
def _graph(draw):
    n = draw(st.integers(1, 2))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(_POOL))
    return Graph(n, draw(st.lists(edge, max_size=2)))


@st.composite
def _sampled_function(draw):
    convention = draw(st.sampled_from(["maxplus", "minplus"]))
    values = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=2))
    return SampledFunction(draw(st.sampled_from([0.0, -0.0, 1.0])), draw(st.sampled_from([1, 0.5])),
                           values, convention)


@st.composite
def _gen_polynomial(draw):
    n = draw(st.integers(1, 2))
    exps = draw(st.lists(st.tuples(*[st.sampled_from([0, 1, "1/2"])] * n), min_size=1, max_size=2,
                         unique_by=lambda d: tuple(map(str, d))))
    coefs = st.sampled_from([1, 1.0, -2.5, 3])
    return GenPolynomial(n, [(draw(coefs), d) for d in exps])


_MAKERS = {
    SemiringMatrix: _semiring_matrix(),
    IntervalValue: _interval_value(),
    IntervalMatrix: _interval_matrix(),
    Graph: _graph(),
    SampledFunction: _sampled_function(),
    GenPolynomial: _gen_polynomial(),
}


@pytest.mark.parametrize("kind", list(_MAKERS), ids=[k.__name__ for k in _MAKERS])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equality_and_hashing_are_the_parents(kind, data):
    # small pools make equal pairs common; -0.0 and 0.0 are one value
    x = data.draw(_MAKERS[kind])
    y = data.draw(st.one_of(st.just(copy.copy(x)), _MAKERS[kind]))
    eq, hash_ = EQUALITY_ORACLES[kind]
    event("equal" if eq(x, y) else "unequal")
    assert (x == y) is eq(x, y) and (x != y) is (not eq(x, y))
    assert hash(x) == hash_(x) and hash(y) == hash_(y)
    others = [data.draw(make) for k, make in _MAKERS.items() if k is not kind]
    for other in [None, 1.0, "x", kind, *others]:  # another type is never equal
        assert (x == other) is False and (x != other) is True


# --- junk at every entry point ----------------------------------------------------

_SCALAR_JUNK = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.integers(2**63, 2**80),
    st.just(10**400),
    st.complex_numbers(max_magnitude=10),
    st.builds(object),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
# numbers only inside lists: a bare one may be a valid count, and a large
# valid count would be allocated
_LEAF = st.one_of(st.floats(), st.integers(-3, 3), _SCALAR_JUNK)
_S = SemiringMatrix([[1.0]], MINPLUS)
_IM = IntervalMatrix.from_numeric([[1.0]], [[2.0]], MINPLUS)
_PHI = SampledFunction(0.0, 1.0, [0.0, 1.0], "maxplus")
_F = GenPolynomial(1, [(1.0, (1,)), (2.0, (0,))])
_P = Polytope(2, [(0, 0), (1, "1/2")])
# values where another type, or another family of the same type, is expected
_VALUES = [SemiringMatrix([[0.0]], MAXPLUS), _IM, IntervalValue(1.0, 2.0, MAXPLUS), Graph(2), _PHI,
           SampledFunction(0.0, 1.0, [0.0], "minplus"), _F, GenPolynomial(2, [(1.0, (1, 0))]), _P,
           Polytope(1, [(0,)]), TropicalCurve(()), MAXPLUS, NONNEG]
JUNK = st.one_of(
    _SCALAR_JUNK,
    st.lists(st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
             max_size=3),  # nested, often ragged
    st.sampled_from([[[1.0], [1.0, 2.0]], [[1.0, 2.0], 3.0], [(0, 1)], [(0, 1, 2.0, 3.0, 4.0)], [[]], []]),
    st.sampled_from(_VALUES),
)

# entry point -> its valid arguments, and how many of them, from the first,
# a call may replace by junk
ENTRY_POINTS = {
    "SemiringMatrix": (SemiringMatrix, ([[1.0, 2.0]], MINPLUS), 2),
    "SemiringMatrix.zeros": (SemiringMatrix.zeros, (2, 3, MINPLUS), 3),
    "SemiringMatrix.identity": (SemiringMatrix.identity, (2, MAXPLUS), 2),
    "IntervalValue": (IntervalValue, (1.0, 2.0, MAXPLUS), 3),
    "IntervalValue.from_numeric": (IntervalValue.from_numeric, (2.0, 1.0, MAXPLUS), 3),
    "IntervalValue.contains": (IntervalValue(1.0, 2.0, MAXPLUS).contains, (1.5,), 1),
    "IntervalMatrix": (IntervalMatrix, (_S, _S), 2),
    "IntervalMatrix.from_arrays": (IntervalMatrix.from_arrays, ([[1.0]], [[0.5]], MINPLUS), 3),
    "IntervalMatrix.from_numeric": (IntervalMatrix.from_numeric, ([[1.0]], [[0.5]], MINPLUS), 3),
    "IntervalMatrix.contains_point": (_IM.contains_point, (_S,), 1),
    "Graph": (Graph, (3, [(0, 1, 1.0)]), 2),
    "SampledFunction": (SampledFunction, (0.0, 1.0, [0.0, 1.0], "minplus"), 4),
    "GenPolynomial": (GenPolynomial, (2, [(1.0, (1, 0)), (-2, ("1/2", 3))]), 2),
    "GenPolynomial.term": (lambda c, d: GenPolynomial(2, [(c, d)]), (1.0, (1, 2)), 2),
    "Polytope": (Polytope, (2, [(0, 0), (1, "1/2")]), 2),
    "Polytope.point": (lambda p: Polytope(2, [(0, 0), p]), ((1, 2),), 1),
    "Polytope.support": (_P.support, ((1, -1),), 1),
    "add": (add, (1.0, 2.0, MINPLUS), 3),
    "mul": (mul, (1.0, 2.0, MAXPLUS), 3),
    "leq": (leq, (1.0, 2.0, MINPLUS), 3),
    "check_axioms": (check_axioms, (MINPLUS, 10, 0), 3),
    "interval_adjacency": (interval_adjacency, (3, [(0, 1, 1.0, 2.0)], MINPLUS), 3),
    "deformed_add": (deformed_add, (0.0, 1.0, 0.5), 3),
    "deformed_spec": (deformed_spec, (0.5,), 1),
    "matrix_add": (matrix_add, (_S, _S), 2),
    "matrix_mul": (matrix_mul, (_S, _S), 2),
    "kleene_star": (kleene_star, (_S,), 1),
    "solve_bellman_jacobi": (solve_bellman_jacobi, (_S, _S, 5), 3),
    "solve_bellman_gauss_seidel": (solve_bellman_gauss_seidel, (_S, _S, 5), 3),
    "adjacency_matrix": (adjacency_matrix, (Graph(2, [(0, 1, 1.0)]), MINPLUS), 2),
    "shortest_paths": (shortest_paths, (Graph(2, [(0, 1, 1.0)]),), 1),
    "interval_add": (interval_add, (IntervalValue(1.0, 2.0, MAXPLUS),) * 2, 2),
    "interval_mul": (interval_mul, (IntervalValue(1.0, 2.0, MAXPLUS),) * 2, 2),
    "interval_matrix_add": (interval_matrix_add, (_IM, _IM), 2),
    "interval_matrix_mul": (interval_matrix_mul, (_IM, _IM), 2),
    "interval_bellman": (interval_bellman, (_IM, _IM, 5), 3),
    "idempotent_integral": (idempotent_integral, (_PHI,), 1),
    "integral_wrt_measure": (integral_wrt_measure, (_PHI, _PHI), 2),
    "pointwise_add": (pointwise_add, (_PHI, _PHI), 2),
    "scalar_mul": (scalar_mul, (1.0, _PHI), 2),
    "convolution": (convolution, (_PHI, _PHI), 2),
    "legendre": (legendre, (_PHI, -1.0, 0.5, 5), 4),
    "hopf_lax_evolve": (hopf_lax_evolve, (SampledFunction(0.0, 1.0, [0.0, 1.0], "minplus"), 1.0, 1.0), 3),
    "poly_add": (poly_add, (_F, _F), 2),
    "poly_mul": (poly_mul, (_F, _F), 2),
    "eval_dequantized": (eval_dequantized, (_F, (1.0,), 0.5), 3),
    "dequantize_limit": (dequantize_limit, (_F, (1.0,)), 2),
    "newton_set": (newton_set, (_F,), 1),
    "polytope_add": (polytope_add, (_P, _P), 2),
    "polytope_mul": (polytope_mul, (_P, _P), 2),
    "tropical_curve_2d": (tropical_curve_2d, ([(0, (1, 0)), (0, (0, 1)), (0, (0, 0))],), 1),
    "log_h": (log_h, ((1 + 1j, 2.0), 0.5), 2),
    "amoeba_line_sample": (amoeba_line_sample, (0.5, 4), 2),
    "format_matrix": (format_matrix, (_S,), 1),
    "format_interval_matrix": (format_interval_matrix, (_IM,), 1),
    "format_function": (format_function, (_PHI,), 1),
    "format_curve": (format_curve, (tropical_curve_2d([(0, (1, 0)), (0, (0, 0))]),), 1),
    "format_points": (format_points, ([[0.0, 1.0]],), 1),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_junk_is_a_value_or_a_typed_error(name, data):
    call, args, junkable = ENTRY_POINTS[name]
    args = list(args)
    at = data.draw(st.integers(0, junkable - 1))
    args[at] = data.draw(JUNK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except TropikitError as e:
            event(type(e).__name__)
            return
    event("value")


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_take_their_valid_arguments(name):
    call, args, _ = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(*args)


@settings(max_examples=150, deadline=None)
@given(name=JUNK.filter(lambda x: not isinstance(x, str)))
def test_a_semiring_id_that_is_not_a_string_is_unknown(name):
    # get_semiring and register_semiring keep ValueError for an id they
    # cannot resolve or a reserved name; the CLI turns it into a usage error
    with pytest.raises(ValueError):
        get_semiring(name)
    with pytest.raises(DomainError if not isinstance(name, SemiringSpec) else ValueError):
        register_semiring(name)


# --- one error for each mismatch of operands ---------------------------------------

_ROW = SemiringMatrix([[1.0, 2.0]], MINPLUS)
_COL = SemiringMatrix([[1.0], [2.0]], MINPLUS)
_F2 = GenPolynomial(2, [(1.0, (1, 0))])
# name -> (call, error, message); the families keep the words they had
MISMATCHES = {
    "wrong type": (lambda: matrix_mul(_S, [[1.0]]), DomainError,
                   "expected a value of type SemiringMatrix, got [[1.0]]"),
    "mixed semirings": (lambda: matrix_add(_S, SemiringMatrix([[1.0]], MAXPLUS)), SpecMismatch,
                        "mixed semirings: minplus vs maxplus"),
    "mixed conventions": (lambda: convolution(_PHI, SampledFunction(0.0, 1.0, [0.0], "minplus")), GridMismatch,
                          "mixed conventions: maxplus vs minplus"),
    "mixed dimensions": (lambda: polytope_add(_P, Polytope(1, [(0,)])), DimensionMismatch,
                         "mixed dimensions: 2 vs 1"),
    "matrix_add shapes": (lambda: matrix_add(_S, _ROW), ShapeMismatch, "cannot add shapes (1, 1) and (1, 2)"),
    "matrix_mul shapes": (lambda: matrix_mul(_ROW, _ROW), ShapeMismatch,
                          "cannot multiply shapes (1, 2) and (1, 2)"),
    "kleene_star square": (lambda: kleene_star(_ROW), ShapeMismatch,
                           "kleene_star needs a square matrix, got (1, 2)"),
    "jacobi H square": (lambda: solve_bellman_jacobi(_ROW, _S), ShapeMismatch, "H must be square, got (1, 2)"),
    "jacobi F rows": (lambda: solve_bellman_jacobi(_S, _COL), ShapeMismatch, "F has 2 rows for an 1-node system"),
    "gauss-seidel H square": (lambda: solve_bellman_gauss_seidel(_COL, _COL), ShapeMismatch,
                              "H must be square, got (2, 1)"),
    "gauss-seidel F rows": (lambda: solve_bellman_gauss_seidel(_S, _COL), ShapeMismatch,
                            "F has 2 rows for an 1-node system"),
    "deformed_add broadcast": (lambda: deformed_add([0.0, 1.0], [0.0, 1.0, 2.0], 0.5), ShapeMismatch,
                               "deformed sum operands of shapes (2,), (3,) do not broadcast"),
    "from_numeric broadcast": (lambda: IntervalMatrix.from_numeric([1.0, 2.0], [1.0, 2.0, 3.0], MINPLUS),
                               ShapeMismatch, "interval bounds of shapes (2,), (3,) do not broadcast"),
    "poly_add dimensions": (lambda: poly_add(_F, _F2), DimensionMismatch, "mixed dimensions: 1 vs 2"),
    "poly_mul dimensions": (lambda: poly_mul(_F2, _F), DimensionMismatch, "mixed dimensions: 2 vs 1"),
    "polytope_mul dimensions": (lambda: polytope_mul(Polytope(1, [(0,)]), _P), DimensionMismatch,
                                "mixed dimensions: 1 vs 2"),
    "sum cancelled": (lambda: poly_add(_F, GenPolynomial(1, [(-1.0, (1,)), (-2.0, (0,))])), DomainError,
                      "sum cancelled to the zero polynomial"),
    # 1e-200 * 1e-200 underflows to an exact 0.0, which is dropped
    "product cancelled": (lambda: poly_mul(GenPolynomial(1, [(1e-200, (1,))]),
                                           GenPolynomial(1, [(1e-200, (0,))])),
                          DomainError, "product cancelled to the zero polynomial"),
    "interval endpoints out of order": (lambda: IntervalMatrix(_S, SemiringMatrix([[2.0]], MINPLUS)), DomainError,
                                        "some interval has endpoints out of standard order"),
}


@pytest.mark.parametrize("name", list(MISMATCHES))
def test_each_mismatch_raises_its_error(name):
    call, error, message = MISMATCHES[name]
    with pytest.raises(error) as e:
        call()
    assert str(e.value) == message


def test_the_mismatches_that_are_answers_not_errors():
    # a polytope is never equal to another type, or to one of another dimension
    assert (_P == _F) is False and (_P != (0, 0)) is True
    assert Polytope(1, [(0,)]) != Polytope(2, [(0, 0)])
    # a point matrix of another shape lies in no interval matrix
    assert _IM.contains_point(_ROW) is False
    assert _IM.entry(0, 0) == IntervalValue(2.0, 1.0, MINPLUS)


def test_convolution_ends_when_the_first_block_holds_every_finite_pair():
    # 256 x 256 samples pass the first block's size test; ten finite ones each fit in it
    a, b = np.full(256, -INF), np.full(256, -INF)
    a[::26], b[5:250:25] = np.arange(10.0), -np.arange(10.0) / 4
    phi, psi = SampledFunction(0.0, 1.0, a), SampledFunction(0.0, 1.0, b)
    assert np.array_equal(_max_convolve(a, b), fold_convolution(phi, psi).values)
    assert convolution(phi, psi) == fold_convolution(phi, psi)
